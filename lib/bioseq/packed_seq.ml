(* Designated unsafe boundary (spine-lint L11): every unchecked access
   below sits behind a bound checked once at the module edge (the safe
   [get]/[append]/[mismatch] entry points), and the raw word buffer
   never escapes the module. *)
[@@@spine.checked_boundary
  "bounds checked once at every entry point; raw word buffer never \
   escapes the module"]

open Bigarray

(* The backing store is an array of native 63-bit OCaml ints used as
   bit-packed rows: each word holds [62 / width] codes of [width] bits
   (width is 2, 4 or 8), so every load/shift/mask below is an
   immediate-int operation — no Int64 boxing on the scan path.  Codes
   ascend from the least-significant bit.  Invariants:

   - bits past the last full code of a word are zero;
   - bits past [len] are zero (append only ORs into virgin bits);
   - at least one all-zero spare word follows the used prefix, so a
     two-word window load at any valid position stays in bounds. *)

type words = (int, int_elt, c_layout) Array1.t

type t = {
  alphabet : Alphabet.t;
  mutable words : words;
  mutable len : int;    (* codes stored *)
  mutable width : int;  (* bits per code: 2, 4 or 8 *)
}

let chars_per_word width = 62 / width

(* narrowest supported cell that can hold [code] *)
let width_for code =
  if code < 4 then 2
  else if code < 16 then 4
  else if code < 256 then 8
  else invalid_arg "Packed_seq: code does not fit a packed cell"

(* Sized for the payload codes only: the separator (Generalized's
   string boundary) is wider for DNA and triggers an in-place widen on
   first append instead of taxing every single-string index. *)
let initial_width alphabet = width_for (Alphabet.size alphabet - 1)

let zero_words n =
  let w = Array1.create Bigarray.int c_layout n in
  Array1.fill w 0;
  w

let create ?(capacity = 64) alphabet =
  let width = initial_width alphabet in
  let wcap = Int.max 2 ((Int.max capacity 1 / chars_per_word width) + 2) in
  { alphabet; words = zero_words wcap; len = 0; width }

let alphabet t = t.alphabet
let length t = t.len
let width t = t.width

(* The code at [i] of a row packed [cpw] codes of [width] bits per
   word.  Callers pass the three widths' constants through a [match]
   (see [unsafe_get]), so once inlined every division here is by a
   constant — a multiply and a shift, never a runtime [idiv]. *)
let[@inline] code_at (words : words) ~cpw ~width i =
  let wi = i / cpw in
  (Array1.unsafe_get words wi lsr ((i - (wi * cpw)) * width))
  land ((1 lsl width) - 1)

let unsafe_get t i =
  match t.width with
  | 2 -> code_at t.words ~cpw:31 ~width:2 i
  | 4 -> code_at t.words ~cpw:15 ~width:4 i
  | _ -> code_at t.words ~cpw:7 ~width:8 i

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg "Packed_seq.get: index out of range";
  unsafe_get t i

let ensure_words t needed =
  let dim = Array1.dim t.words in
  if needed > dim then begin
    let cap = ref dim in
    while !cap < needed do cap := !cap * 2 done;
    let nbuf = zero_words !cap in
    Array1.blit t.words (Array1.sub nbuf 0 dim);
    t.words <- nbuf
  end

(* Re-pack every stored code at a wider cell; O(len), at most twice in
   a sequence's lifetime (2 -> 4 -> 8). *)
let widen t nw =
  let cpw = chars_per_word nw in
  let nwords = Int.max 2 ((t.len + cpw - 1) / cpw + 1) in
  let nbuf = zero_words nwords in
  for i = 0 to t.len - 1 do
    let code = unsafe_get t i in
    let wi = i / cpw in
    let r = i - (wi * cpw) in
    Array1.unsafe_set nbuf wi
      (Array1.unsafe_get nbuf wi lor (code lsl (r * nw)))
  done;
  t.words <- nbuf;
  t.width <- nw

(* OR [code] into the virgin cell [i], one word index per width as in
   [code_at] *)
let[@inline] put_at t ~cpw ~width i code =
  let wi = i / cpw in
  ensure_words t (wi + 2);
  Array1.unsafe_set t.words wi
    (Array1.unsafe_get t.words wi lor (code lsl ((i - (wi * cpw)) * width)))

let append t code =
  if code < 0 || code > Alphabet.separator t.alphabet then
    invalid_arg "Packed_seq.append: code out of range";
  if code >= 1 lsl t.width then widen t (width_for code);
  (match t.width with
  | 2 -> put_at t ~cpw:31 ~width:2 t.len code
  | 4 -> put_at t ~cpw:15 ~width:4 t.len code
  | _ -> put_at t ~cpw:7 ~width:8 t.len code);
  t.len <- t.len + 1

let append_string t s =
  String.iter (fun c -> append t (Alphabet.encode t.alphabet c)) s

let of_string alphabet s =
  let t = create ~capacity:(Int.max 1 (String.length s)) alphabet in
  append_string t s;
  t

let of_codes alphabet codes =
  let t = create ~capacity:(Int.max 1 (Array.length codes)) alphabet in
  Array.iter (fun c -> append t c) codes;
  t

let sub_string t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Packed_seq.sub_string";
  String.init len (fun i -> Alphabet.decode t.alphabet (unsafe_get t (pos + i)))

(* --- word-at-a-time span comparison --- *)

(* The [cpw * width] usable bits of the codes from code index [i] on
   (two word loads, one shift-or, one mask), zero-padded past the end
   of the row; constant divisions as in [code_at].  Precondition:
   0 <= i < row length; the spare zero word makes the second load safe
   even when [i] sits in the last used word. *)
let[@inline] load_at (words : words) ~cpw ~width i =
  let wi = i / cpw in
  let b = (i - (wi * cpw)) * width in
  let lo = Array1.unsafe_get words wi in
  if b = 0 then lo
  else
    ((lo lsr b) lor (Array1.unsafe_get words (wi + 1) lsl ((cpw * width) - b)))
    land ((1 lsl (cpw * width)) - 1)

(* number of trailing zero bits; [x] must be non-zero *)
let ntz x =
  let x = x land (-x) in
  let n, x = if x land 0xFFFFFFFF = 0 then (32, x lsr 32) else (0, x) in
  let n, x = if x land 0xFFFF = 0 then (n + 16, x lsr 16) else (n, x) in
  let n, x = if x land 0xFF = 0 then (n + 8, x lsr 8) else (n, x) in
  let n, x = if x land 0xF = 0 then (n + 4, x lsr 4) else (n, x) in
  let n, x = if x land 0x3 = 0 then (n + 2, x lsr 2) else (n, x) in
  if x land 0x1 = 0 then n + 1 else n

let check_span a ~apos b ~bpos ~len =
  if
    len < 0 || apos < 0 || bpos < 0 || apos + len > a.len
    || bpos + len > b.len
  then invalid_arg "Packed_seq.mismatch: span out of range"

(* per-code comparison of two rows of different cell widths *)
let scalar_mismatch a ~apos b ~bpos ~len =
  let k = ref 0 in
  let res = ref (-1) in
  while !res < 0 && !k < len do
    if unsafe_get a (apos + !k) = unsafe_get b (bpos + !k) then incr k
    else res := !k
  done;
  let m = if !res < 0 then len else !res in
  (m, 0, m + (if m < len then 1 else 0))

(* Word-at-a-time comparison of two rows of one cell width: every step
   XORs two windows, and the last partial window is masked to the
   codes left, so a span of [len] codes takes at most [ceil (len / cpw)]
   word steps and no per-code step. *)
let[@inline] word_mismatch (aw : words) ~apos (bw : words) ~bpos ~len ~cpw
    ~width =
  let k = ref 0 in
  let words = ref 0 in
  let res = ref (-1) in
  while !res < 0 && !k < len do
    let x =
      load_at aw ~cpw ~width (apos + !k) lxor load_at bw ~cpw ~width (bpos + !k)
    in
    let left = len - !k in
    let x = if left < cpw then x land ((1 lsl (left * width)) - 1) else x in
    incr words;
    if x = 0 then k := !k + cpw else res := !k + (ntz x / width)
  done;
  ((if !res < 0 then len else !res), !words, 0)

let mismatch a ~apos b ~bpos ~len =
  check_span a ~apos b ~bpos ~len;
  if a.width <> b.width then
    (* mixed cell widths (one sequence widened past the other): the
       packed rows are not directly comparable, fall back per code *)
    scalar_mismatch a ~apos b ~bpos ~len
  else
    match a.width with
    | 2 -> word_mismatch a.words ~apos b.words ~bpos ~len ~cpw:31 ~width:2
    | 4 -> word_mismatch a.words ~apos b.words ~bpos ~len ~cpw:15 ~width:4
    | _ -> word_mismatch a.words ~apos b.words ~bpos ~len ~cpw:7 ~width:8

let compare_span a ~apos b ~bpos ~len =
  let m, _, _ = mismatch a ~apos b ~bpos ~len in
  m = len

(* --- patterns: pre-packed query strings --- *)

(* build a row directly at a forced width, one word at a time with a
   running shift; caller guarantees every code fits [width] *)
let row_of_codes alphabet ~pwidth codes =
  let cpw = chars_per_word pwidth in
  let full = cpw * pwidth in
  let n = Array.length codes in
  let words = zero_words (Int.max 2 (((n + cpw - 1) / cpw) + 1)) in
  let wi = ref 0 and acc = ref 0 and shift = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc lor (Array.unsafe_get codes i lsl !shift);
    shift := !shift + pwidth;
    if !shift = full then begin
      Array1.unsafe_set words !wi !acc;
      incr wi;
      acc := 0;
      shift := 0
    end
  done;
  if !shift > 0 then Array1.unsafe_set words !wi !acc;
  { alphabet; width = pwidth; len = n; words }

module Pattern = struct
  type row = t

  type t = {
    codes : int array;
    max_code : int;  (* -1 when empty *)
    min_code : int;  (* 0 when empty *)
    mutable cached : row option;
        (* packed rendering at the width of the last text row it was
           compared against; re-packed lazily when widths change *)
  }

  let of_codes codes =
    let hi = ref (-1) and lo = ref 0 in
    for i = 0 to Array.length codes - 1 do
      let c = Array.unsafe_get codes i in
      if c > !hi then hi := c;
      if c < !lo then lo := c
    done;
    { codes = Array.copy codes; max_code = !hi; min_code = !lo; cached = None }

  let length p = Array.length p.codes
  let get p i = p.codes.(i)
end

(* per-code fallback against a raw pattern (codes that cannot be
   packed at the text's width — they can never fully match, but the
   scan still needs the exact mismatch position) *)
let scalar_pattern t ~pos codes ~ppos ~len =
  let k = ref 0 in
  let res = ref (-1) in
  while !res < 0 && !k < len do
    if unsafe_get t (pos + !k) = Array.unsafe_get codes (ppos + !k) then
      incr k
    else res := !k
  done;
  let m = if !res < 0 then len else !res in
  (m, 0, m + (if m < len then 1 else 0))

let mismatch_pattern t ~pos (p : Pattern.t) ~ppos ~len =
  if
    len < 0 || pos < 0 || ppos < 0 || pos + len > t.len
    || ppos + len > Array.length p.Pattern.codes
  then invalid_arg "Packed_seq.mismatch_pattern: span out of range";
  if p.Pattern.min_code >= 0 && p.Pattern.max_code < 1 lsl t.width then begin
    (* A pattern may be shared by queries on several domains, so the
       cache write can race; it is an idempotent memo that publishes a
       fully built row, and every racing writer stores an equal one. *)
    let[@spine.domain_safe "idempotent memo of a fully built row"] row =
      match p.Pattern.cached with
      | Some r when r.width = t.width -> r
      | _ ->
        let r = row_of_codes t.alphabet ~pwidth:t.width p.Pattern.codes in
        p.Pattern.cached <- Some r;
        r
    in
    mismatch t ~apos:pos row ~bpos:ppos ~len
  end
  else scalar_pattern t ~pos p.Pattern.codes ~ppos ~len

(* --- serialized form ---

   The packed row IS the serialized form: [used words] 64-bit
   little-endian words, each carrying [62 / width] codes in its low
   bits and zeros above (tail padding included).  No re-packing on
   save, load or page-out. *)

let used_words t =
  let cpw = chars_per_word t.width in
  (t.len + cpw - 1) / cpw

let packed_byte_length t = used_words t * 8

let packed_bits t =
  let nw = used_words t in
  let out = Bytes.create (nw * 8) in
  for w = 0 to nw - 1 do
    let v = Array1.unsafe_get t.words w in
    for k = 0 to 7 do
      Bytes.unsafe_set out ((w * 8) + k)
        (Char.unsafe_chr ((v lsr (8 * k)) land 0xFF))
    done
  done;
  out

let of_packed_bits alphabet ~len ~width bytes =
  if width <> 2 && width <> 4 && width <> 8 then
    invalid_arg "Packed_seq.of_packed_bits: unsupported cell width";
  if len < 0 then invalid_arg "Packed_seq.of_packed_bits: negative length";
  let cpw = chars_per_word width in
  let nw = (len + cpw - 1) / cpw in
  if Bytes.length bytes < nw * 8 then
    invalid_arg "Packed_seq.of_packed_bits: payload shorter than length";
  let umask = (1 lsl (cpw * width)) - 1 in
  let t = { alphabet; width; len; words = zero_words (Int.max 2 (nw + 1)) } in
  for w = 0 to nw - 1 do
    let v = ref 0 in
    for k = 0 to 7 do
      v := !v lor (Char.code (Bytes.get bytes ((w * 8) + k)) lsl (8 * k))
    done;
    if !v land lnot umask <> 0 then
      invalid_arg "Packed_seq.of_packed_bits: stray bits beyond the row";
    Array1.unsafe_set t.words w !v
  done;
  (* tail padding of the last word must be zero *)
  if nw > 0 then begin
    let tail = len - ((nw - 1) * cpw) in
    if Array1.unsafe_get t.words (nw - 1) lsr (tail * width) <> 0 then
      invalid_arg "Packed_seq.of_packed_bits: stray bits beyond the row"
  end;
  (* a cell wider than the alphabet can encode out-of-alphabet codes *)
  let sep = Alphabet.separator alphabet in
  if (1 lsl width) - 1 > sep then
    for i = 0 to len - 1 do
      if unsafe_get t i > sep then
        invalid_arg "Packed_seq.of_packed_bits: code outside the alphabet"
    done;
  t

let copy t =
  let uw = used_words t + 1 in
  let nbuf = zero_words (Int.max 2 uw) in
  Array1.blit (Array1.sub t.words 0 uw) (Array1.sub nbuf 0 uw);
  { alphabet = t.alphabet; words = nbuf; len = t.len; width = t.width }

let iteri t ~f =
  for i = 0 to t.len - 1 do f i (unsafe_get t i) done
