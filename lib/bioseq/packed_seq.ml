(* Designated unsafe boundary (spine-lint L11): every unchecked access
   below sits behind a bound checked once at the module edge (the safe
   [get]/[append]/[mismatch] entry points), and the raw word buffer
   never escapes the module. *)
[@@@spine.checked_boundary
  "bounds checked once at every entry point; raw word buffer never \
   escapes the module"]

(* The backing store is an array of native 63-bit OCaml ints used as
   bit-packed rows: each word holds [62 / width] codes of [width] bits
   (width is 2, 4 or 8), so every load/shift/mask below is an
   immediate-int operation — no Int64 boxing on the scan path.  Codes
   ascend from the least-significant bit.  Invariants:

   - bits past the last full code of a word are zero;
   - bits past [len] are zero (append only ORs into virgin bits);
   - at least one all-zero spare word follows the used prefix, so a
     two-word window load at any valid position stays in bounds. *)

type t = {
  alphabet : Alphabet.t;
  mutable words : int array;
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

let create ?(capacity = 64) alphabet =
  let width = initial_width alphabet in
  let wcap = Int.max 2 ((Int.max capacity 1 / chars_per_word width) + 2) in
  { alphabet; words = Array.make wcap 0; len = 0; width }

let alphabet t = t.alphabet
let length t = t.len
let width t = t.width

(* The code at [i] of a row packed [cpw] codes of [width] bits per
   word.  Callers pass the three widths' constants through a [match]
   (see [unsafe_get]), so once inlined every division here is by a
   constant — a multiply and a shift, never a runtime [idiv]. *)
let[@inline] code_at (words : int array) ~cpw ~width i =
  let wi = i / cpw in
  (Array.unsafe_get words wi lsr ((i - (wi * cpw)) * width))
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
  let dim = Array.length t.words in
  if needed > dim then begin
    let cap = ref dim in
    while !cap < needed do cap := !cap * 2 done;
    let nbuf = Array.make !cap 0 in
    Array.blit t.words 0 nbuf 0 dim;
    t.words <- nbuf
  end

(* Re-pack every stored code at a wider cell; O(len), at most twice in
   a sequence's lifetime (2 -> 4 -> 8). *)
let widen t nw =
  let cpw = chars_per_word nw in
  let nwords = Int.max 2 ((t.len + cpw - 1) / cpw + 1) in
  let nbuf = Array.make nwords 0 in
  for i = 0 to t.len - 1 do
    let code = unsafe_get t i in
    let wi = i / cpw in
    let r = i - (wi * cpw) in
    Array.unsafe_set nbuf wi
      (Array.unsafe_get nbuf wi lor (code lsl (r * nw)))
  done;
  t.words <- nbuf;
  t.width <- nw

(* OR [code] into the virgin cell [i], one word index per width as in
   [code_at] *)
let[@inline] put_at t ~cpw ~width i code =
  let wi = i / cpw in
  ensure_words t (wi + 2);
  Array.unsafe_set t.words wi
    (Array.unsafe_get t.words wi lor (code lsl ((i - (wi * cpw)) * width)))

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
let[@inline] load_at (words : int array) ~cpw ~width i =
  let wi = i / cpw in
  let b = (i - (wi * cpw)) * width in
  let lo = Array.unsafe_get words wi in
  if b = 0 then lo
  else
    ((lo lsr b) lor (Array.unsafe_get words (wi + 1) lsl ((cpw * width) - b)))
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
let[@inline] word_mismatch (aw : int array) ~apos (bw : int array) ~bpos ~len
    ~cpw ~width =
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

(* --- patterns: query strings packed once against a text row --- *)

module Pattern = struct
  type row = t

  type t = {
    codes : int array;
    packed : row option;
        (* the codes packed at the text row's width when the pattern
           was built; [None] when a code does not fit that width *)
  }

  let length p = Array.length p.codes
  let get p i = p.codes.(i)
end

(* One pass packs the codes at the text's width, a word at a time with
   a running shift, and checks that every code fits the cell ([lsr]
   catches negative codes too). *)
let pattern text codes =
  let codes = Array.copy codes in
  let width = text.width in
  let cpw = chars_per_word width in
  let n = Array.length codes in
  let words = Array.make (Int.max 2 (((n + cpw - 1) / cpw) + 1)) 0 in
  let fits = ref true and wi = ref 0 and acc = ref 0 and shift = ref 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get codes i in
    if c lsr width <> 0 then fits := false;
    acc := !acc lor (c lsl !shift);
    shift := !shift + width;
    if !shift = cpw * width then begin
      Array.unsafe_set words !wi !acc;
      incr wi;
      acc := 0;
      shift := 0
    end
  done;
  if !shift > 0 then Array.unsafe_set words !wi !acc;
  let row = { alphabet = text.alphabet; width; len = n; words } in
  { Pattern.codes; packed = (if !fits then Some row else None) }

(* per-code fallback against a raw pattern: one packed before the text
   widened, or one with codes that cannot be packed at the text's width
   (they can never fully match, but the scan still needs the exact
   mismatch position) *)
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
  match p.Pattern.packed with
  | Some row when row.width = t.width ->
    mismatch t ~apos:pos row ~bpos:ppos ~len
  | _ -> scalar_pattern t ~pos p.Pattern.codes ~ppos ~len

(* --- serialized form ---

   The packed row IS the serialized form: [used words] 64-bit
   little-endian words, each carrying [62 / width] codes in its low
   bits and zeros above (tail padding included).  No re-packing on
   save, load or page-out. *)

let byte_length ~width len =
  let cpw = chars_per_word width in
  (len + cpw - 1) / cpw * 8

let packed_byte_length t = byte_length ~width:t.width t.len

let last_code_byte t =
  if t.len = 0 then invalid_arg "Packed_seq.last_code_byte: empty row";
  let cpw = chars_per_word t.width in
  let wi = (t.len - 1) / cpw in
  let byte = (t.len - 1 - (wi * cpw)) * t.width / 8 in
  ((wi * 8) + byte, (Array.unsafe_get t.words wi lsr (8 * byte)) land 0xFF)

let packed_bits t =
  let out = Bytes.create (packed_byte_length t) in
  for w = 0 to (Bytes.length out / 8) - 1 do
    Bytes.set_int64_le out (w * 8) (Int64.of_int (Array.unsafe_get t.words w))
  done;
  out

let of_packed_bits alphabet ~len ~width bytes =
  if width <> 2 && width <> 4 && width <> 8 then
    invalid_arg "Packed_seq.of_packed_bits: unsupported cell width";
  if len < 0 then invalid_arg "Packed_seq.of_packed_bits: negative length";
  let cpw = chars_per_word width in
  let nw = byte_length ~width len / 8 in
  if Bytes.length bytes < nw * 8 then
    invalid_arg "Packed_seq.of_packed_bits: payload shorter than length";
  (* bits 62 and 63 included: the stored word is 64 bits wide *)
  let stray = Int64.lognot (Int64.of_int ((1 lsl (cpw * width)) - 1)) in
  let words = Array.make (Int.max 2 (nw + 1)) 0 in
  for w = 0 to nw - 1 do
    let v = Bytes.get_int64_le bytes (w * 8) in
    if not (Int64.equal (Int64.logand v stray) 0L) then
      invalid_arg "Packed_seq.of_packed_bits: stray bits beyond the row";
    Array.unsafe_set words w (Int64.to_int v)
  done;
  (* tail padding of the last word must be zero *)
  if nw > 0 then begin
    let tail = len - ((nw - 1) * cpw) in
    if Array.unsafe_get words (nw - 1) lsr (tail * width) <> 0 then
      invalid_arg "Packed_seq.of_packed_bits: stray bits beyond the row"
  end;
  (* a cell wider than the alphabet can encode out-of-alphabet codes *)
  let t = { alphabet; width; len; words } in
  let sep = Alphabet.separator alphabet in
  if (1 lsl width) - 1 > sep then
    for i = 0 to len - 1 do
      if unsafe_get t i > sep then
        invalid_arg "Packed_seq.of_packed_bits: code outside the alphabet"
    done;
  t

let copy t =
  let used = packed_byte_length t / 8 in
  { t with words = Array.sub t.words 0 (Int.max 2 (used + 1)) }

let iteri t ~f =
  for i = 0 to t.len - 1 do f i (unsafe_get t i) done
