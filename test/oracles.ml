(* Naive reference implementations every index is validated against.
   All are deliberately brute force: correctness is obvious by
   inspection, which is the whole point of an oracle. *)

(* All start positions of [pat] in [s], ascending. *)
let occurrences s pat =
  let n = String.length s and m = String.length pat in
  if m = 0 || m > n then []
  else begin
    let acc = ref [] in
    for i = n - m downto 0 do
      if String.sub s i m = pat then acc := i :: !acc
    done;
    !acc
  end

let contains s pat = pat = "" || occurrences s pat <> []

let first_occurrence s pat =
  match occurrences s pat with [] -> None | p :: _ -> Some p

(* Matching statistics: ms.(i) = length of the longest suffix of
   q[0..i] that is a substring of [s]. *)
let matching_statistics s q =
  let m = String.length q in
  Array.init m (fun i ->
      let rec longest len =
        if len > i + 1 then len - 1
        else if contains s (String.sub q (i + 1 - len) len) then longest (len + 1)
        else len - 1
      in
      longest 1)

(* The LET-suffix of each prefix: for prefix s[0..i-1] (node i of a
   SPINE), the longest suffix that also occurs ending strictly before
   position i, together with the end position (node id) of its first
   occurrence. Returns (lel, dest) with (0, 0) when no suffix
   re-occurs. *)
let let_suffix s i =
  let prefix = String.sub s 0 i in
  (* an occurrence starting at p (0-based) ends at node p + len; early
     termination means ending strictly before node i *)
  let rec try_len len =
    if len = 0 then (0, 0)
    else
      let suffix = String.sub prefix (i - len) len in
      match List.filter (fun p -> p + len < i) (occurrences prefix suffix) with
      | [] -> try_len (len - 1)
      | p :: _ -> (len, p + len)
  in
  try_len (i - 1)

(* Right-maximal matches of length >= threshold: (query_end, length,
   data end positions). *)
let maximal_matches s q threshold =
  let ms = matching_statistics s q in
  let m = String.length q in
  let out = ref [] in
  for i = m - 1 downto 0 do
    let right_maximal = i = m - 1 || ms.(i + 1) <= ms.(i) in
    if right_maximal && ms.(i) >= threshold && threshold > 0 then begin
      let pat = String.sub q (i + 1 - ms.(i)) ms.(i) in
      let ends = List.map (fun p -> p + ms.(i) - 1) (occurrences s pat) in
      out := (i, ms.(i), ends) :: !out
    end
  done;
  !out

(* Deterministic random strings for property tests. *)
let random_string rng alphabet_size len =
  String.init len (fun _ -> Char.chr (Char.code 'a' + Bioseq.Rng.int rng alphabet_size))

(* Fixed menagerie of adversarial inputs: high repetition, unary,
   Fibonacci, the paper's own example. *)
let adversarial =
  [ "aaccacaaca"                     (* the paper's running example *)
  ; "aaaaaaaaaaaaaaaa"
  ; "abababababababab"
  ; "abaababaabaababaababa"          (* fibonacci word prefix *)
  ; "abcabcabcabcabc"
  ; "a"
  ; "ab"
  ; "aa"
  ; "banana"
  ; "mississippi"
  ; "abcdefghijklmnop"               (* all distinct *)
  ; "aabbaabbaaabbb"
  ]

(* A packed sequence decoded character by character. *)
let seq_string s =
  Bioseq.Packed_seq.sub_string s ~pos:0 ~len:(Bioseq.Packed_seq.length s)

(* Same alphabet and the same codes, compared one code at a time. *)
let same_seq a b =
  let module P = Bioseq.Packed_seq in
  Bioseq.Alphabet.equal (P.alphabet a) (P.alphabet b)
  && P.length a = P.length b
  && List.for_all (fun i -> P.get a i = P.get b i) (List.init (P.length a) Fun.id)

(* A fair coin: the low bit of the generator's next draw. *)
let coin rng = Bioseq.Rng.bits62 rng land 1 = 1
