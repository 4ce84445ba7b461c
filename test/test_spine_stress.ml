(* Repeat-heavy stress tests with a suffix-tree-based oracle.

   These exist because of a real bug class the small-string property
   tests cannot reach: extrib chains from different parent ribs merge
   physically (one extrib per node), and when two parent ribs share a PT
   value, PRT alone misattributes chain elements. The fix records each
   extrib's anchor (parent rib destination); see Store_sig.find_extrib
   and DESIGN.md. The [regression_string] below is the 400-character
   input that first exposed the bug (node 302 received link LEL 5
   instead of 4, which later produced search false positives). *)

module I = Spine.Compact
let link t node = Spine.Compact_store.(link_dest t node, link_lel t node)
module V = Spine.Validate.Make (Spine.Compact_store)

let regression_string =
  "aggggaccccttgcatgggcgggcgcccatggcgcccagctaattgttttatttatggggccagga\
   atggcggcgtgcgcagtgctcttctaccatataccatctatagtagacccgtactgaatcccccgc\
   gtcttggcgtgttccatacctatcgtctatgcccagggactaccccaaatggggccatggcccagt\
   gtcgaataccagtagtgttatggggccaggaatggcggcgtgcgcagtgctcttctaccatatacc\
   atctatagtagacccgtactgaatcccccgcgtcttgtctttccagtacgggggcgtctaggggcc\
   agctaattgttttatttatggggcccgtactagggccagctaattgttttatttcgcctggggcgc\
   cccc"

(* Oracle via the (independently validated) suffix tree: the LET suffix
   of node i is the longest l whose l-suffix of s[0..i-1] has an
   occurrence ending strictly before i; monotone in l, so binary
   searchable. *)
let check_all_links seq =
  let n = Bioseq.Packed_seq.length seq in
  let idx = I.of_seq seq in
  Codes.valid (V.check idx);
  let st = Suffix_tree.build seq in
  let subcodes lo len =
    Array.init len (fun k -> Bioseq.Packed_seq.get seq (lo + k))
  in
  for i = 1 to n do
    let ends_early l =
      match Suffix_tree.occurrences st (subcodes (i - l) l) with
      | [] -> false
      | p :: _ -> p + l < i
    in
    let rec bs lo hi best =
      if lo > hi then best
      else
        let mid = (lo + hi) / 2 in
        if mid >= 1 && ends_early mid then bs (mid + 1) hi mid
        else bs lo (mid - 1) best
    in
    let lel = bs 1 (i - 1) 0 in
    let dest =
      if lel = 0 then 0
      else
        match Suffix_tree.first_occurrence st (subcodes (i - lel) lel) with
        | Some p -> p + lel
        | None -> assert false
    in
    let got_dest, got_lel = link idx i in
    if (got_dest, got_lel) <> (dest, lel) then
      Alcotest.failf "link mismatch at node %d: got (dest %d, lel %d), \
                      oracle (dest %d, lel %d)" i got_dest got_lel dest lel
  done

(* Matching statistics of SPINE vs suffix tree on repeat-heavy inputs
   (the condition that exposed the bug at genome scale). *)
let check_ms_parity rng seq =
  let e = I.engine (I.of_seq seq) in
  let st = Suffix_tree.build seq in
  let query =
    Bioseq.Synthetic.mutate ~rate:0.15 rng seq
  in
  let ms_spine, _ = Spine.Engine.matching_statistics e query in
  let ms_st, _ = Suffix_tree.matching_statistics st query in
  Alcotest.(check (array int)) "ms parity on repeat-heavy input"
    ms_st ms_spine

let genomic_profile =
  { Bioseq.Synthetic.repeat_prob = 0.01;
    mean_repeat_len = 30;
    mutation_rate = 0.03;
    order = 2;
    skew = 0.0;
    clean_copy_prob = 0.3;
    long_copy_prob = 0.04;
    long_copy_factor = 12 }

let test_regression_links () =
  check_all_links (Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna regression_string)

let test_regression_search () =
  (* the concrete false positive the bug produced: construct analogous
     situations by exhaustive membership testing against the tree *)
  let seq = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna regression_string in
  let e = I.engine (I.of_seq seq) in
  let st = Suffix_tree.build seq in
  let rng = Bioseq.Rng.create 11 in
  for _ = 1 to 3000 do
    let len = 1 + Bioseq.Rng.int rng 14 in
    let pat = Array.init len (fun _ -> Bioseq.Rng.int rng 4) in
    let expected = Suffix_tree.contains_codes st pat in
    let got = Codes.contains e pat in
    if expected <> got then
      Alcotest.failf "membership mismatch (len %d): tree %b, spine %b"
        len expected got
  done

let test_genomic_links () =
  let rng = Bioseq.Rng.create 21 in
  for _ = 1 to 12 do
    let n = 300 + Bioseq.Rng.int rng 900 in
    check_all_links
      (Bioseq.Synthetic.genomic ~profile:genomic_profile Bioseq.Alphabet.dna
         (Bioseq.Rng.split rng) n)
  done

let test_genomic_ms_parity () =
  let rng = Bioseq.Rng.create 22 in
  for _ = 1 to 8 do
    let n = 2000 + Bioseq.Rng.int rng 4000 in
    let seq =
      Bioseq.Synthetic.genomic ~profile:genomic_profile Bioseq.Alphabet.dna
        (Bioseq.Rng.split rng) n
    in
    check_ms_parity (Bioseq.Rng.split rng) seq
  done

let test_genomic_occurrences () =
  let rng = Bioseq.Rng.create 23 in
  for _ = 1 to 8 do
    let n = 1000 + Bioseq.Rng.int rng 2000 in
    let seq =
      Bioseq.Synthetic.genomic ~profile:genomic_profile Bioseq.Alphabet.dna
        (Bioseq.Rng.split rng) n
    in
    let e = I.engine (I.of_seq seq) in
    let st = Suffix_tree.build seq in
    for _ = 1 to 30 do
      let len = 2 + Bioseq.Rng.int rng 10 in
      let pos = Bioseq.Rng.int rng (n - len) in
      let pat = Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)) in
      Alcotest.(check (list int)) "occurrences parity"
        (Suffix_tree.occurrences st pat) (Codes.occurrences e pat)
    done
  done

let suite =
  [ Alcotest.test_case "regression: links of the anchor-bug string" `Quick
      test_regression_links
  ; Alcotest.test_case "regression: no search false positives" `Quick
      test_regression_search
  ; Alcotest.test_case "links vs oracle on repeat-heavy strings" `Slow
      test_genomic_links
  ; Alcotest.test_case "ms parity on repeat-heavy strings" `Slow
      test_genomic_ms_parity
  ; Alcotest.test_case "occurrences parity on repeat-heavy strings" `Slow
      test_genomic_occurrences
  ]
