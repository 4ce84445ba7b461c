(* The invariant checker: clean on genuine indexes of every flavour,
   loud on corrupted ones (failure injection through the store). *)

let dna = Bioseq.Alphabet.dna

module CS = Spine.Compact_store
module V = Spine.Validate.Make (CS)

let test_clean_indexes () =
  let rng = Bioseq.Rng.create 101 in
  (* adversarial byte strings *)
  List.iter
    (fun s ->
      let idx = Spine.Compact.of_string Bioseq.Alphabet.byte s in
      Codes.valid (V.check idx))
    Oracles.adversarial;
  (* genomic strings *)
  for _ = 1 to 10 do
    let seq =
      Bioseq.Synthetic.genomic dna (Bioseq.Rng.split rng)
        (500 + Bioseq.Rng.int rng 3000)
    in
    Codes.valid (V.check (Spine.Compact.of_seq seq))
  done;
  (* proteins *)
  let seq =
    Bioseq.Synthetic.genomic Bioseq.Alphabet.protein (Bioseq.Rng.split rng) 3000
  in
  Codes.valid (V.check (Spine.Compact.of_seq seq));
  (* generalized (contains separators) *)
  Codes.valid (V.check (Codes.generalized dna [ "acgtacgggt"; "ttgacaccgt" ]));
  (* loaded from an index file *)
  let idx = Spine.Compact.of_string dna "acgtacgtgacgtt" in
  Codes.valid (V.check (Index_file.round_trip idx))

(* failure injection: corrupt one field through the raw store and make
   sure the checker notices *)
let corrupt_and_check mutate expected_substring =
  let idx = Spine.Compact.of_string dna "acgtacgtgacgttacgacg" in
  mutate idx;
  match V.check idx with
  | [] -> Alcotest.failf "corruption not detected (%s)" expected_substring
  | violations ->
    let found =
      List.exists
        (fun v ->
          let text = v.Spine.Validate.where ^ ": " ^ v.Spine.Validate.what in
          (* substring containment *)
          let n = String.length text
          and m = String.length expected_substring in
          let rec go i =
            i + m <= n
            && (String.sub text i m = expected_substring || go (i + 1))
          in
          go 0)
        violations
    in
    if not found then
      Alcotest.failf "expected a violation mentioning %S, got %s"
        expected_substring
        (String.concat "; "
           (List.map (fun v -> v.Spine.Validate.what) violations))

let test_detects_bad_link_dest () =
  corrupt_and_check
    (fun s -> CS.set_link s 5 ~dest:9 ~lel:2)
    "not strictly upstream"

let test_detects_bad_lel () =
  corrupt_and_check
    (fun s ->
      let dest = CS.link_dest s 10 in
      CS.set_link s 10 ~dest ~lel:(dest + 3))
    "out of range"

let test_detects_wrong_suffix () =
  (* keep ranges legal but break the string equality the link asserts *)
  corrupt_and_check
    (fun s ->
      (* node 8's link with a dest whose context can't match: point the
         link at a node preceded by a different character *)
      CS.set_link s 8 ~dest:3 ~lel:3)
    "differ"

let test_detects_bad_rib () =
  corrupt_and_check
    (fun s -> CS.add_rib s 4 ~code:0 ~dest:2 ~pt:1)
    "downstream"

(* The Section 5 layout appends a rib under a label the node already
   carries instead of replacing it, and a lookup by label returns the
   first; the checker walks every stored rib, so it still sees the
   second (node 4 carries a rib labelled t = 3). *)
let test_detects_duplicate_rib () =
  corrupt_and_check
    (fun s -> CS.add_rib s 4 ~code:3 ~dest:8 ~pt:4)
    "a second rib with the same character label"

let test_detects_bad_extrib () =
  corrupt_and_check
    (fun s -> CS.add_extrib s 6 ~dest:9 ~pt:2 ~prt:5 ~anchor:7)
    "PRT must be below PT"

let suite =
  [ Alcotest.test_case "clean on genuine indexes" `Quick test_clean_indexes
  ; Alcotest.test_case "detects corrupted link destination" `Quick
      test_detects_bad_link_dest
  ; Alcotest.test_case "detects out-of-range LEL" `Quick test_detects_bad_lel
  ; Alcotest.test_case "detects broken suffix equality" `Quick
      test_detects_wrong_suffix
  ; Alcotest.test_case "detects upstream rib" `Quick test_detects_bad_rib
  ; Alcotest.test_case "detects a second rib under one label" `Quick
      test_detects_duplicate_rib
  ; Alcotest.test_case "detects inconsistent extrib labels" `Quick
      test_detects_bad_extrib
  ]
