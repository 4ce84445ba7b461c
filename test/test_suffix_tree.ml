(* Suffix tree baseline vs the naive oracles. *)

module ST = Suffix_tree

let byte = Bioseq.Alphabet.byte

let build s = ST.of_string byte s

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

let check_contains s =
  let t = build s in
  let n = String.length s in
  (* every substring present *)
  for i = 0 to n - 1 do
    for len = 1 to n - i do
      let sub = String.sub s i len in
      if not (ST.contains_codes t (codes_of sub)) then
        Alcotest.failf "missing substring %S of %S" sub s
    done
  done

let check_occurrences rng s =
  let t = build s in
  let n = String.length s in
  for _ = 1 to 30 do
    let len = 1 + Bioseq.Rng.int rng (min 6 n) in
    let pat =
      if Oracles.coin rng && n >= len then
        let p = Bioseq.Rng.int rng (n - len + 1) in
        String.sub s p len
      else Oracles.random_string rng 3 len
    in
    let expected = Oracles.occurrences s pat in
    let got = ST.occurrences t (codes_of pat) in
    Alcotest.(check (list int))
      (Printf.sprintf "occurrences of %S in %S" pat s) expected got
  done

let check_ms rng s =
  let t = build s in
  let q =
    (* queries built from the same small alphabet so matches happen *)
    Oracles.random_string rng 3 (10 + Bioseq.Rng.int rng 30)
  in
  let expected = Oracles.matching_statistics s q in
  let got, _ = ST.matching_statistics t (Bioseq.Packed_seq.of_string byte q) in
  Alcotest.(check (array int))
    (Printf.sprintf "ms of %S against %S" q s) expected got

let test_adversarial_contains () = List.iter check_contains Oracles.adversarial

let test_adversarial_absent () =
  List.iter
    (fun s ->
      let t = build s in
      Alcotest.(check bool) "absent pattern" false
        (ST.contains t (s ^ "zzz"));
      Alcotest.(check bool) "absent char" false (ST.contains t "z"))
    Oracles.adversarial

let test_counts () =
  List.iter
    (fun s ->
      let t = build s in
      let n = String.length s in
      (* with a terminator every suffix (plus the empty one) is a leaf *)
      Alcotest.(check int) ("leaves of " ^ s) (n + 1) (ST.leaf_count t);
      if ST.node_count t > 2 * (n + 1) + 1 then
        Alcotest.failf "node count %d too large for %S" (ST.node_count t) s)
    Oracles.adversarial

let test_occurrences_random () =
  let rng = Bioseq.Rng.create 42 in
  List.iter (check_occurrences rng) Oracles.adversarial;
  for _ = 1 to 25 do
    let s = Oracles.random_string rng 3 (5 + Bioseq.Rng.int rng 60) in
    check_occurrences rng s
  done

let test_ms_random () =
  let rng = Bioseq.Rng.create 43 in
  List.iter (check_ms rng) Oracles.adversarial;
  for _ = 1 to 25 do
    let s = Oracles.random_string rng 3 (5 + Bioseq.Rng.int rng 60) in
    check_ms rng s
  done

let test_maximal_matches () =
  let rng = Bioseq.Rng.create 44 in
  for _ = 1 to 40 do
    let s = Oracles.random_string rng 3 (10 + Bioseq.Rng.int rng 50) in
    let q = Oracles.random_string rng 3 (10 + Bioseq.Rng.int rng 50) in
    let threshold = 2 + Bioseq.Rng.int rng 3 in
    let expected = Oracles.maximal_matches s q threshold in
    let t = build s in
    let got, _ =
      ST.maximal_matches t ~threshold (Bioseq.Packed_seq.of_string byte q)
    in
    let got =
      List.map (fun { ST.query_end; length; data_ends } ->
          (query_end, length, data_ends)) got
    in
    Alcotest.(check (list (triple int int (list int))))
      (Printf.sprintf "maximal matches %S / %S @%d" s q threshold)
      expected got
  done

let test_first_occurrence () =
  let rng = Bioseq.Rng.create 45 in
  for _ = 1 to 40 do
    let s = Oracles.random_string rng 2 (5 + Bioseq.Rng.int rng 40) in
    let t = build s in
    for _ = 1 to 10 do
      let pat = Oracles.random_string rng 2 (1 + Bioseq.Rng.int rng 6) in
      Alcotest.(check (option int)) "first occurrence"
        (Oracles.first_occurrence s pat)
        (ST.first_occurrence t (codes_of pat))
    done
  done

let suite =
  [ Alcotest.test_case "contains: all substrings (adversarial)" `Quick
      test_adversarial_contains
  ; Alcotest.test_case "contains: absent patterns" `Quick test_adversarial_absent
  ; Alcotest.test_case "leaf/node counts" `Quick test_counts
  ; Alcotest.test_case "occurrences vs oracle" `Quick test_occurrences_random
  ; Alcotest.test_case "matching statistics vs oracle" `Quick test_ms_random
  ; Alcotest.test_case "maximal matches vs oracle" `Quick test_maximal_matches
  ; Alcotest.test_case "first occurrence vs oracle" `Quick test_first_occurrence
  ]
