(* Suffix array baseline vs the naive oracles. *)

module SA = Suffix_array

let byte = Bioseq.Alphabet.byte

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

let test_sorted_order () =
  List.iter
    (fun s ->
      let sa = SA.of_string byte s in
      let n = String.length s in
      Alcotest.(check int) "length" n (SA.length sa);
      (* successive suffixes must be in strictly increasing order *)
      for r = 1 to n - 1 do
        let a = SA.suffix_at sa (r - 1) and b = SA.suffix_at sa r in
        let sa_str = String.sub s a (n - a) and sb_str = String.sub s b (n - b) in
        if compare sa_str sb_str >= 0 then
          Alcotest.failf "unsorted at rank %d of %S" r s
      done;
      (* permutation check *)
      let seen = Array.make n false in
      for r = 0 to n - 1 do seen.(SA.suffix_at sa r) <- true done;
      if Array.exists not seen then Alcotest.failf "not a permutation: %S" s)
    Oracles.adversarial

let test_lcp () =
  List.iter
    (fun s ->
      let sa = SA.of_string byte s in
      let n = String.length s in
      let lcp = SA.lcp sa in
      for r = 1 to n - 1 do
        let a = SA.suffix_at sa (r - 1) and b = SA.suffix_at sa r in
        let rec common k =
          if a + k < n && b + k < n && s.[a + k] = s.[b + k] then common (k + 1)
          else k
        in
        Alcotest.(check int) (Printf.sprintf "lcp rank %d of %S" r s)
          (common 0) lcp.(r)
      done)
    Oracles.adversarial

let test_occurrences () =
  let rng = Bioseq.Rng.create 51 in
  List.iter
    (fun s ->
      let sa = SA.of_string byte s in
      for _ = 1 to 30 do
        let pat = Oracles.random_string rng 3 (1 + Bioseq.Rng.int rng 6) in
        Alcotest.(check (list int))
          (Printf.sprintf "occurrences of %S in %S" pat s)
          (Oracles.occurrences s pat)
          (SA.occurrences sa (codes_of pat))
      done)
    Oracles.adversarial;
  for _ = 1 to 20 do
    let s = Oracles.random_string rng 3 (10 + Bioseq.Rng.int rng 80) in
    let sa = SA.of_string byte s in
    for _ = 1 to 20 do
      let pat = Oracles.random_string rng 3 (1 + Bioseq.Rng.int rng 7) in
      Alcotest.(check (list int)) "random occurrences"
        (Oracles.occurrences s pat)
        (SA.occurrences sa (codes_of pat))
    done
  done

let test_three_way_agreement () =
  (* suffix array, suffix tree and SPINE agree on every query *)
  let rng = Bioseq.Rng.create 52 in
  for _ = 1 to 15 do
    let s = Oracles.random_string rng 4 (30 + Bioseq.Rng.int rng 100) in
    let sa = SA.of_string byte s in
    let st = Suffix_tree.of_string byte s in
    let spine = Spine.Compact.engine (Spine.Compact.of_string byte s) in
    for _ = 1 to 20 do
      let pat = Oracles.random_string rng 4 (1 + Bioseq.Rng.int rng 8) in
      let codes = codes_of pat in
      let a = SA.occurrences sa codes in
      let b = Suffix_tree.occurrences st codes in
      let c = Codes.occurrences spine codes in
      Alcotest.(check (list int)) "sa = st" a b;
      Alcotest.(check (list int)) "sa = spine" a c
    done
  done

let suite =
  [ Alcotest.test_case "sorted suffix order" `Quick test_sorted_order
  ; Alcotest.test_case "Kasai LCP" `Quick test_lcp
  ; Alcotest.test_case "occurrences vs oracle" `Quick test_occurrences
  ; Alcotest.test_case "three-index agreement" `Quick test_three_way_agreement
  ]
