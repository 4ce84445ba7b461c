(* Property tests of the SPINE index against the naive oracles, on
   random strings over several alphabet sizes plus the adversarial
   menagerie. QCheck generators drive the randomised cases; they are
   registered as alcotest cases via QCheck_alcotest. *)

module I = Spine.Compact
let link t node = Spine.Compact_store.(link_dest t node, link_lel t node)
let rib = Spine.Compact_store.find_rib
module E = Spine.Engine

let byte = Bioseq.Alphabet.byte

let build s = I.of_string byte s
let engine s = I.engine (build s)

let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i])

(* --- deterministic checks reused by both qcheck and direct cases --- *)

let check_membership s =
  let e = engine s in
  let n = String.length s in
  (* all substrings present (no false negatives) *)
  for i = 0 to n - 1 do
    for len = 1 to n - i do
      let sub = String.sub s i len in
      if not (Codes.contains e (codes_of sub)) then
        failwith (Printf.sprintf "false negative: %S in %S" sub s)
    done
  done;
  true

let check_membership_random_patterns rng sigma s =
  let e = engine s in
  for _ = 1 to 50 do
    let pat = Oracles.random_string rng sigma (1 + Bioseq.Rng.int rng 8) in
    let expected = Oracles.contains s pat in
    let got = Codes.contains e (codes_of pat) in
    if expected <> got then
      failwith
        (Printf.sprintf "membership mismatch: %S in %S (oracle %b, spine %b)"
           pat s expected got)
  done;
  true

let check_first_occurrence rng sigma s =
  let e = engine s in
  for _ = 1 to 50 do
    let pat =
      if Oracles.coin rng && String.length s > 2 then begin
        let len = 1 + Bioseq.Rng.int rng (min 8 (String.length s)) in
        let p = Bioseq.Rng.int rng (String.length s - len + 1) in
        String.sub s p len
      end
      else Oracles.random_string rng sigma (1 + Bioseq.Rng.int rng 6)
    in
    let expected = Oracles.first_occurrence s pat in
    let got = Codes.first_occurrence e (codes_of pat) in
    if expected <> got then
      failwith
        (Printf.sprintf "first occurrence mismatch for %S in %S" pat s)
  done;
  true

let check_all_occurrences rng sigma s =
  let e = engine s in
  for _ = 1 to 40 do
    let pat =
      if Oracles.coin rng && String.length s > 2 then begin
        let len = 1 + Bioseq.Rng.int rng (min 6 (String.length s)) in
        let p = Bioseq.Rng.int rng (String.length s - len + 1) in
        String.sub s p len
      end
      else Oracles.random_string rng sigma (1 + Bioseq.Rng.int rng 5)
    in
    let expected = Oracles.occurrences s pat in
    let got = Codes.occurrences e (codes_of pat) in
    if expected <> got then
      failwith
        (Printf.sprintf "occurrences mismatch for %S in %S: [%s] vs [%s]"
           pat s
           (String.concat ";" (List.map string_of_int expected))
           (String.concat ";" (List.map string_of_int got)))
  done;
  true

let check_links s =
  (* every node's link must record the LET-suffix: length and first
     occurrence end, per the naive definition *)
  let t = build s in
  for i = 1 to String.length s do
    let lel, dest = Oracles.let_suffix s i in
    let got_dest, got_lel = link t i in
    if (lel, dest) <> (got_lel, got_dest) then
      failwith
        (Printf.sprintf
           "link mismatch at node %d of %S: oracle (dest %d, lel %d), \
            spine (dest %d, lel %d)"
           i s dest lel got_dest got_lel)
  done;
  true

let check_matching_statistics rng sigma s =
  let e = engine s in
  let q = Oracles.random_string rng sigma (5 + Bioseq.Rng.int rng 40) in
  let expected = Oracles.matching_statistics s q in
  let got, _ = E.matching_statistics e (Bioseq.Packed_seq.of_string byte q) in
  if expected <> got then
    failwith (Printf.sprintf "matching statistics mismatch: %S vs %S" s q);
  true

let check_maximal_matches rng sigma s =
  let e = engine s in
  let q = Oracles.random_string rng sigma (5 + Bioseq.Rng.int rng 40) in
  let threshold = 2 + Bioseq.Rng.int rng 3 in
  let expected = Oracles.maximal_matches s q threshold in
  let got, _ =
    E.maximal_matches e ~threshold (Bioseq.Packed_seq.of_string byte q)
  in
  let got =
    List.map (fun { E.query_end; length; data_ends } ->
        (query_end, length, data_ends)) got
  in
  if expected <> got then
    failwith
      (Printf.sprintf "maximal matches mismatch: %S vs %S @%d" s q threshold);
  true

let check_prefix_partition s =
  (* the index of a prefix must be the initial fragment of the index:
     identical links, ribs restricted to nodes/destinations within the
     prefix... SPINE's prefix-partitionability says the prefix index
     equals the truncation, so compare the prefix index against the full
     index restricted to the first k nodes. Edges pointing beyond node k
     in the full index were created later and do not exist in the prefix
     index; the property is that everything in the prefix index appears
     identically in the full one. *)
  let full = build s in
  let n = String.length s in
  let k = max 1 (n / 2) in
  let prefix = build (String.sub s 0 k) in
  for i = 1 to k do
    if link prefix i <> link full i then
      failwith (Printf.sprintf "prefix link mismatch at %d of %S" i s)
  done;
  for node = 0 to k do
    for code = 0 to 255 do
      match rib prefix node code with
      | Some (dest, pt) ->
        (* every prefix rib exists unchanged in the full index *)
        if rib full node code <> Some (dest, pt) then
          failwith (Printf.sprintf "prefix rib mismatch at %d of %S" node s)
      | None ->
        (* a rib present in the full index but absent in the prefix one
           must point beyond the prefix *)
        (match rib full node code with
         | Some (dest, _) when dest <= k ->
           failwith
             (Printf.sprintf "full index has early rib missing in prefix \
                              index at %d of %S" node s)
         | _ -> ())
    done
  done;
  true

(* The paper's target-node-buffer scan exactly as Section 4 describes
   it, kept here as an independent reference for the engine's scan: it
   reads every node's link field by field (no [scan_links]) and tests
   buffer membership by binary search on the sorted buffer. *)
module Binary_scan (S : Spine.Store_sig.S) = struct
  module Q = Spine.Search.Make (S)

  let end_nodes t p =
    match Q.find_first_pattern t p with
    | None -> []
    | Some first ->
      let len = Bioseq.Packed_seq.Pattern.length p in
      let buffer = Xutil.Int_vec.create () in
      Xutil.Int_vec.push buffer first;
      for node = first + 1 to S.length t do
        if
          S.link_lel t node >= len
          && Xutil.Int_vec.binary_search buffer (S.link_dest t node) <> None
        then Xutil.Int_vec.push buffer node
      done;
      Xutil.Int_vec.fold buffer ~init:[] ~f:(fun acc x -> x :: acc) |> List.rev
end

module Table_binary = Binary_scan (Experiments.Hashtable_store)
module Compact_binary = Binary_scan (Spine.Compact_store)
module Paged_binary = Binary_scan (Spine.Paged_store.P)

(* 8-byte pages split 6-byte LT entries across pages, and 4 frames make
   the scan's link reads evict the LT pages it is walking *)
let tiny_pages =
  { Spine.Disk.default_config with Spine.Disk.page_size = 8; frames = 4 }

let check_binary_scan rng sigma s =
  (* the paper's binary-search target-node-buffer formulation must give
     exactly the same end nodes as the store's own scan, on the
     hashtable, the compact and the paged store *)
  let table = Experiments.Hashtable_store.of_string byte s in
  let compact = build s in
  let disk = Spine.Disk.build ~config:tiny_pages (Bioseq.Packed_seq.of_string byte s) in
  let compact_e = I.engine compact in
  let disk_e = Spine.Disk.engine disk in
  for _ = 1 to 20 do
    let pat =
      if String.length s > 3 && Oracles.coin rng then begin
        let len = 1 + Bioseq.Rng.int rng (min 6 (String.length s)) in
        let p = Bioseq.Rng.int rng (String.length s - len + 1) in
        String.sub s p len
      end
      else Oracles.random_string rng sigma (1 + Bioseq.Rng.int rng 5)
    in
    let p = E.pattern compact_e (codes_of pat) in
    (* end nodes, shifted back by the pattern length to start positions *)
    let starts ends = List.map (fun e -> e - String.length pat) ends in
    if
      Table_binary.Q.occurrences_pattern table p
      <> starts (Table_binary.end_nodes table p)
    then
      failwith
        (Printf.sprintf "hashtable binary scan mismatch for %S in %S" pat s);
    if
      E.occurrences_pattern compact_e p
      <> starts (Compact_binary.end_nodes compact p)
    then
      failwith (Printf.sprintf "compact binary scan mismatch for %S in %S" pat s);
    if
      E.occurrences_pattern disk_e p
      <> starts (Paged_binary.end_nodes disk.store p)
    then
      failwith (Printf.sprintf "paged binary scan mismatch for %S in %S" pat s)
  done;
  true

let check_node_count s = E.node_count (engine s) = String.length s + 1

(* --- fixed adversarial cases --- *)

let test_adversarial name check () =
  List.iter
    (fun s ->
      if not (check s) then Alcotest.failf "%s failed on %S" name s)
    Oracles.adversarial

let test_adversarial_rng name check () =
  let rng = Bioseq.Rng.create 7 in
  List.iter
    (fun s ->
      if not (check rng 3 s) then Alcotest.failf "%s failed on %S" name s)
    Oracles.adversarial

(* --- qcheck properties --- *)

let arbitrary_string sigma max_len =
  let gen =
    QCheck.Gen.(
      map
        (fun (len, seed) ->
          let rng = Bioseq.Rng.create seed in
          Oracles.random_string rng sigma (1 + len))
        (pair (int_bound (max_len - 1)) (int_bound 1_000_000)))
  in
  QCheck.make ~print:(fun s -> s) gen

let qcheck_props =
  let mk name sigma max_len prop =
    QCheck.Test.make ~count:60 ~name (arbitrary_string sigma max_len) prop
  in
  let with_rng f s =
    let rng = Bioseq.Rng.create (Hashtbl.hash s) in
    f rng (max 2 (min 4 (String.length s))) s
  in
  [ mk "membership of all substrings (sigma=2)" 2 40 check_membership
  ; mk "membership of all substrings (sigma=4)" 4 40 check_membership
  ; mk "membership of random patterns" 3 60 (with_rng check_membership_random_patterns)
  ; mk "first occurrence (sigma=2)" 2 50 (with_rng check_first_occurrence)
  ; mk "first occurrence (sigma=8)" 8 50 (with_rng check_first_occurrence)
  ; mk "all occurrences (sigma=2)" 2 50 (with_rng check_all_occurrences)
  ; mk "all occurrences (sigma=4)" 4 50 (with_rng check_all_occurrences)
  ; mk "links record LET suffixes (sigma=2)" 2 35 check_links
  ; mk "links record LET suffixes (sigma=4)" 4 35 check_links
  ; mk "matching statistics (sigma=2)" 2 45 (with_rng check_matching_statistics)
  ; mk "matching statistics (sigma=4)" 4 45 (with_rng check_matching_statistics)
  ; mk "maximal matches (sigma=3)" 3 45 (with_rng check_maximal_matches)
  ; mk "prefix partitioning (sigma=2)" 2 40 check_prefix_partition
  ; mk "prefix partitioning (sigma=4)" 4 40 check_prefix_partition
  ; mk "node count = n + 1" 4 60 check_node_count
  ; mk "binary-search occurrence scan parity" 3 60 (with_rng check_binary_scan)
  ]

let suite =
  [ Alcotest.test_case "membership (adversarial)" `Quick
      (test_adversarial "membership" check_membership)
  ; Alcotest.test_case "links vs LET oracle (adversarial)" `Quick
      (test_adversarial "links" check_links)
  ; Alcotest.test_case "prefix partition (adversarial)" `Quick
      (test_adversarial "prefix" check_prefix_partition)
  ; Alcotest.test_case "occurrences (adversarial)" `Quick
      (test_adversarial_rng "occurrences" check_all_occurrences)
  ; Alcotest.test_case "matching statistics (adversarial)" `Quick
      (test_adversarial_rng "ms" check_matching_statistics)
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
