(* The compact Section 5 layout must behave identically to the
   reference index: same structure (links, ribs, extribs), same search
   answers, same statistics — plus its own space-accounting sanity. *)

module I = Spine.Index
module C = Spine.Compact
module E = Spine.Engine

let byte = Bioseq.Alphabet.byte

let check_parity rng sigma s =
  let i = I.engine (I.of_string byte s) in
  let c = C.engine (C.of_string byte s) in
  (* structure-level parity via statistics *)
  Alcotest.(check int) "node count" (E.node_count i) (E.node_count c);
  let im = E.label_maxima i and cm = E.label_maxima c in
  Alcotest.(check (triple int int int)) ("label maxima of " ^ s)
    (im.E.max_pt, im.E.max_lel, im.E.max_prt)
    (cm.E.max_pt, cm.E.max_lel, cm.E.max_prt);
  Alcotest.(check (array int)) ("rib distribution of " ^ s)
    (E.rib_distribution i) (E.rib_distribution c);
  Alcotest.(check (array int)) ("link histogram of " ^ s)
    (E.link_histogram i ~buckets:8) (E.link_histogram c ~buckets:8);
  (* search parity on random patterns *)
  for _ = 1 to 40 do
    let pat = Oracles.random_string rng sigma (1 + Bioseq.Rng.int rng 8) in
    let codes = Array.init (String.length pat) (fun k -> Char.code pat.[k]) in
    Alcotest.(check (list int)) (Printf.sprintf "occurrences %S in %S" pat s)
      (Codes.occurrences i codes) (Codes.occurrences c codes)
  done;
  (* matching parity *)
  let q =
    Bioseq.Packed_seq.of_string byte
      (Oracles.random_string rng sigma (10 + Bioseq.Rng.int rng 40))
  in
  let ims, _ = E.matching_statistics i q in
  let cms, _ = E.matching_statistics c q in
  Alcotest.(check (array int)) ("ms parity on " ^ s) ims cms

let test_parity_random () =
  let rng = Bioseq.Rng.create 77 in
  List.iter (fun s -> check_parity rng 3 s) Oracles.adversarial;
  for _ = 1 to 20 do
    let s = Oracles.random_string rng 3 (20 + Bioseq.Rng.int rng 150) in
    check_parity rng 3 s
  done;
  (* wider alphabet exercises the wide RT4 and row migrations *)
  for _ = 1 to 10 do
    let s = Oracles.random_string rng 10 (50 + Bioseq.Rng.int rng 200) in
    check_parity rng 10 s
  done

let test_space_accounting () =
  let rng = Bioseq.Rng.create 78 in
  let s = Oracles.random_string rng 4 4000 in
  let c = C.of_string byte s in
  let sp = C.space c in
  Alcotest.(check int) "LT bytes = 6 per node (Figure 5's {LD/PTR, LEL})"
    (6 * (4000 + 1)) sp.C.lt_bytes;
  if sp.C.rt_bytes <= 0 then Alcotest.fail "no rib rows allocated";
  (* live rows must equal the number of nodes with each fanout *)
  let dist = E.rib_distribution (C.engine c) in
  let nodes_with_fanout f =
    if f < 4 then dist.(f)
    else Array.fold_left ( + ) 0 (Array.sub dist 4 (Array.length dist - 4))
  in
  for table = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "live rows in RT%d" (table + 1))
      (nodes_with_fanout (table + 1))
      (C.live_rows c table)
  done

let test_overflow_labels () =
  (* force labels beyond 65534: a unary string of length > 70000 has
     LELs growing to n - 1 *)
  let n = 70_000 in
  let s = String.make n 'a' in
  let c = C.of_string byte s in
  let i = I.engine (I.of_string byte s) in
  let ce = C.engine c in
  Alcotest.(check int) "max lel with overflow"
    (E.label_maxima i).E.max_lel (E.label_maxima ce).E.max_lel;
  if C.overflow_count c = 0 then Alcotest.fail "expected overflow entries";
  (* search still exact *)
  let pat = Array.make 120 (Char.code 'a') in
  Alcotest.(check int) "occurrence count"
    (n - 120 + 1) (List.length (Codes.occurrences ce pat))

(* A pattern longer than the sentinel: every LEL that reaches it is
   stored as 0xFFFF, so the occurrence scan must resolve the sentinel
   through the overflow table before comparing with the pattern
   length — on the in-memory and on the paged byte table alike. *)
let test_overflow_scan () =
  let n = 70_000 and m = 65_600 in
  let seq = Bioseq.Packed_seq.of_string byte (String.make n 'a') in
  let pat = Array.make m (Char.code 'a') in
  let check what e =
    Alcotest.(check int) (what ^ ": occurrences of a^65600 in a^70000")
      4_401 (List.length (Codes.occurrences e pat))
  in
  check "compact" (C.engine (C.of_seq seq));
  check "paged" (Spine.Disk.engine (Spine.Disk.build seq))

let test_online_equals_batch () =
  let rng = Bioseq.Rng.create 79 in
  for _ = 1 to 10 do
    let s = Oracles.random_string rng 3 (50 + Bioseq.Rng.int rng 100) in
    (* build character by character, checking usability at every prefix *)
    let c = C.create byte in
    let e = C.engine c in
    String.iteri
      (fun k ch ->
        C.append c (Char.code ch);
        if k mod 17 = 0 then begin
          let prefix = String.sub s 0 (k + 1) in
          let pat_len = min 3 (k + 1) in
          let pat = String.sub prefix (k + 1 - pat_len) pat_len in
          let codes =
            Array.init pat_len (fun j -> Char.code pat.[j])
          in
          if Codes.occurrences e codes = [] then
            Alcotest.failf "online index missing %S at prefix %d" pat k
        end)
      s;
    Alcotest.(check int) "final length" (String.length s) (E.length e)
  done

let suite =
  [ Alcotest.test_case "compact/reference parity" `Quick test_parity_random
  ; Alcotest.test_case "space accounting" `Quick test_space_accounting
  ; Alcotest.test_case "label overflow table" `Quick test_overflow_labels
  ; Alcotest.test_case "online construction usable at prefixes" `Quick
      test_online_equals_batch
  ; Alcotest.test_case "overflowed LELs in the occurrence scan" `Quick
      test_overflow_scan
  ]
