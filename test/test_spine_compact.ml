(* The compact Section 5 layout must carry exactly the structure the
   independent hashtable store builds (links, ribs, extribs), answer
   searches identically, and keep its own space accounting sane. *)

module H = Experiments.Hashtable_store
module HQ = Spine.Search.Make (H)
module HM = Spine.Matcher.Make (H)
module HS = Spine.Stats.Make (H)
module C = Spine.Compact
module CS = Spine.Compact_store
module E = Spine.Engine

let link t node = CS.(link_dest t node, link_lel t node)
let rib = CS.find_rib

let byte = Bioseq.Alphabet.byte

let check_parity rng seq =
  let alphabet = Bioseq.Packed_seq.alphabet seq in
  let n = Bioseq.Packed_seq.length seq in
  let s = Bioseq.Packed_seq.sub_string seq ~pos:0 ~len:(min 40 n) in
  let h = H.of_seq seq in
  let cs = C.of_seq seq in
  let c = C.engine cs in
  (* structure-level parity, edge for edge *)
  Alcotest.(check int) "node count" (H.length h + 1) (E.node_count c);
  for node = 0 to n do
    if node > 0 then
      Alcotest.(check (pair int int)) (Printf.sprintf "link(%d) of %S" node s)
        (H.link_dest h node, H.link_lel h node) (link cs node);
    for code = 0 to Bioseq.Alphabet.separator alphabet do
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "rib(%d,%d) of %S" node code s)
        (H.find_rib h node code) (rib cs node code)
    done;
    let flat = Option.map (fun (d, pt, prt, a) -> [ d; pt; prt; a ]) in
    Alcotest.(check (option (list int)))
      (Printf.sprintf "extrib(%d) of %S" node s)
      (flat (H.find_extrib h node))
      (flat (Spine.Compact_store.find_extrib cs node))
  done;
  let hm = HS.label_maxima h and cm = E.label_maxima c in
  Alcotest.(check (triple int int int)) ("label maxima of " ^ s)
    (hm.Spine.Stats.max_pt, hm.Spine.Stats.max_lel, hm.Spine.Stats.max_prt)
    (cm.E.max_pt, cm.E.max_lel, cm.E.max_prt);
  Alcotest.(check (array int)) ("rib distribution of " ^ s)
    (HS.rib_distribution h) (E.rib_distribution c);
  Alcotest.(check (array int)) ("link histogram of " ^ s)
    (HS.link_histogram h ~buckets:8) (E.link_histogram c ~buckets:8);
  (* search parity: substrings of the text, half of them with one code
     replaced (often absent) *)
  let text_code () = Bioseq.Packed_seq.get seq (Bioseq.Rng.int rng n) in
  for _ = 1 to 40 do
    let len = 1 + Bioseq.Rng.int rng (min 8 n) in
    let pos = Bioseq.Rng.int rng (n - len + 1) in
    let codes = Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)) in
    if Bioseq.Rng.int rng 2 = 0 then codes.(Bioseq.Rng.int rng len) <- text_code ();
    Alcotest.(check (list int)) (Printf.sprintf "occurrences in %S" s)
      (HQ.occurrences_pattern h (Bioseq.Packed_seq.pattern seq codes))
      (Codes.occurrences c codes)
  done;
  (* matching parity *)
  let q =
    Bioseq.Packed_seq.of_codes alphabet
      (Array.init (10 + Bioseq.Rng.int rng 40) (fun _ -> text_code ()))
  in
  Alcotest.(check (array int)) ("ms parity on " ^ s)
    (fst (HM.matching_statistics h q)) (fst (E.matching_statistics c q))

let check_string_parity rng s = check_parity rng (Bioseq.Packed_seq.of_string byte s)

let test_parity_random () =
  let rng = Bioseq.Rng.create 77 in
  List.iter (check_string_parity rng) Oracles.adversarial;
  for _ = 1 to 20 do
    check_string_parity rng
      (Oracles.random_string rng 3 (20 + Bioseq.Rng.int rng 150))
  done;
  (* wider alphabet exercises the wide RT4 and row migrations *)
  for _ = 1 to 10 do
    check_string_parity rng
      (Oracles.random_string rng 10 (50 + Bioseq.Rng.int rng 200))
  done;
  (* fanouts above the LT's 5-bit field (an RT4 row of a large
     alphabet) go through the overflow table *)
  for _ = 1 to 3 do
    check_string_parity rng
      (Oracles.random_string rng 90 (300 + Bioseq.Rng.int rng 300))
  done;
  (* 5..8 symbols take 3-bit character labels, some of which straddle
     two bytes of a row's label area *)
  for size = 5 to 8 do
    let alphabet =
      Bioseq.Alphabet.make (String.init size (fun i -> Char.chr (97 + i)))
    in
    check_parity rng
      (Bioseq.Packed_seq.of_string alphabet
         (Oracles.random_string rng size (100 + Bioseq.Rng.int rng 200)))
  done;
  (* multi-string DNA texts label ribs with the separator code, which
     needs the separator layout's wider character labels *)
  let dna = Bioseq.Alphabet.dna in
  let sep = Bioseq.Alphabet.separator dna in
  for _ = 1 to 10 do
    let codes =
      Array.init (40 + Bioseq.Rng.int rng 150) (fun _ ->
          if Bioseq.Rng.int rng 12 = 0 then sep else Bioseq.Rng.int rng 4)
    in
    check_parity rng (Bioseq.Packed_seq.of_codes dna codes)
  done

let test_space_accounting () =
  let rng = Bioseq.Rng.create 78 in
  let s = Oracles.random_string rng 4 4000 in
  let c = C.of_string byte s in
  let sp = CS.space c in
  Alcotest.(check int) "LT bytes = 6 per node (Figure 5's {LD/PTR, LEL})"
    (6 * (4000 + 1)) sp.CS.lt_bytes;
  if sp.CS.rt_bytes <= 0 then Alcotest.fail "no rib rows allocated";
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
      c.CS.live_rows.(table)
  done

let test_overflow_labels () =
  (* force labels beyond 65534: a unary string of length > 70000 has
     LELs growing to n - 1 *)
  let n = 70_000 in
  let s = String.make n 'a' in
  let c = C.of_string byte s in
  let ce = C.engine c in
  Alcotest.(check int) "max lel with overflow"
    (HS.label_maxima (H.of_string byte s)).Spine.Stats.max_lel
    (E.label_maxima ce).E.max_lel;
  if CS.overflow_count c = 0 then Alcotest.fail "expected overflow entries";
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

(* Only a [~separator:true] layout has label bits for the separator:
   anywhere else it is refused before the store changes, rather than
   stored masked (as code 0 on DNA). *)
let test_separator_rejected () =
  let dna = Bioseq.Alphabet.dna in
  let c = C.of_string dna "acgt" in
  (match C.append c (Bioseq.Alphabet.separator dna) with
   | () -> Alcotest.fail "separator appended to a plain DNA store"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "store unchanged" 4 (CS.length c);
  Alcotest.(check (list int)) "still answers" [ 1 ]
    (Codes.occurrences (C.engine c) [| 1; 2 |]);
  let g = CS.create ~separator:true dna in
  String.iter (fun ch -> C.append g (Bioseq.Alphabet.encode dna ch)) "ac";
  C.append g (Bioseq.Alphabet.separator dna);
  Alcotest.(check int) "separator layout takes it" 3 (CS.length g)

(* One node given 100 ribs with labels above 0xFFFF: the fanout
   outgrows the LT's 5-bit field and slots 60 and up take the wide
   keys, through every row migration, and each freed row leaves no
   overflow entry behind. *)
let test_wide_rows () =
  let c = C.of_string byte "xy" in
  let node = 2 in
  for code = 0 to 99 do
    CS.add_rib c node ~code ~dest:1 ~pt:(70_000 + code);
    for k = 0 to code do
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "rib %d after %d" k code)
        (Some (1, 70_000 + k)) (rib c node k)
    done
  done;
  Alcotest.(check int) "fanout" 100
    (CS.fold_ribs c node ~init:0 ~f:(fun n _ _ _ -> n + 1));
  (* 100 PTs and the fanout; the RT1..RT3 rows it passed through were
     freed with their entries *)
  Alcotest.(check int) "overflow entries" 101 (CS.overflow_count c)

(* Row sizes are part of every persistent file: [4 + 6k] bytes of LD
   and slots, [k] packed labels of 1, 2, 3, 4 or 8 bits, a 2-byte PRT,
   with [k] = 1, 2, 3 and max(4, size) slots. *)
let test_row_layouts () =
  let check ?separator name expect alphabet =
    Alcotest.(check (array int)) name expect
      (CS.create ?separator alphabet).CS.lo.CS.row_bytes
  in
  check "dna" [| 13; 19; 25; 31 |] Bioseq.Alphabet.dna;
  check "protein" [| 13; 20; 27; 146 |] Bioseq.Alphabet.protein;
  check "byte" [| 13; 20; 27; 1791 |] byte;
  (* 3-bit labels: 7 of them fill 21 bits, 3 bytes *)
  check "7 symbols" [| 13; 19; 26; 51 |] (Bioseq.Alphabet.make "abcdefg");
  (* in memory only: 5 codes with the separator, 3 bits each *)
  check ~separator:true "dna with the separator" [| 13; 19; 26; 38 |]
    Bioseq.Alphabet.dna

(* [n] characters of the ECO corpus profile, the benchmark's text *)
let eco_text n =
  let c = Bioseq.Corpus.eco in
  Bioseq.Synthetic.genomic ~profile:c.Bioseq.Corpus.profile
    c.Bioseq.Corpus.alphabet (Bioseq.Rng.create c.Bioseq.Corpus.seed) n

(* The per-character build path allocates no closure: [of_seq]
   allocates at most 12 minor words per appended character (the
   option results of the rib and extrib lookups remain).  A partially
   applied label setter, a local recursive rib search or a local label
   merge on that path costs several times as much. *)
let test_build_allocation () =
  let n = 20_000 in
  let seq = eco_text n in
  let before = Gc.minor_words () in
  let c = C.of_seq seq in
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  ignore (Sys.opaque_identity c);
  if words > 12. then
    Alcotest.failf "%.1f minor words per character, more than 12" words

(* [of_seq] and [of_string] size the Link Table for every node, the
   root included, so no append regrows it: the table holds exactly one
   buffer of [6 (n + 1)] bytes, not the doubled one a regrowth on the
   last append leaves. *)
let test_lt_presized () =
  let n = 5_000 in
  let bytes = 6 * (n + 1) in
  let check what c =
    Alcotest.(check int) (what ^ ": LT bytes in use") bytes
      (CS.space c).CS.lt_bytes;
    (* the table's record (header and two fields), then the buffer's
       header and its bytes with OCaml's padding byte, in words *)
    Alcotest.(check int) (what ^ ": LT words") (3 + 1 + ((bytes + 8) / 8))
      (Obj.reachable_words (Obj.repr c.CS.lt))
  in
  let seq = eco_text n in
  check "of_seq" (C.of_seq seq);
  check "of_string"
    (C.of_string Bioseq.Alphabet.dna
       (Bioseq.Packed_seq.sub_string seq ~pos:0 ~len:n))

let suite =
  [ Alcotest.test_case "compact/reference parity" `Quick test_parity_random
  ; Alcotest.test_case "space accounting" `Quick test_space_accounting
  ; Alcotest.test_case "label overflow table" `Quick test_overflow_labels
  ; Alcotest.test_case "online construction usable at prefixes" `Quick
      test_online_equals_batch
  ; Alcotest.test_case "overflowed LELs in the occurrence scan" `Quick
      test_overflow_scan
  ; Alcotest.test_case "separator code rejected without its layout" `Quick
      test_separator_rejected
  ; Alcotest.test_case "wide RT4 rows keep their overflow labels" `Quick
      test_wide_rows
  ; Alcotest.test_case "row layouts of persisted alphabets" `Quick
      test_row_layouts
  ; Alcotest.test_case "build allocates no closure per character" `Quick
      test_build_allocation
  ; Alcotest.test_case "Link Table presized for every node" `Quick
      test_lt_presized
  ]
