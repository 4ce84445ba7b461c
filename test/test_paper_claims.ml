(* The paper's evaluation claims, encoded as deterministic regression
   tests (counts, sizes, distributions — never wall time, which would
   flake in CI). Each test names the claim it pins. These run at small
   scale; the full-scale versions are bench/main.exe. *)

let scale = 0.005

let genome name = Experiments.Data.load ~scale (Option.get (Bioseq.Corpus.find name))

let homologous data_name query_name =
  Experiments.Data.homologous_query ~scale
    ~data_corpus:(Option.get (Bioseq.Corpus.find data_name))
    (Option.get (Bioseq.Corpus.find query_name))

(* Section 5 / space experiment: SPINE beats the suffix tree model on
   space; node count is exactly n + 1 while the tree approaches 2n. *)
let test_space_claim () =
  let seq = genome "ECO" in
  let n = Bioseq.Packed_seq.length seq in
  let spine_idx = Spine.Compact.of_seq seq in
  let st = Suffix_tree.build seq in
  let spine_bpc = Spine.Compact_store.bytes_per_char spine_idx in
  let st_bpc = Suffix_tree.model_bytes_per_char st in
  if spine_bpc >= st_bpc then
    Alcotest.failf "SPINE %.2f B/char must beat ST %.2f" spine_bpc st_bpc;
  Alcotest.(check int) "nodes = n + 1" (n + 1)
    (Spine.Engine.node_count (Spine.Compact.engine spine_idx));
  if Suffix_tree.node_count st <= n + 1 then
    Alcotest.fail "suffix tree should exceed SPINE's node count"

(* Table 4: rib density in the paper's band, decaying with fanout *)
let test_rib_distribution_claim () =
  List.iter
    (fun name ->
      let e = Spine.Compact.engine (Spine.Compact.of_seq (genome name)) in
      let dist = Spine.Engine.rib_distribution e in
      let total = Array.fold_left ( + ) 0 dist in
      let frac f = float_of_int dist.(f) /. float_of_int total in
      let with_edges = 1.0 -. frac 0 in
      if with_edges < 0.18 || with_edges > 0.42 then
        Alcotest.failf "%s: %.1f%% of nodes carry edges, outside the band"
          name (100.0 *. with_edges);
      if not (frac 1 > frac 2 && frac 2 > frac 3) then
        Alcotest.failf "%s: fanout distribution does not decay" name)
    [ "ECO"; "HC21" ]

(* Table 3: label maxima far below the 2-byte limit *)
let test_label_claim () =
  List.iter
    (fun name ->
      let idx = Spine.Compact.of_seq (genome name) in
      let m = Spine.Engine.label_maxima (Spine.Compact.engine idx) in
      if m.Spine.Engine.max_lel >= 65_535 then
        Alcotest.failf "%s: LEL exceeds 2-byte labels" name;
      Alcotest.(check int) "no overflow entries needed" 0
        (Spine.Compact_store.overflow_count idx))
    [ "ECO"; "CEL" ]

(* Table 6 / Section 4.1: set-basis processing checks fewer suffixes *)
let test_nodes_checked_claim () =
  let data = genome "CEL" in
  let query = homologous "CEL" "ECO" in
  let spine = Spine.Compact.engine (Spine.Compact.of_seq data) in
  let st = Suffix_tree.build data in
  let m1, s1 = Spine.Engine.maximal_matches spine ~threshold:20 query in
  let m2, s2 = Suffix_tree.maximal_matches st ~threshold:20 query in
  Alcotest.(check int) "identical match counts" (List.length m2)
    (List.length m1);
  if s1.Spine.Engine.nodes_checked >= s2.Suffix_tree.nodes_checked then
    Alcotest.failf "SPINE checked %d nodes, ST %d — SPINE must check fewer"
      s1.Spine.Engine.nodes_checked s2.Suffix_tree.nodes_checked;
  if s1.Spine.Engine.suffixes_checked >= s2.Suffix_tree.suffixes_checked then
    Alcotest.fail "SPINE must dispatch fewer suffix candidates"

(* Figure 8: link destinations skew to the top, monotone decay *)
let test_link_distribution_claim () =
  let e = Spine.Compact.engine (Spine.Compact.of_seq (genome "CEL")) in
  let hist = Spine.Engine.link_histogram e ~buckets:10 in
  let total = Array.fold_left ( + ) 0 hist in
  if float_of_int hist.(0) /. float_of_int total < 0.30 then
    Alcotest.fail "top decile should hold at least 30% of links";
  for b = 1 to 9 do
    if hist.(b) > hist.(b - 1) then
      Alcotest.failf "histogram not monotone at bucket %d" b
  done

(* Figure 7 / Table 7: under the same buffer budget, SPINE's disk
   construction issues fewer device I/Os than the suffix tree *)
let test_disk_io_claim () =
  let seq = genome "ECO" in
  let frames =
    max 32 (2 * Bioseq.Packed_seq.length seq * 16 / 4096 / 4)
  in
  let config = { Spine.Disk.default_config with Spine.Disk.frames } in
  let spine = Spine.Disk.build ~config seq in
  let st = Experiments.Disk_util.build_st_on_disk ~config seq in
  let ios d =
    let s = Pagestore.Device.stats d in
    s.Pagestore.Device.reads + s.Pagestore.Device.writes
  in
  let spine_ios = ios spine.Spine.Disk.device in
  let st_ios = ios st.Experiments.Disk_util.device in
  if spine_ios >= st_ios then
    Alcotest.failf "SPINE %d I/Os vs ST %d — SPINE must do fewer"
      spine_ios st_ios

(* Figure 6: the memory-budget crossover — SPINE fits everywhere the
   tree fits, and strictly more *)
let test_memory_budget_claim () =
  let seq = genome "HC19" in
  let n = float_of_int (Bioseq.Packed_seq.length seq) in
  let spine_idx = Spine.Compact.of_seq seq in
  let st = Suffix_tree.build seq in
  let spine_peak = Spine.Compact_store.bytes_per_char spine_idx *. n *. 1.05 in
  let st_peak = Suffix_tree.model_bytes_per_char st *. n *. 1.25 in
  (* the paper's ~30% headroom: a budget exists that admits SPINE and
     rejects ST *)
  let budget = (spine_peak +. st_peak) /. 2.0 in
  Alcotest.(check bool) "SPINE fits" true (spine_peak <= budget);
  Alcotest.(check bool) "ST does not" true (st_peak > budget);
  if st_peak /. spine_peak < 1.2 then
    Alcotest.fail "expected at least ~20% space headroom for SPINE"

(* Section 4: batched dictionary search equals one-by-one search *)
let test_batch_search () =
  let seq = genome "ECO" in
  let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let rng = Bioseq.Rng.create 301 in
  let patterns =
    List.init 30 (fun _ ->
        let len = 2 + Bioseq.Rng.int rng 10 in
        let pos =
          Bioseq.Rng.int rng (Bioseq.Packed_seq.length seq - len)
        in
        if Oracles.coin rng then
          Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k))
        else Array.init len (fun _ -> Bioseq.Rng.int rng 4))
  in
  let batched = Codes.occurrences_many e patterns in
  List.iteri
    (fun i (pat, got) ->
      Alcotest.(check (list int)) (Printf.sprintf "pattern %d" i)
        (Codes.occurrences e pat) got)
    (List.combine patterns batched)

let suite =
  [ Alcotest.test_case "space: SPINE smaller than ST, nodes = n+1" `Slow
      test_space_claim
  ; Alcotest.test_case "Table 4 band: rib density ~30%, decaying" `Slow
      test_rib_distribution_claim
  ; Alcotest.test_case "Table 3: labels fit 2 bytes" `Slow test_label_claim
  ; Alcotest.test_case "Table 6: fewer nodes and suffixes checked" `Slow
      test_nodes_checked_claim
  ; Alcotest.test_case "Figure 8: top-skewed monotone links" `Slow
      test_link_distribution_claim
  ; Alcotest.test_case "Figure 7: fewer disk I/Os" `Slow test_disk_io_claim
  ; Alcotest.test_case "Figure 6: memory-budget headroom" `Slow
      test_memory_budget_claim
  ; Alcotest.test_case "batched dictionary search" `Quick test_batch_search
  ]
