(** Ablations of the design choices DESIGN.md calls out. *)

(* Buffering policy (Section 6.2): the paper reads Figure 8's
   top-skewed link destinations as licensing a very simple strategy —
   "retain as much as possible of the top part of the Link Table in
   memory". The fair comparison is against a buffer manager with no
   recency tracking (FIFO): static pinning of the top of the LT should
   recover most of what LRU's recency tracking buys, at no bookkeeping
   cost. Measured on SPINE construction, whose upstream link-chain
   accesses are the traffic Figure 8 characterises. *)
let buffer_policy (cfg : Config.t) =
  let data =
    Data.load ~scale:cfg.Config.disk_scale (Bioseq.Corpus.find_exn "CEL")
  in
  let n = Bioseq.Packed_seq.length data in
  (* a pool well under the Link Table footprint, so upstream accesses
     genuinely contend with the growing tail *)
  let lt_pages = max 1 ((n + 1) * Spine.Compact_store.lt_entry_bytes / 4096) in
  let frames = max 16 (lt_pages / 4) in
  let run_with ~replacement ~pin_pages =
    let config =
      { Spine.Disk.default_config with
        Spine.Disk.frames; replacement; pin_top_lt_pages = pin_pages }
    in
    let d = Spine.Disk.build ~config data in
    let pool_stats = Pagestore.Buffer_pool.stats d.Spine.Disk.pool in
    let hits = pool_stats.Pagestore.Buffer_pool.hits in
    let misses = pool_stats.Pagestore.Buffer_pool.misses in
    ( Spine.Disk.simulated_seconds d,
      float_of_int hits /. float_of_int (max 1 (hits + misses)) )
  in
  let row label replacement pin_pages =
    let secs, hit_rate = run_with ~replacement ~pin_pages in
    [ label; Report.Table.fmt_float secs; Report.Table.fmt_pct hit_rate ]
  in
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Ablation: construction buffering policy (CEL, %d frames, \
          scale %g)" frames cfg.Config.disk_scale)
    ~headers:[ "Policy"; "Sim time (s)"; "Pool hit rate" ]
    [ row "FIFO" `Fifo 0
    ; row "FIFO + pin top of LT" `Fifo (frames / 4)
    ; row "LRU" `Lru 0
    ; row "LRU + pin top of LT" `Lru (frames / 4)
    ]
    ~note:
      "Paper: pinning the top of the Link Table is a sufficient simple \
       policy. Against a bookkeeping-free manager (FIFO) the pin \
       recovers most of LRU's advantage; LRU itself already exploits \
       the same Figure 8 skew dynamically."

(* Node layout (Section 5): the packed LT/RT layout vs the naive
   hashtable-of-records store, on construction time, search time, and
   space. *)
let layout (cfg : Config.t) =
  let seq = Data.load ~scale:cfg.Config.scale (Bioseq.Corpus.find_exn "ECO") in
  let query =
    Data.homologous_query ~scale:cfg.Config.scale
      ~data_corpus:(Bioseq.Corpus.find_exn "ECO")
      (Bioseq.Corpus.find_exn "CEL")
  in
  let n = Bioseq.Packed_seq.length seq in
  let table_idx, table_build =
    Xutil.Stopwatch.time (fun () -> Hashtable_store.of_seq seq)
  in
  let compact_idx, compact_build =
    Xutil.Stopwatch.time (fun () -> Spine.Compact.of_seq seq)
  in
  let (_, _), table_search =
    let module M = Spine.Matcher.Make (Hashtable_store) in
    Xutil.Stopwatch.time (fun () ->
        M.maximal_matches table_idx ~threshold:cfg.Config.threshold query)
  in
  let (_, _), compact_search =
    Xutil.Stopwatch.time (fun () ->
        Spine.Engine.maximal_matches (Spine.Compact.engine compact_idx)
          ~threshold:cfg.Config.threshold query)
  in
  let table_bpc =
    float_of_int (Hashtable_store.model_bytes table_idx) /. float_of_int n
  in
  Report.Table.print
    ~title:
      (Printf.sprintf "Ablation: node layout (ECO, scale %g)" cfg.Config.scale)
    ~headers:[ "Layout"; "Build (s)"; "Match (s)"; "Bytes/char" ]
    [ [ "hashtable store"; Report.Table.fmt_float table_build;
        Report.Table.fmt_float table_search;
        Report.Table.fmt_float table_bpc ^ " (model)" ]
    ; [ "compact LT/RT (Section 5)"; Report.Table.fmt_float compact_build;
        Report.Table.fmt_float compact_search;
        Report.Table.fmt_float (Spine.Compact_store.bytes_per_char compact_idx) ]
    ; [ "naive record/node (Table 2)"; "-"; "-";
        Report.Table.fmt_float
          (Spine.Space.naive_node_bytes (Bioseq.Packed_seq.alphabet seq)) ]
    ]
    ~note:
      "The Section 5 layout wins on space without giving up construction \
       or search speed — the paper's 'smaller node sizes improve times \
       too' observation."

(* Occurrence resolution (Section 4): deferred single-scan batching of
   all matches vs an immediate backbone scan per match. *)
let scan (cfg : Config.t) =
  let seq = Data.load ~scale:cfg.Config.scale (Bioseq.Corpus.find_exn "ECO") in
  let query =
    Data.homologous_query ~scale:cfg.Config.scale
      ~data_corpus:(Bioseq.Corpus.find_exn "ECO")
      (Bioseq.Corpus.find_exn "CEL")
  in
  let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let threshold = max 12 (cfg.Config.threshold - 6) in
  let (m1, _), deferred =
    Xutil.Stopwatch.time (fun () ->
        Spine.Engine.maximal_matches e ~threshold query)
  in
  let (m2, _), immediate =
    Xutil.Stopwatch.time (fun () ->
        Spine.Engine.maximal_matches ~immediate:true e ~threshold query)
  in
  assert (List.length m1 = List.length m2);
  Report.Table.print
    ~title:
      (Printf.sprintf
         "Ablation: occurrence resolution (ECO/CEL, %d matches, scale %g)"
         (List.length m1) cfg.Config.scale)
    ~headers:[ "Strategy"; "Match (s)" ]
    [ [ "deferred batched scan (paper)"; Report.Table.fmt_float deferred ]
    ; [ "immediate scan per match"; Report.Table.fmt_float immediate ]
    ]
    ~note:
      "The paper defers occurrence resolution to one final sequential \
       backbone scan shared by all matches; per-match scanning pays one \
       backbone traversal each."

let run cfg =
  buffer_policy cfg;
  layout cfg;
  scan cfg
