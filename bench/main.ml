(* Benchmark entry point.

   Two layers, both emitted to stdout:

   1. The experiment harness regenerates every table and figure of the
      paper's evaluation section (Tables 2-7, Figures 6-8, plus the
      Section 5 space accounting, the Section 5.2 protein runs and the
      ablations). `bench/main.exe table5` runs a single experiment;
      no arguments runs everything.  `micro` runs only the
      micro-benchmarks, `micro:packed` (or `micro:pool`, `micro:instr`)
      only one family, and either combines with experiment names.

   2. One Bechamel micro-benchmark group per table/figure, measuring
      the kernel operation each experiment times (construction,
      matching, disk construction, occurrence scans), with proper
      OLS-estimated per-run costs.

   Scales are modest by default so the full run finishes in minutes;
   use bin/experiments_main.exe (or SPINE_SCALE / SPINE_DISK_SCALE) for
   full-scale runs. *)

open Bechamel
open Toolkit

let bench_scale = 0.01      (* corpus fraction for micro-bench inputs *)

(* A malformed scale is an operator mistake worth a clear message, not
   a Failure backtrace from float_of_string. *)
let env_scale name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v ->
    (match float_of_string_opt v with
     | Some f -> f
     | None ->
       Printf.eprintf
         "bench: %s=%S is not a number (expected e.g. %s=0.05)\n" name v name;
       exit 2)

let cfg =
  { Experiments.Config.default with
    Experiments.Config.scale = env_scale "SPINE_SCALE" 0.05;
    disk_scale = env_scale "SPINE_DISK_SCALE" 0.005 }

(* --- micro-bench inputs (memoized through Experiments.Data) --- *)

let eco () = Experiments.Data.load ~scale:bench_scale Bioseq.Corpus.eco

let query () =
  Experiments.Data.homologous_query ~scale:bench_scale
    ~data_corpus:Bioseq.Corpus.eco Bioseq.Corpus.cel

let spine_index = lazy (Spine.Compact.of_seq (eco ()))
let spine_engine = lazy (Spine.Compact.engine (Lazy.force spine_index))
let st_index = lazy (Suffix_tree.build (eco ()))

let disk_seq () = Experiments.Data.load ~scale:0.001 Bioseq.Corpus.eco

(* --- packed-row comparison kernels (micro:packed) ---

   The word-packed sequence core compares 31 DNA codes (62 usable bits
   at 2 bits/code) per 64-bit load; these kernels put the whole-word
   path next to the per-code oracle it replaced, over the same inputs,
   so the artifact records the measured win (and the narrower protein
   win at 7 codes/word, and the mixed-width scalar fallback cost). *)

let packed_row alphabet ~seed n =
  let size = Bioseq.Alphabet.size alphabet in
  let rng = Bioseq.Rng.create seed in
  let s = Bioseq.Packed_seq.create ~capacity:n alphabet in
  for _ = 1 to n do
    Bioseq.Packed_seq.append s (Bioseq.Rng.int rng size)
  done;
  s

let mib = 1 lsl 20

let dna_pair =
  lazy
    (let a = packed_row Bioseq.Alphabet.dna ~seed:11 mib in
     (a, Bioseq.Packed_seq.copy a))

let protein_pair =
  lazy
    (let a = packed_row Bioseq.Alphabet.protein ~seed:12 mib in
     (a, Bioseq.Packed_seq.copy a))

(* appending the separator widens the copy 2 -> 4 bits/code, so the
   rows disagree on width and mismatch takes its scalar fallback *)
let mixed_pair =
  lazy
    (let a = packed_row Bioseq.Alphabet.dna ~seed:13 (64 * 1024) in
     let b = Bioseq.Packed_seq.copy a in
     Bioseq.Packed_seq.append b (Bioseq.Alphabet.separator Bioseq.Alphabet.dna);
     (a, b))

let scalar_common_prefix a b =
  let n = min (Bioseq.Packed_seq.length a) (Bioseq.Packed_seq.length b) in
  let i = ref 0 in
  while
    !i < n && Bioseq.Packed_seq.get a !i = Bioseq.Packed_seq.get b !i
  do
    incr i
  done;
  !i

(* a 256-code prefix of the indexed string: the descent stays on the
   backbone the whole way, which is where word comparison pays *)
let descent_input =
  lazy
    (let data = eco () in
     let codes = Array.init 256 (Bioseq.Packed_seq.get data) in
     (codes, Spine.Engine.pattern (Lazy.force spine_engine) codes))

(* a lookup's fixed cost around the descent: a 106-code window of the
   indexed string, packed fresh per run as every engine request is *)
let edge_codes =
  lazy
    (let data = eco () in
     Array.init 106 (fun i -> Bioseq.Packed_seq.get data (1000 + i)))

let occ_pattern =
  lazy
    (let data = eco () in
     let codes = Array.init 64 (Bioseq.Packed_seq.get data) in
     Spine.Engine.pattern (Lazy.force spine_engine) codes)

(* --- instrumentation price (micro:instr) ---

   One [Engine.contains_pattern] descent on the compact index, timed
   in four modes: plain, with telemetry collection enabled, inside
   [Engine.profiled], and with tracing on.  The 64 codes come from the
   middle of the text, so the descent crosses ribs before its vertebra
   runs.  Only the public Engine, Telemetry and Trace switches are
   used, so the kernel times any revision of the instrumentation. *)

let instr_pattern =
  lazy
    (let data = eco () in
     let mid = Bioseq.Packed_seq.length data / 2 in
     let codes =
       Array.init 64 (fun k -> Bioseq.Packed_seq.get data (mid + k))
     in
     Spine.Engine.pattern (Lazy.force spine_engine) codes)

let instr_descent () =
  Spine.Engine.contains_pattern (Lazy.force spine_engine)
    (Lazy.force instr_pattern)

(* a mode's switch is on for the whole measurement, then restored *)
let instr_switched name ~is_enabled ~set_enabled =
  Test.make_with_resource ~name:("instr/" ^ name) Test.uniq
    ~allocate:(fun () ->
      let was = is_enabled () in
      set_enabled true;
      was)
    ~free:set_enabled
    (Staged.stage (fun _ -> instr_descent ()))

let instr_tests =
  [ Test.make ~name:"instr/plain" (Staged.stage instr_descent);
    instr_switched "telemetry" ~is_enabled:Telemetry.is_enabled
      ~set_enabled:Telemetry.set_enabled;
    Test.make ~name:"instr/profiled"
      (Staged.stage (fun () ->
           Spine.Engine.profiled (Lazy.force spine_engine) instr_descent));
    instr_switched "traced" ~is_enabled:Trace.is_enabled
      ~set_enabled:Trace.set_enabled ]

(* the cursor kernels time the functor directly, without the engine's
   per-step guard closure *)
module Compact_cursor = Spine.Cursor.Make (Spine.Compact_store)

(* --- buffer-pool layer kernels (micro:pool) ---

   The paged store's cost per field: an in-page [Paged_bytes.get_u32]
   (one pool latch and one word read), a bare [with_page] hit on a
   resident page, and a miss on the in-memory device.  The miss pool
   has one frame and alternates between two pages, so every call
   evicts a clean page and reads the other one back.  The two Link
   Table scans price the occurrence scan's inner loop, [scan_lt] with
   a sparse target bitmap: over a resident paged table (one latch per
   page) and over the in-memory one (one loop of direct reads), the
   same 4,096 entries; the [-rows] pair prices the row path, with a
   third of the links held in Rib Table rows.  The CRC-32C kernels price
   the checksum every miss, writeback and journal capture pays, over
   what a page's trailer covers (128 or 4,096 data bytes plus the
   trailer's magic and epoch).  The row record prices a rib step on a
   paged store: [find_rib] on a resident RT row, one latch for the LT
   entry and one for the row. *)

let pool_page_size = 4096

let resident_pool =
  lazy
    (let dev = Pagestore.Device.create ~page_size:pool_page_size () in
     let pool = Pagestore.Buffer_pool.create ~frames:4 dev in
     let tab =
       Pagestore.Paged_bytes.make pool ~region:"bench" ~base_page:0
         ~capacity:max_int
     in
     Pagestore.Paged_bytes.set_u32 tab 64 0xC0FF_EE;
     (pool, tab))

let miss_pool =
  lazy
    (let dev = Pagestore.Device.create ~page_size:pool_page_size () in
     (Pagestore.Buffer_pool.create ~frames:1 dev, ref 0))

(* 4,096 six-byte LT entries (6 pages, all resident when paged): LELs
   cycling through 0..15 and each link landing on half its node id.
   The scan asks for LEL >= 12, so a quarter pass the LEL filter, and
   the bitmap marks the nodes 7 mod 256, so 16 of those (entries 14
   and 15 mod 512) are candidates. *)
let lt_entries = 4096

let lt_marks =
  let m = Bytes.make ((lt_entries + 7) / 8) '\000' in
  for node = 0 to lt_entries - 1 do
    if node land 255 = 7 then Xutil.Node_bits.set m node
  done;
  m

let fill_lt ~alloc ~set_u32 ~set_u16 =
  for i = 0 to lt_entries - 1 do
    let off = alloc Spine.Compact_store.lt_entry_bytes in
    set_u32 off (i / 2);
    set_u16 (off + 4) (i land 15)
  done

let resident_lt =
  lazy
    (let dev = Pagestore.Device.create ~page_size:pool_page_size () in
     let pool = Pagestore.Buffer_pool.create ~frames:8 dev in
     let lt =
       Pagestore.Paged_bytes.make pool ~region:"lt" ~base_page:0
         ~capacity:max_int
     in
     fill_lt ~alloc:(Pagestore.Paged_bytes.alloc lt)
       ~set_u32:(Pagestore.Paged_bytes.set_u32 lt)
       ~set_u16:(Pagestore.Paged_bytes.set_u16 lt);
     lt)

let compact_lt =
  lazy
    (let lt = Spine.Compact_store.Btab.create 0 in
     fill_lt ~alloc:(Spine.Compact_store.Btab.alloc lt)
       ~set_u32:(Spine.Compact_store.Btab.set_u32 lt)
       ~set_u16:(Spine.Compact_store.Btab.set_u16 lt);
     lt)

(* The row path: the same entries, but every third payload is a
   Figure 5 PTR naming a row of a Rib Table fixture (RT1..RT4 at DNA's
   row widths, a row per such entry, round robin over the tables)
   whose LD field holds that entry's link, so the scan finds the same
   16 candidates, a third of its passing links through a row. *)
let lt_row_bytes = [| 13; 19; 25; 31 |]

let fill_lt_rows ~alloc ~set_u32 ~set_u16 ~rt_alloc ~rt_set_u32 =
  for i = 0 to lt_entries - 1 do
    let off = alloc Spine.Compact_store.lt_entry_bytes in
    (if i mod 3 = 2 then begin
       let table = (i / 3) land 3 in
       let ld = rt_alloc table lt_row_bytes.(table) in
       rt_set_u32 table ld (i / 2);
       set_u32 off
         (0x8000_0000 lor (table lsl 29) lor (ld / lt_row_bytes.(table)))
     end
     else set_u32 off (i / 2));
    set_u16 (off + 4) (i land 15)
  done

(* 32 frames hold the 6 LT and the 10 RT pages *)
let resident_lt_rows =
  lazy
    (let dev = Pagestore.Device.create ~page_size:pool_page_size () in
     let pool = Pagestore.Buffer_pool.create ~frames:32 dev in
     let table ~region ~base_page =
       Pagestore.Paged_bytes.make pool ~region ~base_page ~capacity:max_int
     in
     let lt = table ~region:"lt" ~base_page:0 in
     let rts =
       Array.init 4 (fun k -> table ~region:"rt" ~base_page:(100 * (k + 1)))
     in
     fill_lt_rows ~alloc:(Pagestore.Paged_bytes.alloc lt)
       ~set_u32:(Pagestore.Paged_bytes.set_u32 lt)
       ~set_u16:(Pagestore.Paged_bytes.set_u16 lt)
       ~rt_alloc:(fun k -> Pagestore.Paged_bytes.alloc rts.(k))
       ~rt_set_u32:(fun k -> Pagestore.Paged_bytes.set_u32 rts.(k));
     (lt, rts))

let compact_lt_rows =
  lazy
    (let module Btab = Spine.Compact_store.Btab in
     let lt = Btab.create 0 and rts = Array.init 4 (fun _ -> Btab.create 0) in
     fill_lt_rows ~alloc:(Btab.alloc lt) ~set_u32:(Btab.set_u32 lt)
       ~set_u16:(Btab.set_u16 lt)
       ~rt_alloc:(fun k -> Btab.alloc rts.(k))
       ~rt_set_u32:(fun k -> Btab.set_u32 rts.(k));
     (lt, rts))

(* no LEL overflows in these tables *)
let no_overflow _ = assert false

let crc_slot_136 = Bytes.init 136 (fun i -> Char.chr ((i * 31) land 0xFF))
let crc_slot_4104 = Bytes.init 4104 (fun i -> Char.chr ((i * 31) land 0xFF))

(* a small DNA store on 4 KiB pages, every page resident, and a
   (node, code) pair whose rib is the row's last *)
let resident_rib =
  lazy
    (let dev = Pagestore.Device.create ~page_size:pool_page_size () in
     let pool = Pagestore.Buffer_pool.create ~frames:64 dev in
     let store = Spine.Paged_store.create pool Bioseq.Alphabet.dna in
     let seq = eco () in
     for i = 0 to min 2_000 (Bioseq.Packed_seq.length seq) - 1 do
       Spine.Paged_store.append store (Bioseq.Packed_seq.get seq i)
     done;
     let module P = Spine.Paged_store.P in
     let rec pick node =
       match P.fold_ribs store node ~init:[] ~f:(fun acc c _ _ -> c :: acc) with
       | code :: _ :: _ -> (store, node, code)
       | _ -> pick (node + 1)
     in
     pick 0)

let tests =
  [ (* Table 2 is static accounting; its kernel is the space model *)
    Test.make ~name:"table2/naive-node-accounting"
      (Staged.stage (fun () ->
           Spine.Space.naive_node_bytes Bioseq.Alphabet.dna))
  ; (* Tables 3/4 and Figure 8 all reduce to one pass over the built
       structure *)
    Test.make ~name:"table3/label-maxima"
      (Staged.stage (fun () ->
           Spine.Engine.label_maxima (Lazy.force spine_engine)))
  ; Test.make ~name:"table4/rib-distribution"
      (Staged.stage (fun () ->
           Spine.Engine.rib_distribution (Lazy.force spine_engine)))
  ; Test.make ~name:"fig8/link-histogram"
      (Staged.stage (fun () ->
           Spine.Engine.link_histogram (Lazy.force spine_engine) ~buckets:10))
  ; (* Figure 6: in-memory construction *)
    Test.make ~name:"fig6/spine-construction"
      (Staged.stage (fun () -> Spine.Compact.of_seq (eco ())))
  ; Test.make ~name:"fig6/suffix-tree-construction"
      (Staged.stage (fun () -> Suffix_tree.build (eco ())))
  ; (* Tables 5/6: in-memory maximal matching *)
    Test.make ~name:"table5/spine-matching"
      (Staged.stage (fun () ->
           Spine.Engine.maximal_matches (Lazy.force spine_engine)
             ~threshold:20 (query ())))
  ; Test.make ~name:"table5/suffix-tree-matching"
      (Staged.stage (fun () ->
           Suffix_tree.maximal_matches (Lazy.force st_index) ~threshold:20
             (query ())))
  ; Test.make ~name:"table6/spine-matching-statistics"
      (Staged.stage (fun () ->
           Spine.Engine.matching_statistics (Lazy.force spine_engine)
             (query ())))
  ; (* Figure 7 / Table 7: disk-resident construction through the
       buffer pool *)
    Test.make ~name:"fig7/spine-disk-construction"
      (Staged.stage (fun () -> Spine.Disk.build (disk_seq ())))
  ; Test.make ~name:"table7/spine-disk-equivalent-search"
      (Staged.stage (fun () ->
           (* occurrence resolution is the disk search's dominant scan *)
           let e = Lazy.force spine_engine in
           Spine.Engine.occurrences_pattern e
             (Spine.Engine.pattern e [| 0; 1; 2; 3; 0; 1 |])))
  ; (* Section 5 space: full measurement pass *)
    Test.make ~name:"space/bytes-per-char"
      (Staged.stage (fun () ->
           Spine.Compact_store.bytes_per_char (Lazy.force spine_index)))
  ; (* Section 5.2 proteins: protein construction kernel *)
    Test.make ~name:"proteins/spine-construction"
      (Staged.stage (fun () ->
           Spine.Compact.of_seq
             (Experiments.Data.load ~scale:0.01 Bioseq.Corpus.eco_r)))
  ; (* ablations: hashtable store and deferred vs immediate scans *)
    Test.make ~name:"ablation/hashtable-store-construction"
      (Staged.stage (fun () -> Experiments.Hashtable_store.of_seq (eco ())))
  ; Test.make ~name:"ablation/deferred-occurrence-scan"
      (Staged.stage (fun () ->
           Spine.Engine.maximal_matches (Lazy.force spine_engine) ~threshold:16
             (query ())))
  ; Test.make ~name:"ablation/immediate-occurrence-scan"
      (Staged.stage (fun () ->
           Spine.Engine.maximal_matches ~immediate:true
             (Lazy.force spine_engine) ~threshold:16 (query ())))
  ; (* packed-row kernels: whole-word compare vs the per-code oracle *)
    Test.make ~name:"packed/word-mismatch-dna-1mib"
      (Staged.stage (fun () ->
           let a, b = Lazy.force dna_pair in
           Bioseq.Packed_seq.mismatch a ~apos:0 b ~bpos:0
             ~len:(Bioseq.Packed_seq.length a)))
  ; Test.make ~name:"packed/scalar-mismatch-dna-1mib"
      (Staged.stage (fun () ->
           let a, b = Lazy.force dna_pair in
           scalar_common_prefix a b))
  ; Test.make ~name:"packed/word-mismatch-protein-1mib"
      (Staged.stage (fun () ->
           let a, b = Lazy.force protein_pair in
           Bioseq.Packed_seq.mismatch a ~apos:0 b ~bpos:0
             ~len:(Bioseq.Packed_seq.length a)))
  ; (* a span shorter than one word: a single masked word step *)
    Test.make ~name:"packed/short-span-mismatch-20"
      (Staged.stage (fun () ->
           let a, b = Lazy.force dna_pair in
           Bioseq.Packed_seq.mismatch a ~apos:5 b ~bpos:5 ~len:20))
  ; Test.make ~name:"packed/pattern-edge-106"
      (Staged.stage (fun () ->
           let e = Lazy.force spine_engine in
           Spine.Engine.contains_pattern e
             (Spine.Engine.pattern e (Lazy.force edge_codes))))
  ; Test.make ~name:"packed/mixed-width-fallback-64kib"
      (Staged.stage (fun () ->
           let a, b = Lazy.force mixed_pair in
           Bioseq.Packed_seq.mismatch a ~apos:0 b ~bpos:0
             ~len:(Bioseq.Packed_seq.length a)))
  ; Test.make ~name:"packed/word-descent-256"
      (Staged.stage (fun () ->
           let _, pat = Lazy.force descent_input in
           let store = Lazy.force spine_index in
           let c = Compact_cursor.create store in
           Compact_cursor.advance_pattern c pat))
  ; Test.make ~name:"packed/scalar-descent-256"
      (Staged.stage (fun () ->
           let codes, _ = Lazy.force descent_input in
           let store = Lazy.force spine_index in
           let c = Compact_cursor.create store in
           Array.iter
             (fun code -> ignore (Compact_cursor.advance c code))
             codes))
  ; Test.make ~name:"packed/occurrence-scan-dna-64"
      (Staged.stage (fun () ->
           Spine.Engine.occurrences_pattern (Lazy.force spine_engine)
             (Lazy.force occ_pattern)))
  ; Test.make ~name:"pool/paged-bytes-get-u32-in-page"
      (Staged.stage (fun () ->
           let _, tab = Lazy.force resident_pool in
           Pagestore.Paged_bytes.get_u32 tab 64))
  ; Test.make ~name:"pool/with-page-hit"
      (Staged.stage (fun () ->
           let pool, _ = Lazy.force resident_pool in
           Pagestore.Buffer_pool.with_page pool 0 ~dirty:false Bytes.length))
  ; Test.make ~name:"pool/with-page-miss-mem-device"
      (Staged.stage (fun () ->
           let pool, next = Lazy.force miss_pool in
           next := 1 - !next;
           Pagestore.Buffer_pool.with_page pool !next ~dirty:false Bytes.length))
  ; Test.make ~name:"pool/crc32c-page-136"
      (Staged.stage (fun () -> Xutil.Crc32c.bytes crc_slot_136))
  ; Test.make ~name:"pool/crc32c-page-4104"
      (Staged.stage (fun () -> Xutil.Crc32c.bytes crc_slot_4104))
  ; Test.make ~name:"pool/paged-rt-row-record"
      (Staged.stage (fun () ->
           let store, node, code = Lazy.force resident_rib in
           Spine.Paged_store.P.find_rib store node code))
  ; Test.make ~name:"pool/paged-lt-scan"
      (Staged.stage (fun () ->
           let lt = Lazy.force resident_lt in
           let found = ref 0 in
           Pagestore.Paged_bytes.scan_lt lt ~off:0 ~count:lt_entries
             ~min_lel:12 ~overflow:no_overflow ~rts:[||] ~row_bytes:[||]
             ~marks:lt_marks (fun _ _ _ -> incr found);
           !found))
  ; Test.make ~name:"pool/compact-lt-scan"
      (Staged.stage (fun () ->
           let lt = Lazy.force compact_lt in
           let found = ref 0 in
           Spine.Compact_store.Btab.scan_lt lt ~off:0 ~count:lt_entries
             ~min_lel:12 ~overflow:no_overflow ~rts:[||] ~row_bytes:[||]
             ~marks:lt_marks (fun _ _ _ -> incr found);
           !found))
  ; Test.make ~name:"pool/paged-lt-scan-rows"
      (Staged.stage (fun () ->
           let lt, rts = Lazy.force resident_lt_rows in
           let found = ref 0 in
           Pagestore.Paged_bytes.scan_lt lt ~off:0 ~count:lt_entries
             ~min_lel:12 ~overflow:no_overflow ~rts ~row_bytes:lt_row_bytes
             ~marks:lt_marks (fun _ _ _ -> incr found);
           !found))
  ; Test.make ~name:"pool/compact-lt-scan-rows"
      (Staged.stage (fun () ->
           let lt, rts = Lazy.force compact_lt_rows in
           let found = ref 0 in
           Spine.Compact_store.Btab.scan_lt lt ~off:0 ~count:lt_entries
             ~min_lel:12 ~overflow:no_overflow ~rts ~row_bytes:lt_row_bytes
             ~marks:lt_marks (fun _ _ _ -> incr found);
           !found))
  ]
  @ instr_tests

(* Returns (name, estimated ns/run) per test so the trajectory artifact
   records what was printed.  [prefixes] restricts the run to tests
   whose name starts with any of the given prefixes (the CLI's
   [micro:<prefix>] arguments); the empty list means every test. *)
let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let run_microbenches ?(prefixes = []) () =
  let tests =
    match prefixes with
    | [] -> tests
    | ps ->
      List.filter
        (fun t ->
          let name = Test.name t in
          List.exists (fun p -> starts_with ~prefix:p name) ps)
        tests
  in
  print_newline ();
  print_endline "Bechamel micro-benchmarks (one group per table/figure)";
  print_endline "------------------------------------------------------";
  let benchmark_cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results =
        Benchmark.all benchmark_cfg [ Instance.monotonic_clock ]
          (Test.make_grouped ~name:"g" [ test ])
      in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          let pretty =
            if ns >= 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
            else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
          in
          Printf.printf "  %-42s %s/run\n%!" name pretty;
          (* drop the synthetic "g/" grouping prefix from the stable name *)
          let name =
            if String.length name > 2 && String.sub name 0 2 = "g/" then
              String.sub name 2 (String.length name - 2)
            else name
          in
          (name, ns) :: acc)
        analyzed [])
    tests

(* Degraded-mode smoke: per-op p99 service time under injected device
   latency with a resilience policy armed, measured through the chaos
   scenario runner so the bench gate watches the same path CI's
   chaos-scenarios job certifies.  The p99s ride in the artifact as
   their own "scenario" group (unit p99_ns). *)
let scenario_smoke_text =
  String.concat "\n"
    [ {|{"scenario": "bench-degraded", "seed": 42}|};
      {|{"stage": "build", "chars": 12000, "chunks": 3, "frames": 16}|};
      {|{"stage": "latency", "read_us": 20, "write_us": 10, "jitter_us": 20}|};
      {|{"stage": "workload", "requests": 120, "mix": {"single": 6, "batch": 2, "cursor": 2}, "resilience": {"deadline_ms": 2000}}|}
    ]

let run_scenario_smoke () =
  print_newline ();
  print_endline "Degraded-mode smoke (injected latency, resilient workload)";
  print_endline "----------------------------------------------------------";
  match Scenario.parse scenario_smoke_text with
  | Error e -> Printf.eprintf "scenario smoke: %s\n" e; []
  | Ok sc -> (
    match Scenario.run sc with
    | Error e -> Printf.eprintf "scenario smoke: %s\n" e; []
    | Ok r -> (
      match r.Scenario.r_report with
      | None -> []
      | Some rep ->
        List.filter_map
          (fun (o : Workload.op_report) ->
            if o.Workload.count = 0 then None
            else begin
              Printf.printf "  degraded-p99-%-28s %8.3f ms\n" o.Workload.op
                (o.Workload.p99_ns /. 1e6);
              Some ("degraded-p99-" ^ o.Workload.op, o.Workload.p99_ns)
            end)
          rep.Workload.ops))

(* With telemetry enabled, leave a machine-readable artifact of every
   counter/histogram/span the run accumulated next to the tables. *)
let emit_telemetry_artifact () =
  if Telemetry.is_enabled () then begin
    let path =
      Option.value
        (Sys.getenv_opt "SPINE_TELEMETRY_JSON")
        ~default:"spine_telemetry.jsonl"
    in
    Telemetry.write_jsonl ~path (Telemetry.snapshot ());
    Printf.printf "\ntelemetry artifact written to %s\n" path
  end

(* With tracing enabled (SPINE_TRACE=1), leave the buffered event ring
   as a Chrome trace next to the tables. *)
let emit_trace_artifact () =
  if Trace.is_enabled () then begin
    let path =
      Option.value (Sys.getenv_opt "SPINE_TRACE_JSON")
        ~default:"spine_trace.json"
    in
    Trace.write_chrome ~path;
    Printf.printf "trace artifact written to %s (%d event(s), %d dropped)\n"
      path (List.length (Trace.events ())) (Trace.dropped ())
  end

(* The machine-readable run trajectory: config, wall time per
   experiment, and the Bechamel per-run estimates.  CI uploads it so
   successive runs can be diffed without scraping stdout. *)
(* The committed baseline lives at the repo root; dune runs executables
   from _build contexts, so resolve the default path by walking up to
   the directory holding dune-project rather than trusting cwd. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let emit_bench_artifact ~experiments ~micro ~scenario =
  let path =
    match Sys.getenv_opt "SPINE_BENCH_JSON" with
    | Some path -> path
    | None ->
      let root = Option.value (repo_root ()) ~default:"." in
      Filename.concat root "BENCH_spine.json"
  in
  let buf = Buffer.create 4096 in
  let json_float f =
    (* NaN (a failed OLS fit) has no JSON literal *)
    if Float.is_nan f then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f
  in
  let row kind (name, value) =
    Printf.sprintf "    {\"name\": %S, \"%s\": %s}" name kind
      (json_float value)
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"spine-bench/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"scale\": %s, \"disk_scale\": %s, \"bench_scale\": %s},\n"
       (json_float cfg.Experiments.Config.scale)
       (json_float cfg.Experiments.Config.disk_scale)
       (json_float bench_scale));
  Buffer.add_string buf "  \"experiments\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (row "wall_s") experiments));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"micro\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (row "ns_per_run") micro));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"scenario\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (row "p99_ns") scenario));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "bench trajectory written to %s\n" path

(* Arguments name experiments ("table5"), the whole micro layer
   ("micro"), or a micro family ("micro:packed"); they combine freely,
   e.g. `bench/main.exe table2 table3 space micro:packed`. *)
let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scenario_args, args =
    List.partition (fun a -> a = "scenario") args
  in
  let micro_prefixes, exp_names =
    List.partition_map
      (fun a ->
        if a = "micro" then Either.Left ""
        else if starts_with ~prefix:"micro:" a then
          Either.Left (String.sub a 6 (String.length a - 6))
        else Either.Right a)
      args
  in
  let experiments, micro, scenario =
    match (args, scenario_args) with
    | [], [] ->
      Printf.printf
        "SPINE reproduction bench (scale %g, disk scale %g)\n"
        cfg.Experiments.Config.scale cfg.Experiments.Config.disk_scale;
      let experiments = Experiments.Registry.run_all cfg in
      (experiments, run_microbenches (), run_scenario_smoke ())
    | _ ->
      let experiments =
        List.filter_map
          (fun name ->
            match Experiments.Registry.find name with
            | Some e -> Some (name, Experiments.Registry.run_one cfg e)
            | None -> Printf.eprintf "unknown experiment %S\n" name; None)
          exp_names
      in
      let micro =
        if micro_prefixes = [] then []
        else run_microbenches ~prefixes:(List.filter (fun p -> p <> "") micro_prefixes) ()
      in
      let scenario =
        if scenario_args = [] then [] else run_scenario_smoke ()
      in
      (experiments, micro, scenario)
  in
  emit_bench_artifact ~experiments ~micro ~scenario;
  emit_telemetry_artifact ();
  emit_trace_artifact ()
