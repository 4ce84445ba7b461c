module Ps = Bioseq.Packed_seq
module Rng = Bioseq.Rng
module Iv = Xutil.Int_vec
module E = Spine.Engine
module P = Spine.Persistent
module Pool = Pagestore.Buffer_pool
module Dev = Pagestore.Device

type metric = { name : string; value : float; unit_ : string }

let end_to_end =
  [ ("setup_s", "s");
    ("req_p50_us", "us");
    ("req_p90_us", "us");
    ("bulk_per_s", "1/s");
    ("index_bytes_per_char", "B/char");
    ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("packed.word_steps_per_op", "1/op");
    ("packed.scalar_steps_per_op", "1/op");
    ("packed.codes_per_step", "codes");
    ("packed.mismatch_ns_per_kcode", "ns/kcode");
    ("search.descent_ns", "ns");
    ("search.steps_per_op", "1/op");
    ("search.rib_extrib_share", "frac");
    ("scan.ns_per_op", "ns");
    ("scan.nodes_per_op", "1/op");
    ("scan.ns_per_node", "ns");
    ("scan.found_per_knode", "1/knode");
    ("scan.batch_nodes_per_pattern", "1/pattern");
    ("match.ns_per_char", "ns");
    ("match.nodes_checked_per_char", "1/char");
    ("match.link_steps_per_char", "1/char");
    ("build.ns_per_char", "ns");
    ("build.ribs_per_kchar", "1/kchar");
    ("build.extribs_per_kchar", "1/kchar");
    ("persist.flush_ms_p50", "ms");
    ("persist.flush_ms_p90", "ms");
    ("persist.pages_written_per_flush", "pages");
    ("persist.journal_captures_per_flush", "1/flush");
    ("persist.write_bytes_per_char", "B/char");
    ("pool.accesses_per_op", "1/op");
    ("pool.hit_rate", "frac");
    ("pool.misses_per_op", "1/op");
    ("pool.evictions_per_op", "1/op");
    ("pool.writebacks_per_flush", "1/flush");
    ("pool.io_retries", "count");
    ("pool.hit_ns", "ns");
    ("pool.miss_ns", "ns");
    ("pool.modelled_share", "frac");
    ("device.reads_per_op", "1/op");
    ("device.read_bytes_per_op", "B/op");
    ("device.sequential_frac", "frac");
    ("device.sim_ms_per_op", "ms");
    ("device.read_ns", "ns");
    ("gc.alloc_bytes_per_op", "B/op");
    ("gc.major_collections", "count");
    ("instr.traced_overhead_frac", "frac") ]

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  dir : string;
  text_len : int;
  setup_reps : int;
  frames : int;
  min_len : int;
  max_len : int;
  miss_frac : float;
  query_len : int;
  distinct : int;
  bulk_per_round : int;
  chunk : int;
  max_chunks : int;
  lookups_per_chunk : int;
}

type result = {
  metrics : metric list;
  notes : metric list;
  attempted : int;
  failed : int;
  diagnostics : string list;
  trace_file : string option;
}

type workload = {
  name : string;
  defaults : config;
  run : config -> result;
}

(* --- small helpers --- *)

let now = Xutil.Stopwatch.now_ns
let fi = float_of_int
let secs ns = fi ns /. 1e9

(* per-layer ratios: a layer the workload never enters reads 0 *)
let ratio a b = if b = 0. then 0. else a /. b

let metrics_of decl values =
  List.map (fun (name, value) : metric -> { name; value; unit_ = List.assoc name decl }) values

let note name value unit_ : metric = { name; value; unit_ }

let failed_answer = -1

(* Share of each round given to single requests.  The round's bulk
   requests are a fixed count instead ([bulk_per_round], tuned to take
   about the rest): a bulk request allocates megabytes on the major
   heap, so a count that followed host speed would make the heap's
   growth, and [peak_rss_mb], follow it too. *)
let single_share = 0.7

(* Patterns per [run_batch] request. *)
let batch = 16

(* Single requests per round, at least: a round's p90 needs 100. *)
let round_samples = 100

(* Single requests per round, at most: above the fastest workload's
   rate (mem-lookup, about 50,000 in a round's 0.35 s), and what the
   per-request vectors reserve for each round. *)
let round_cap = 64_000

(* Kept spans in a traced run's Chrome file; aggregates cover them all. *)
let kept_spans = 20_000

let corpus n =
  let c = Bioseq.Corpus.eco in
  Bioseq.Synthetic.genomic ~profile:c.Bioseq.Corpus.profile c.Bioseq.Corpus.alphabet
    (Rng.create c.Bioseq.Corpus.seed) n

(* Request [i] of [stream] draws from its own generator, so the oracle
   can regenerate any request without the run storing its pattern. *)
let request_rng cfg ~stream i =
  Rng.create ((((cfg.seed * 1_000_003) + stream) * 1_000_033) + i)

(* A substring of [seq.[0, limit)], or with probability [miss_frac]
   uniform random codes (whether those occur is the oracle's call). *)
let lookup_codes cfg seq ~limit rng =
  let size = Bioseq.Alphabet.size (Ps.alphabet seq) in
  let len = min limit (cfg.min_len + Rng.int rng (cfg.max_len - cfg.min_len + 1)) in
  if Rng.float rng 1.0 < cfg.miss_frac then Array.init len (fun _ -> Rng.int rng size)
  else begin
    let p = Rng.int rng (limit - len + 1) in
    Array.init len (fun k -> Ps.get seq (p + k))
  end

(* VmHWM less the per-request vectors, which are resident in full from
   their creation, before the set-up, so the difference is the peak of
   everything else. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
              fi ((kb * 1024) - Samples.resident_bytes ()) /. 1048576.)
        else scan ()
      in
      scan ())

(* The ns samples [get from .. get (until - 1)] in us, ascending. *)
let sorted_us ~from ~until get =
  let a = Array.init (until - from) (fun i -> fi (get (from + i)) /. 1e3) in
  Array.sort Float.compare a;
  a

let pct sorted p =
  match Quantile.nearest_rank sorted p with Ok v -> v | Error msg -> invalid_arg msg

(* --- passes: one sweep of requests, untraced or traced --- *)

type pass = {
  spans : Spans.t option;  (* [Some] in the traced pass *)
  prof : Profile.t;        (* traced requests' profiles, summed *)
  lat : Samples.t;         (* ns per answered request *)
  answers : Samples.t;     (* one int per answer; [failed_answer] if it raised *)
}

let fresh_pass spans ~requests ~answers =
  { spans; prof = Profile.make (); lat = Samples.create requests;
    answers = Samples.create answers }

let call pass name ~req f =
  match pass.spans with None -> f () | Some s -> Spans.span s name ~req f

(* One timed request: its latency covers [f] (plus, when traced, the
   profile scope and the spans). *)
let request pass engine ~req f =
  let t0 = now () in
  match
    (match pass.spans with
     | None -> f ()
     | Some s ->
       let r, p = Spans.span s "request" ~req (fun () -> E.profiled engine f) in
       Profile.absorb pass.prof p;
       r)
  with
  | r -> Samples.push pass.lat (now () - t0); Some r
  | exception e ->
    Printf.eprintf "e2e: request %d raised %s\n%!" req (Printexc.to_string e);
    None

let lookup pass engine ~req codes =
  let r =
    request pass engine ~req (fun () ->
        let p = call pass "packed.pattern" ~req (fun () -> E.pattern engine codes) in
        call pass "search.descent" ~req (fun () -> E.contains_pattern engine p))
  in
  Samples.push pass.answers (match r with Some b -> Bool.to_int b | None -> failed_answer)

let push_digests pass n = function
  | Some items ->
    List.iter (fun it -> Samples.push pass.answers (Check.digest it.E.positions)) items
  | None -> for _ = 1 to n do Samples.push pass.answers failed_answer done

let run_for ~budget_s ~min ~max step =
  let deadline = now () + int_of_float (budget_s *. 1e9) in
  let i = ref 0 in
  while !i < max && (!i < min || now () < deadline) do
    step !i;
    incr i
  done;
  !i

let with_telemetry f =
  Telemetry.set_enabled true;
  let before = Telemetry.snapshot () in
  let r = Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f in
  (r, Telemetry.diff (Telemetry.snapshot ()) before)

let count snap name =
  match Telemetry.find snap name with Some (Telemetry.Count n) -> n | _ -> 0

type device_use = {
  mutable reads : int;
  mutable accesses : int;
  mutable sequential : int;
  mutable sim_us : float;
}

let fresh_device_use () = { reads = 0; accesses = 0; sequential = 0; sim_us = 0. }

let with_device_use use dev f =
  let a = Dev.stats dev in
  let r = f () in
  let b = Dev.stats dev in
  use.reads <- use.reads + b.Dev.reads - a.Dev.reads;
  use.accesses <- use.accesses + b.Dev.reads + b.Dev.writes - a.Dev.reads - a.Dev.writes;
  use.sequential <- use.sequential + b.Dev.sequential - a.Dev.sequential;
  use.sim_us <- use.sim_us +. b.Dev.elapsed_us -. a.Dev.elapsed_us;
  r

(* Set-up: [setup_reps] full builds, each after disposing of the last,
   timed; the last is kept and setup_s is the median time, each scaled
   to the reference speed (see {!Host_speed}) by probes on both sides
   of its build.  A traced run builds once, under telemetry and a
   "build" span, for the Builder's counters. *)
let setup cfg spans ~build ~dispose =
  match spans with
  | Some s ->
    let v, tel = with_telemetry (fun () -> Spans.span s "build" ~req:(-1) build) in
    (v, 0., tel)
  | None ->
    let times = Array.make cfg.setup_reps 0. in
    let m = Host_speed.meter () in
    let probes () = for _ = 1 to 4 do Host_speed.sample m done in
    let kept = ref None in
    for r = 0 to cfg.setup_reps - 1 do
      Option.iter dispose !kept;
      kept := None;
      Gc.full_major ();
      probes ();
      let t0 = now () in
      let v = build () in
      let t = secs (now () - t0) in
      probes ();
      times.(r) <- t *. Host_speed.scale (Host_speed.reading m);
      kept := Some v
    done;
    (match !kept with
     | Some v -> (v, Quantile.median times, [])
     | None -> invalid_arg "setup_reps must be at least 1")

let tracer cfg = if cfg.traced then Some (Spans.create ~keep:kept_spans ()) else None

(* Nearest-rank p50 and p90, in us, of the latencies [lat.(from ..)]. *)
let round_percentiles lat ~from =
  let a = sorted_us ~from ~until:(Samples.length lat) (Samples.get lat) in
  (pct a 50., pct a 90.)

(* Notes on the whole run's single-request latencies: the pooled p90
   and p99 next to the per-round medians, so a tail that shows in only
   some rounds stays visible.  A percentile with fewer than 10 samples
   beyond it is left out. *)
let pooled_notes ~min_round lat =
  let n = Samples.length lat in
  let a = sorted_us ~from:0 ~until:n (Samples.get lat) in
  List.filter_map
    (fun (name, p) ->
      Result.to_option (Quantile.nearest_rank a p) |> Option.map (fun v -> note name v "us"))
    [ ("req_pooled_p90_us", 90.); ("req_pooled_p99_us", 99.) ]
  @ [ note "req_samples" (fi n) "count"; note "req_samples_min_round" (fi min_round) "count" ]

(* Per-round timings reduced to the run's values: the median over
   rounds of each round's value scaled by its host-speed reading, plus
   notes with the unscaled medians and the median reading, so the
   wall-clock values stay visible. *)
let round_values ~p50s ~p90s ~rates ~speeds =
  let scaled values op =
    Quantile.median (Array.mapi (fun r v -> op v (Host_speed.scale speeds.(r))) values)
  in
  ( scaled p50s ( *. ),
    scaled p90s ( *. ),
    scaled rates ( /. ),
    [ note "req_p50_unscaled_us" (Quantile.median p50s) "us";
      note "req_p90_unscaled_us" (Quantile.median p90s) "us";
      note "bulk_per_s_unscaled" (Quantile.median rates) "1/s";
      note "host_probe_ns" (Quantile.median speeds) "ns" ] )

type phases = {
  single : pass;
  bulk : pass;
  rounds : int;
  p50 : float;              (* median over rounds of the round's scaled value *)
  p90 : float;
  bulk_rate : float;        (* bulk items per second *)
  traced : (pass * pass * Telemetry.snapshot * device_use) option;
  major_gcs : int;
  rss_mb : float;
  latency_notes : metric list;
}

(* Length of one round of the untraced run.  Every timing is taken per
   round, scaled by the round's host-speed reading (see {!Host_speed})
   and reported as the median over rounds.  Rounds interleave the
   single-request and bulk phases (70/30) so that both sample the whole
   run. *)
let round_s = 0.5

let rounds_of cfg = max 1 (int_of_float (Float.round (cfg.seconds /. round_s)))

(* The single and bulk passes of a run.  A workload reserves its
   untraced passes first of all, so that their memory is resident
   through every peak [peak_rss_mb] covers. *)
let reserve cfg spans =
  let rounds = rounds_of cfg and b = cfg.bulk_per_round in
  ( fresh_pass spans ~requests:(rounds * round_cap) ~answers:(rounds * round_cap),
    fresh_pass spans ~requests:(rounds * b) ~answers:(rounds * b * batch) )

(* The untraced run in rounds over the reserved passes [sp] and [bp],
   then (traced runs) the same requests in the same order replayed
   traced, after [reset] restores the starting state.  A bulk request
   yields [bulk_items] items (patterns, chars).  [device] names the
   device whose traffic the traced single requests are charged. *)
let phases cfg (sp, bp) spans ~single ~bulk ~bulk_items ~reset ~device =
  let rounds = rounds_of cfg in
  let len = cfg.seconds /. fi rounds in
  let schedule = Array.make rounds (0, 0) and rates = Array.make rounds 0. in
  let p50s = Array.make rounds 0. and p90s = Array.make rounds 0. in
  let speeds = Array.make rounds 0. and m = Host_speed.meter () in
  let n = ref 0 and k = ref 0 in
  (* start measuring from a clean heap, not the set-up's garbage *)
  Gc.full_major ();
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  for r = 0 to rounds - 1 do
    let n0 = !n and k0 = !k and slat0 = Samples.length sp.lat and lat0 = Samples.length bp.lat in
    Host_speed.sample m;
    let s =
      run_for ~budget_s:(len *. single_share) ~min:round_samples ~max:round_cap (fun i ->
          single sp (n0 + i);
          Host_speed.tick m)
    in
    let b = cfg.bulk_per_round in
    for j = 0 to b - 1 do
      bulk bp (k0 + j);
      Host_speed.tick m
    done;
    Host_speed.sample m;
    speeds.(r) <- Host_speed.reading m;
    n := n0 + s;
    k := k0 + b;
    schedule.(r) <- (s, b);
    let p50, p90 = round_percentiles sp.lat ~from:slat0 in
    p50s.(r) <- p50;
    p90s.(r) <- p90;
    rates.(r) <-
      fi ((Samples.length bp.lat - lat0) * bulk_items) /. secs (Samples.sum ~from:lat0 bp.lat)
  done;
  let major_gcs = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let rss_mb = peak_rss_mb () in
  let min_round = Array.fold_left (fun m (s, _) -> min m s) max_int schedule in
  let p50, p90, bulk_rate, unscaled = round_values ~p50s ~p90s ~rates ~speeds in
  let latency_notes = pooled_notes ~min_round sp.lat @ unscaled in
  let traced =
    Option.map
      (fun s ->
        reset ();
        let tsp, tbp = reserve cfg (Some s) in
        let use = fresh_device_use () in
        let dev = device () in
        let (), tel =
          with_telemetry (fun () ->
              let i = ref 0 and j = ref 0 in
              Array.iter
                (fun (s, b) ->
                  let singles () =
                    for _ = 1 to s do single tsp !i; incr i done
                  in
                  (match dev with
                   | Some d -> with_device_use use d singles
                   | None -> singles ());
                  for _ = 1 to b do bulk tbp !j; incr j done)
                schedule)
        in
        (tsp, tbp, tel, use))
      spans
  in
  { single = sp; bulk = bp; rounds; p50; p90; bulk_rate; traced; major_gcs; rss_mb;
    latency_notes }

(* --- direct layer kernels, run after the measured phase --- *)

let mismatch_ns_per_kcode row =
  let len = min (Ps.length row) (1 lsl 20) in
  let copy = Ps.copy row in
  let reps = max 1 ((1 lsl 26) / len) in
  let t0 = now () in
  for _ = 1 to reps do
    let m, _, _ = Ps.mismatch row ~apos:0 copy ~bpos:0 ~len in
    if m <> len then invalid_arg "mismatch kernel: the copy differs"
  done;
  fi (now () - t0) *. 1000. /. fi (reps * len)

type pool_timing = { hit_ns : float; miss_ns : float; read_ns : float }

(* Pages the index really wrote (the file is sparse between regions):
   the first [want] page ids that [verify_page] finds valid. *)
let written_pages dev ~want =
  let found = ref [] and count = ref 0 and q = ref 0 in
  while !count < want && !q < 65_536 do
    (match Dev.verify_page dev !q with
     | `Ok _ -> found := !q :: !found; incr count
     | `Unwritten | `Stale _ | `Damaged _ -> ());
    incr q
  done;
  Array.of_list (List.rev !found)

(* [with_page] on a resident page, on a page the pool must read (after
   [drop] empties it), and a bare [Device.read], each averaged. *)
let pool_timing pool =
  let dev = Pool.device pool in
  let pages = written_pages dev ~want:4_096 in
  let hits = 200_000 in
  Pool.with_page pool pages.(0) ~dirty:false ignore;
  let t0 = now () in
  for _ = 1 to hits do Pool.with_page pool pages.(0) ~dirty:false ignore done;
  let hit_ns = fi (now () - t0) /. fi hits in
  let rounds = max 1 (8_192 / Array.length pages) in
  let miss_total = ref 0 in
  for _ = 1 to rounds do
    Pool.drop pool;
    let t0 = now () in
    Array.iter (fun q -> Pool.with_page pool q ~dirty:false ignore) pages;
    miss_total := !miss_total + now () - t0
  done;
  let miss_ns = fi !miss_total /. fi (rounds * Array.length pages) in
  let t0 = now () in
  Array.iter (fun q -> ignore (Dev.read dev q)) pages;
  { hit_ns; miss_ns; read_ns = fi (now () - t0) /. fi (Array.length pages) }

(* --- per-layer metrics --- *)

type layers = {
  l_spans : Spans.t;
  t_single : pass;              (* traced single requests *)
  t_bulk : pass;                (* traced bulk requests *)
  overhead : int * int;         (* traced and untraced ns of the same requests *)
  pass_tel : Telemetry.snapshot;
  device_use : device_use;      (* the traced single requests' device traffic *)
  build_span : string;          (* span covering the Builder's work *)
  build_chars : int;
  build_tel : Telemetry.snapshot;
  batch_patterns : int;
  match_chars : int;
  nodes_checked : int;
  flush_ns : Iv.t;
  flush_pages : int;
  flush_writebacks : int;
  appended : int;
  pool : pool_timing option;
  row : Ps.t;
  major_gcs : int;
}

let layer_metrics l =
  let p = l.t_single.prof and bp = l.t_bulk.prof in
  let ops = fi (Samples.length l.t_single.lat) in
  let per_op x = ratio (fi x) ops in
  let walk = p.vertebra_steps + p.rib_steps + p.extrib_steps in
  let scan_ns = Spans.self_ns l.l_spans "search.scan" in
  let single_ns = Samples.sum l.t_single.lat in
  let traced_ns, untraced_ns = l.overhead in
  let accesses = p.pool_hits + p.pool_misses in
  let flushes = fi (Iv.length l.flush_ns) in
  let flush_ms =
    sorted_us ~from:0 ~until:(Iv.length l.flush_ns) (Iv.get l.flush_ns)
    |> Array.map (fun us -> us /. 1e3)
  in
  let flush_pct q = match Quantile.nearest_rank flush_ms q with Ok v -> v | Error _ -> 0. in
  let hit_ns, miss_ns, read_ns =
    match l.pool with Some t -> (t.hit_ns, t.miss_ns, t.read_ns) | None -> (0., 0., 0.)
  in
  let u = l.device_use in
  metrics_of per_layer
    [ ("packed.word_steps_per_op", per_op p.word_steps);
      ("packed.scalar_steps_per_op", per_op p.scalar_steps);
      ("packed.codes_per_step", ratio (fi p.vertebra_steps) (fi (p.word_steps + p.scalar_steps)));
      ("packed.mismatch_ns_per_kcode", mismatch_ns_per_kcode l.row);
      ("search.descent_ns",
       ratio (fi (Spans.self_ns l.l_spans "search.descent"))
         (fi (Spans.calls l.l_spans "search.descent")));
      ("search.steps_per_op", per_op walk);
      ("search.rib_extrib_share", ratio (fi (p.rib_steps + p.extrib_steps)) (fi walk));
      ("scan.ns_per_op", per_op scan_ns);
      ("scan.nodes_per_op", per_op p.scan_nodes);
      ("scan.ns_per_node", ratio (fi scan_ns) (fi p.scan_nodes));
      ("scan.found_per_knode", ratio (fi p.found *. 1000.) (fi p.scan_nodes));
      ("scan.batch_nodes_per_pattern", ratio (fi bp.scan_nodes) (fi l.batch_patterns));
      ("match.ns_per_char",
       ratio (fi (Spans.self_ns l.l_spans "match.matching_statistics")) (fi l.match_chars));
      ("match.nodes_checked_per_char", ratio (fi l.nodes_checked) (fi l.match_chars));
      ("match.link_steps_per_char", ratio (fi bp.link_steps) (fi l.match_chars));
      ("build.ns_per_char", ratio (fi (Spans.self_ns l.l_spans l.build_span)) (fi l.build_chars));
      ("build.ribs_per_kchar",
       ratio (fi (count l.build_tel "build.ribs_created") *. 1000.) (fi l.build_chars));
      ("build.extribs_per_kchar",
       ratio (fi (count l.build_tel "build.extribs_created") *. 1000.) (fi l.build_chars));
      ("persist.flush_ms_p50", flush_pct 50.);
      ("persist.flush_ms_p90", flush_pct 90.);
      ("persist.pages_written_per_flush", ratio (fi l.flush_pages) flushes);
      ("persist.journal_captures_per_flush",
       ratio (fi (count l.pass_tel "persistent.journal.captures")) flushes);
      ("persist.write_bytes_per_char",
       ratio (fi (count l.pass_tel "device.write_bytes")) (fi l.appended));
      ("pool.accesses_per_op", per_op accesses);
      ("pool.hit_rate", ratio (fi p.pool_hits) (fi accesses));
      ("pool.misses_per_op", per_op p.pool_misses);
      ("pool.evictions_per_op", per_op p.pool_evictions);
      ("pool.writebacks_per_flush", ratio (fi l.flush_writebacks) flushes);
      ("pool.io_retries", fi (p.io_retries + bp.io_retries));
      ("pool.hit_ns", hit_ns);
      ("pool.miss_ns", miss_ns);
      (* modelled: what the measured unit costs predict the pool's share
         of the traced single-request time to be *)
      ("pool.modelled_share",
       ratio ((fi p.pool_hits *. hit_ns) +. (fi p.pool_misses *. miss_ns)) (fi single_ns));
      ("device.reads_per_op", per_op u.reads);
      ("device.read_bytes_per_op", per_op p.device_read_bytes);
      ("device.sequential_frac", ratio (fi u.sequential) (fi u.accesses));
      ("device.sim_ms_per_op", ratio (u.sim_us /. 1e3) ops);
      ("device.read_ns", read_ns);
      ("gc.alloc_bytes_per_op", per_op p.alloc_bytes);
      ("gc.major_collections", fi l.major_gcs);
      ("instr.traced_overhead_frac", ratio (fi (traced_ns - untraced_ns)) (fi untraced_ns)) ]

let e2e_metrics ~setup_s ~p50 ~p90 ~bulk_per_s ~index_bpc ~rss_mb =
  metrics_of end_to_end
    [ ("setup_s", setup_s);
      ("req_p50_us", p50);
      ("req_p90_us", p90);
      ("bulk_per_s", bulk_per_s);
      ("index_bytes_per_char", index_bpc);
      ("peak_rss_mb", rss_mb) ]

let finish ~check ~e2e ~layers ~notes ~spans ~trace_name cfg =
  let trace_file =
    Option.map
      (fun s ->
        let file = Printf.sprintf "trace-%s-%d.json" trace_name cfg.seed in
        let path = Filename.concat cfg.dir file in
        Spans.write_chrome s path;
        path)
      spans
  in
  let attempted = Check.attempted check and failed = Check.failed check in
  { metrics = (match layers with Some l -> layer_metrics l | None -> e2e);
    notes = note "failed_frac" (ratio (fi failed) (fi attempted)) "frac" :: notes;
    attempted; failed; diagnostics = Check.diagnostics check; trace_file }

let expect_answer check ~what answers i expected =
  let got = Samples.get answers i in
  Check.expect check (got = expected) (fun () ->
      if got = failed_answer then Printf.sprintf "%s %d raised" what i
      else Printf.sprintf "%s %d: answered %d, oracle %d" what i got expected)

(* Every answer of the untraced and (if any) traced passes against the
   oracle: [single i] expects single request [i]'s answer, [bulk a] the
   [a]-th bulk answer. *)
let check_phases ph ~single_what ~single ~bulk_what ~bulk =
  let check = Check.create () in
  let passes =
    match ph.traced with
    | Some (ts, tb, _, _) -> [ (ph.single, ph.bulk); (ts, tb) ]
    | None -> [ (ph.single, ph.bulk) ]
  in
  List.iter
    (fun (sp, bp) ->
      for i = 0 to Samples.length sp.answers - 1 do
        expect_answer check ~what:single_what sp.answers i (single i)
      done;
      for a = 0 to Samples.length bp.answers - 1 do
        expect_answer check ~what:bulk_what bp.answers a (bulk a)
      done)
    passes;
  check

(* [same_path] names the requests whose traced call path is the
   untraced one, the only ones [instr.traced_overhead_frac] may
   compare. *)
let layers_of ph spans ~same_path ~build_span ~build_chars ~build_tel ~batch_patterns
    ~match_chars ~nodes_checked ~pool ~row =
  Option.map
    (fun (ts, tb, tel, use) ->
      let traced, untraced =
        match same_path with `Single -> (ts, ph.single) | `Bulk -> (tb, ph.bulk)
      in
      { l_spans = spans; t_single = ts; t_bulk = tb;
        overhead = (Samples.sum traced.lat, Samples.sum untraced.lat);
        pass_tel = tel; device_use = use;
        build_span; build_chars; build_tel; batch_patterns; match_chars; nodes_checked;
        flush_ns = Iv.create (); flush_pages = 0; flush_writebacks = 0; appended = 0;
        pool; row; major_gcs = ph.major_gcs })
    ph.traced

(* --- mem-lookup --- *)

(* A homologous query: one window from each of [pieces] equal strata
   of the text, at seeded offsets, with 12% point mutations, the
   structure a related genome presents to the matcher.  Covering every
   stratum keeps the matcher's per-char cost from swinging with the
   seed. *)
let homologous cfg seq =
  let pieces = 35 in
  let piece = cfg.query_len / pieces and stratum = Ps.length seq / pieces in
  let rng = Rng.create ((cfg.seed * 7_919) + 1) in
  let q = Ps.create ~capacity:cfg.query_len (Ps.alphabet seq) in
  for k = 0 to pieces - 1 do
    let start = (k * stratum) + Rng.int rng (stratum - piece + 1) in
    for j = start to start + piece - 1 do Ps.append q (Ps.get seq j) done
  done;
  Bioseq.Synthetic.mutate ~rate:0.12 rng q

let mem_lookup cfg =
  let passes = reserve cfg None in
  let seq = corpus cfg.text_len in
  let n = Ps.length seq in
  let spans = tracer cfg in
  let engine, setup_s, build_tel =
    setup cfg spans
      ~build:(fun () -> Spine.Compact.engine (Spine.Compact.of_seq seq))
      ~dispose:ignore
  in
  let query = homologous cfg seq in
  let qlen = Ps.length query in
  let codes i = lookup_codes cfg seq ~limit:n (request_rng cfg ~stream:1 i) in
  let single pass i = lookup pass engine ~req:i (codes i) in
  (* summed over the traced pass's runs, whose chars are match_chars *)
  let nodes_checked = ref 0 in
  let bulk pass k =
    let r =
      request pass engine ~req:k (fun () ->
          call pass "match.matching_statistics" ~req:k (fun () ->
              E.matching_statistics engine query))
    in
    Samples.push pass.answers
      (match r with
       | Some (ms, stats) ->
         if Option.is_some pass.spans then
           nodes_checked := !nodes_checked + stats.E.nodes_checked;
         Check.digest_array ms
       | None -> failed_answer)
  in
  let ph =
    phases cfg passes spans ~single ~bulk ~bulk_items:qlen ~reset:ignore
      ~device:(fun () -> None)
  in
  let index_bpc = Spine.Space_report.bytes_per_char (E.space engine) in
  let n_bulk = Samples.length ph.bulk.answers in
  let st = Suffix_tree.build seq in
  let ms_digest = Check.digest_array (fst (Suffix_tree.matching_statistics st query)) in
  let check =
    check_phases ph ~single_what:"lookup"
      ~single:(fun i -> Bool.to_int (Suffix_tree.contains_codes st (codes i)))
      ~bulk_what:"matching_statistics" ~bulk:(fun _ -> ms_digest)
  in
  finish cfg ~check ~spans ~trace_name:"mem-lookup"
    ~e2e:
      (e2e_metrics ~setup_s ~p50:ph.p50 ~p90:ph.p90 ~bulk_per_s:ph.bulk_rate ~index_bpc
         ~rss_mb:ph.rss_mb)
    ~layers:
      (Option.bind spans (fun s ->
           layers_of ph s ~same_path:`Single ~build_span:"build" ~build_chars:n ~build_tel
             ~batch_patterns:0 ~match_chars:(n_bulk * qlen) ~nodes_checked:!nodes_checked
             ~pool:None ~row:seq))
    ~notes:
      (ph.latency_notes
       @ [ note "rounds" (fi ph.rounds) "count";
           note "bulk_runs" (fi n_bulk) "count";
           note "text_len" (fi n) "chars";
           note "query_len" (fi qlen) "chars" ])

(* --- mem-occurrences --- *)

(* The Zipf support: rank [r]'s pattern starts near the golden-ratio
   point (r+1)*phi mod 1 of the text, jittered by less than one stride,
   and the heaviest ranks get the longest (near-unique) patterns.  The
   seed moves every pattern, but which fraction of the text the heavy
   ranks make the scan cross stays put, so the latency mix does not
   swing with the seed. *)
let zipf_patterns cfg seq =
  let n = Ps.length seq in
  let rng = Rng.create ((cfg.seed * 7_919) + 2) in
  let stride = max 1 (n / cfg.distinct) in
  let lengths = cfg.max_len - cfg.min_len + 1 in
  Array.init cfg.distinct (fun r ->
      let len = cfg.max_len - (r mod lengths) in
      let golden = Float.rem (fi (r + 1) *. 0.6180339887498949) 1.0 in
      let p = int_of_float (golden *. fi (n - cfg.max_len - stride)) + Rng.int rng stride in
      Array.init len (fun j -> Ps.get seq (p + j)))

(* Zipf(s = 1) over ranks [0, k), as the inverse of its CDF at
   [u] in [0, 1). *)
let zipf_rank k =
  let cdf = Array.make k 0. in
  let acc = ref 0. in
  for r = 0 to k - 1 do
    acc := !acc +. (1. /. fi (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun u ->
    let target = u *. total in
    let lo = ref 0 and hi = ref (k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > target then hi := mid else lo := mid + 1
    done;
    !lo

(* Request [i] of a stream takes the Zipf rank at u = offset + i*phi
   mod 1, a low-discrepancy sequence: any run of consecutive requests
   (one round's, one batch's) holds the ranks close to their Zipf
   proportions, so a round's p50 does not depend on which patterns it
   happened to draw (each pattern's scan has its own fixed cost).  The
   seed sets the stream's offset. *)
let stream_rank zipf cfg ~stream =
  let offset = Rng.float (Rng.create ((cfg.seed * 7_919) + stream)) 1.0 in
  fun i -> zipf (Float.rem (offset +. (fi i *. 0.6180339887498949)) 1.0)

(* Share of the [(count, rank)] streams' requests that repeat a rank
   requested before. *)
let repeat_share streams =
  let seen = Hashtbl.create 4096 in
  let repeats = ref 0 and total = ref 0 in
  List.iter
    (fun (count, rank) ->
      for i = 0 to count - 1 do
        let r = rank i in
        incr total;
        if Hashtbl.mem seen r then incr repeats else Hashtbl.replace seen r ()
      done)
    streams;
  ratio (fi !repeats) (fi !total)

let mem_occurrences cfg =
  let passes = reserve cfg None in
  let seq = corpus cfg.text_len in
  let n = Ps.length seq in
  let spans = tracer cfg in
  let engine, setup_s, build_tel =
    setup cfg spans
      ~build:(fun () -> Spine.Compact.engine (Spine.Compact.of_seq seq))
      ~dispose:ignore
  in
  let pats = zipf_patterns cfg seq in
  let zipf = zipf_rank cfg.distinct in
  let single_rank = stream_rank zipf cfg ~stream:3 and bulk_rank = stream_rank zipf cfg ~stream:4 in
  let single pass i =
    let codes = pats.(single_rank i) in
    let len = Array.length codes in
    let r =
      request pass engine ~req:i (fun () ->
          let p = call pass "packed.pattern" ~req:i (fun () -> E.pattern engine codes) in
          match pass.spans with
          | None -> E.occurrences_pattern engine p
          | Some _ ->
            (* traced: the descent and the scan as separate spans; this
               call path differs from the untraced one, so the overhead
               is priced on the run_batch requests instead *)
            (match call pass "search.descent" ~req:i (fun () -> E.find_first_pattern engine p) with
             | None -> []
             | Some first ->
               let ends =
                 call pass "search.scan" ~req:i (fun () ->
                     E.occurrences_batch engine [| (first, len) |])
               in
               List.rev (Iv.fold ends.(0) ~init:[] ~f:(fun acc e -> (e - len) :: acc))))
    in
    Samples.push pass.answers (match r with Some occ -> Check.digest occ | None -> failed_answer)
  in
  let bulk pass k =
    let patterns = List.init batch (fun j -> pats.(bulk_rank ((k * batch) + j))) in
    push_digests pass batch
      (request pass engine ~req:k (fun () ->
           call pass "engine.run_batch" ~req:k (fun () -> E.run_batch engine patterns)))
  in
  let ph =
    phases cfg passes spans ~single ~bulk ~bulk_items:batch ~reset:ignore
      ~device:(fun () -> None)
  in
  let index_bpc = Spine.Space_report.bytes_per_char (E.space engine) in
  let n_single = Samples.length ph.single.answers and n_batched = Samples.length ph.bulk.answers in
  let st = Suffix_tree.build seq in
  let oracle = Hashtbl.create 4096 in
  let expected r =
    match Hashtbl.find_opt oracle r with
    | Some d -> d
    | None ->
      let d = Check.digest (Suffix_tree.occurrences st pats.(r)) in
      Hashtbl.replace oracle r d;
      d
  in
  let check =
    check_phases ph ~single_what:"occurrences"
      ~single:(fun i -> expected (single_rank i))
      ~bulk_what:"run_batch pattern" ~bulk:(fun a -> expected (bulk_rank a))
  in
  finish cfg ~check ~spans ~trace_name:"mem-occurrences"
    ~e2e:
      (e2e_metrics ~setup_s ~p50:ph.p50 ~p90:ph.p90 ~bulk_per_s:ph.bulk_rate ~index_bpc
         ~rss_mb:ph.rss_mb)
    ~layers:
      (Option.bind spans (fun s ->
           layers_of ph s ~same_path:`Bulk ~build_span:"build" ~build_chars:n ~build_tel
             ~batch_patterns:n_batched ~match_chars:0 ~nodes_checked:0 ~pool:None ~row:seq))
    ~notes:
      (ph.latency_notes
       @ [ note "rounds" (fi ph.rounds) "count";
           note "batch_patterns" (fi n_batched) "count";
           note "repeat_share"
             (repeat_share [ (n_single, single_rank); (n_batched, bulk_rank) ]) "frac";
           note "text_len" (fi n) "chars" ])

(* --- paged-cold --- *)

let remove_file path = if Sys.file_exists path then Sys.remove path

(* Device page size of the persistent indexes.  Persistent gives each
   of its page regions 2^18 pages of sparse address space, so at 4 KiB
   pages its file's apparent size passes 6 GB, and a process under a
   file-size limit (RLIMIT_FSIZE) dies by SIGXFSZ on the first write
   past it.  At 128-byte pages the apparent size stays under 250 MB. *)
let page_size = 128

let paged_cold cfg =
  let passes = reserve cfg None in
  let seq = corpus cfg.text_len in
  let n = Ps.length seq in
  let spans = tracer cfg in
  let path = Filename.concat cfg.dir "paged-cold.db" in
  (* [open_] knows only the default page size, so the set-up makes the
     index durable with [flush] and starts the pool cold with [drop]
     rather than closing and reopening it *)
  let build () =
    let p = P.create ~frames:cfg.frames ~page_size ~path (Ps.alphabet seq) in
    P.append_seq p seq;
    P.flush p;
    Pool.drop (P.pool p);
    p
  in
  let idx, setup_s, build_tel = setup cfg spans ~build ~dispose:P.close in
  let engine = P.engine idx in
  let codes i = lookup_codes cfg seq ~limit:n (request_rng cfg ~stream:1 i) in
  let hits = { cfg with miss_frac = 0. } in
  let batch_codes a = lookup_codes hits seq ~limit:n (request_rng cfg ~stream:2 a) in
  let single pass i = lookup pass engine ~req:i (codes i) in
  let bulk pass k =
    let patterns = List.init batch (fun j -> batch_codes ((k * batch) + j)) in
    push_digests pass batch
      (request pass engine ~req:k (fun () ->
           call pass "engine.run_batch" ~req:k (fun () -> E.run_batch engine patterns)))
  in
  (* the traced replay starts from a cold pool too *)
  let reset () = Pool.drop (P.pool idx) in
  let ph =
    phases cfg passes spans ~single ~bulk ~bulk_items:batch ~reset
      ~device:(fun () -> Some (P.device idx))
  in
  let index_bpc = Spine.Space_report.bytes_per_char (E.space engine) in
  let pool = Option.map (fun _ -> pool_timing (P.pool idx)) spans in
  let row = P.sequence idx in
  let n_batched = Samples.length ph.bulk.answers in
  P.close idx;
  remove_file path;
  let st = Suffix_tree.build seq in
  let check =
    check_phases ph ~single_what:"lookup"
      ~single:(fun i -> Bool.to_int (Suffix_tree.contains_codes st (codes i)))
      ~bulk_what:"run_batch pattern"
      ~bulk:(fun a -> Check.digest (Suffix_tree.occurrences st (batch_codes a)))
  in
  finish cfg ~check ~spans ~trace_name:"paged-cold"
    ~e2e:
      (e2e_metrics ~setup_s ~p50:ph.p50 ~p90:ph.p90 ~bulk_per_s:ph.bulk_rate ~index_bpc
         ~rss_mb:ph.rss_mb)
    ~layers:
      (Option.bind spans (fun s ->
           layers_of ph s ~same_path:`Single ~build_span:"build" ~build_chars:n ~build_tel
             ~batch_patterns:n_batched ~match_chars:0 ~nodes_checked:0 ~pool ~row))
    ~notes:
      (ph.latency_notes
       @ [ note "rounds" (fi ph.rounds) "count";
           note "batch_patterns" (fi n_batched) "count";
           note "text_len" (fi n) "chars";
           note "pool_frames" (fi cfg.frames) "frames" ])

(* --- paged-append --- *)

(* Appended chunks per second of budget.  The chunk count is fixed by
   the budget rather than cut at a deadline: flush cost grows with the
   index, so a deadline would let faster code append a bigger index
   that is slower to flush, and hide its own gain. *)
let chunks_per_second = 20.

let paged_append cfg =
  let chunks = min cfg.max_chunks (max 5 (int_of_float (cfg.seconds *. chunks_per_second))) in
  let total = chunks * cfg.chunk in
  let per = cfg.lookups_per_chunk in
  let lookup_pass spans = fresh_pass spans ~requests:(chunks * per) ~answers:(chunks * per) in
  let untraced = lookup_pass None in
  let seq = corpus total in
  let alphabet = Ps.alphabet seq in
  let spans = tracer cfg in
  let path name = Filename.concat cfg.dir name in
  let create file () = P.create ~frames:cfg.frames ~page_size ~path:(path file) alphabet in
  (* each create starts from no file, like the first *)
  let idx, setup_s, _ =
    setup { cfg with traced = false } None ~build:(create "paged-append.db")
      ~dispose:(fun p -> P.close p; remove_file (path "paged-append.db"))
  in
  let slice c =
    let s = Ps.create ~capacity:cfg.chunk alphabet in
    for k = c * cfg.chunk to ((c + 1) * cfg.chunk) - 1 do Ps.append s (Ps.get seq k) done;
    s
  in
  let codes c j =
    lookup_codes cfg seq ~limit:((c + 1) * cfg.chunk) (request_rng cfg ~stream:3 ((c * per) + j))
  in
  let flush_ns = Iv.create () in
  (* per chunk of the untraced sweep: chars appended per second, the
     p50 and p90 of its lookups, and the host-speed reading.  The run
     reports the median over chunks, which follows the middle of the
     index's growth. *)
  let rates = Array.make chunks 0. and p50s = Array.make chunks 0.
  and p90s = Array.make chunks 0. and speeds = Array.make chunks 0. in
  let m = Host_speed.meter () in
  let use = fresh_device_use () in
  let flush_pages = ref 0 and flush_writebacks = ref 0 in
  (* Appends every chunk, flushing after each, then looks up on the
     grown prefix.  The traced pass also charges each flush its page
     writes and each lookup group its device traffic. *)
  let sweep idx pass =
    let engine = P.engine idx in
    let dev = P.device idx and pool = P.pool idx in
    let traced = Option.is_some pass.spans in
    for c = 0 to chunks - 1 do
      let s = slice c in
      if not traced then Host_speed.sample m;
      let t0 = now () in
      call pass "persist.append" ~req:c (fun () -> P.append_seq idx s);
      let t1 = now () in
      let writes0 = (Dev.stats dev).Dev.writes and wb0 = (Pool.stats pool).Pool.writebacks in
      let t1' = now () in
      call pass "persist.flush" ~req:c (fun () -> P.flush idx);
      let t2 = now () in
      Iv.push flush_ns (t2 - t1');
      if traced then begin
        flush_pages := !flush_pages + (Dev.stats dev).Dev.writes - writes0;
        flush_writebacks := !flush_writebacks + (Pool.stats pool).Pool.writebacks - wb0
      end
      else rates.(c) <- fi cfg.chunk /. secs (t1 - t0 + t2 - t1');
      let lat0 = Samples.length pass.lat in
      let lookups () =
        for j = 0 to per - 1 do lookup pass engine ~req:((c * per) + j) (codes c j) done
      in
      if traced then with_device_use use dev lookups
      else begin
        Host_speed.tick m;
        lookups ();
        Host_speed.sample m;
        speeds.(c) <- Host_speed.reading m;
        let p50, p90 = round_percentiles pass.lat ~from:lat0 in
        p50s.(c) <- p50;
        p90s.(c) <- p90
      end
    done
  in
  Gc.full_major ();
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  sweep idx untraced;
  let major_gcs = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let rss_mb = peak_rss_mb () in
  let p50, p90, rate, unscaled = round_values ~p50s ~p90s ~rates ~speeds in
  let latency_notes = pooled_notes ~min_round:per untraced.lat @ unscaled in
  let index_bpc = Spine.Space_report.bytes_per_char (E.space (P.engine idx)) in
  let flush_s = secs (Iv.fold flush_ns ~init:0 ~f:( + )) in
  let traced =
    Option.map
      (fun s ->
        let pass = lookup_pass (Some s) in
        Iv.clear flush_ns;
        let tidx = create "paged-append-traced.db" () in
        let (), tel = with_telemetry (fun () -> sweep tidx pass) in
        let row = P.sequence tidx in
        P.close tidx;
        (pass, tel, row))
      spans
  in
  let pool = Option.map (fun _ -> pool_timing (P.pool idx)) spans in
  P.close idx;
  List.iter (fun f -> remove_file (path f)) [ "paged-append.db"; "paged-append-traced.db" ];
  let check = Check.create () in
  let st = Suffix_tree.build seq in
  let check_pass pass =
    for c = 0 to chunks - 1 do
      let limit = (c + 1) * cfg.chunk in
      for j = 0 to per - 1 do
        let q = codes c j in
        let in_prefix =
          match Suffix_tree.first_occurrence st q with
          | Some start -> start + Array.length q <= limit
          | None -> false
        in
        expect_answer check ~what:"lookup" pass.answers ((c * per) + j) (Bool.to_int in_prefix)
      done
    done
  in
  check_pass untraced;
  Option.iter (fun (pass, _, _) -> check_pass pass) traced;
  finish cfg ~check ~spans ~trace_name:"paged-append"
    ~e2e:
      (e2e_metrics ~setup_s ~p50 ~p90 ~bulk_per_s:rate ~index_bpc ~rss_mb)
    ~layers:
      (match (spans, traced) with
       | Some s, Some (pass, tel, row) ->
         Some
           { l_spans = s; t_single = pass; t_bulk = fresh_pass None ~requests:0 ~answers:0;
             overhead = (Samples.sum pass.lat, Samples.sum untraced.lat);
             pass_tel = tel; device_use = use;
             build_span = "persist.append"; build_chars = total; build_tel = tel;
             batch_patterns = 0; match_chars = 0; nodes_checked = 0; flush_ns;
             flush_pages = !flush_pages; flush_writebacks = !flush_writebacks;
             appended = total; pool; row; major_gcs }
       | _ -> None)
    ~notes:
      (latency_notes
       @ [ note "chunks" (fi chunks) "count";
           note "appended_chars" (fi total) "chars";
           note "flush_s" flush_s "s";
           note "pool_frames" (fi cfg.frames) "frames" ])

(* --- the registry --- *)

let base =
  { seed = 42; seconds = 15.; traced = false; dir = ".bench_e2e"; text_len = 0;
    setup_reps = 3; frames = 0; min_len = 12; max_len = 64; miss_frac = 0.1;
    query_len = 0; distinct = 0; bulk_per_round = 0; chunk = 0; max_chunks = 0;
    lookups_per_chunk = 0 }

(* Why each workload exists is in BENCHMARK.json and README.md. *)
let all =
  [ { name = "mem-lookup";
      defaults =
        { base with text_len = 3_500_000; setup_reps = 5; max_len = 200; query_len = 350_000;
                    bulk_per_round = 1 };
      run = mem_lookup };
    (* 120 kbp keeps the index (~1.5 MB) inside a core's private L2:
       at 350 kbp the scan streams through the shared L3, and its
       latency followed other tenants' memory traffic from run to run
       (measurements under "Workloads" in README.md). *)
    { name = "mem-occurrences";
      defaults =
        { base with text_len = 120_000; setup_reps = 21; min_len = 8; max_len = 20;
                    distinct = 4_096; bulk_per_round = 40 };
      run = mem_occurrences };
    (* 512 frames of 128 bytes: 64 KiB, about a tenth of the index *)
    { name = "paged-cold";
      defaults =
        { base with text_len = 48_000; setup_reps = 9; frames = 512; bulk_per_round = 3 };
      run = paged_cold };
    (* 131,072 frames of 128 bytes: 16 MiB, more than the final index *)
    { name = "paged-append";
      defaults =
        { base with frames = 131_072; setup_reps = 101; chunk = 2_000; max_chunks = 250;
                    lookups_per_chunk = 200 };
      run = paged_append } ]

let find name = List.find_opt (fun w -> w.name = name) all

let tiny cfg =
  { cfg with seconds = 0.02; setup_reps = min cfg.setup_reps 2;
             text_len = min cfg.text_len 6_000; query_len = min cfg.query_len 500;
             distinct = min cfg.distinct 64; frames = min cfg.frames 8;
             bulk_per_round = min cfg.bulk_per_round 2;
             chunk = min cfg.chunk 300; max_chunks = min cfg.max_chunks 5;
             lookups_per_chunk = min cfg.lookups_per_chunk 200 }
