(* Tests for the workload runner and the engine space accounting it
   reports: deterministic request generation, report shape, exact
   quantiles and slowest list, and component attribution across every
   backend. *)

let seq_of n =
  let rng = Bioseq.Rng.create 99 in
  Bioseq.Synthetic.markov ~order:1 Bioseq.Alphabet.dna rng n

(* Every backend over the same sequence; persistent gets a scratch
   file which the cleanup removes. *)
let with_engines n f =
  let seq = seq_of n in
  let compact = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let disk = Spine.Disk.engine (Spine.Disk.build seq) in
  let path = Filename.temp_file "test_workload" ".db" in
  let p = Spine.Persistent.create ~path (Bioseq.Packed_seq.alphabet seq) in
  Spine.Persistent.append_seq p seq;
  Fun.protect
    ~finally:(fun () ->
      Spine.Persistent.close p;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      f seq
        [ ("compact", compact); ("disk", disk);
          ("persistent", Spine.Persistent.engine p) ])

let small_config =
  { Workload.default_config with
    Workload.requests = 60; batch_size = 4; cursor_steps = 8 }

let test_runner_shape () =
  with_engines 600 (fun seq engines ->
      List.iter
        (fun (name, engine) ->
          let r = Workload.run ~config:small_config engine seq in
          Alcotest.(check string) (name ^ " backend") name r.Workload.backend;
          Alcotest.(check int) (name ^ " requests") 60
            r.Workload.total_requests;
          let total_ops =
            List.fold_left (fun acc o -> acc + o.Workload.count) 0
              r.Workload.ops
          in
          Alcotest.(check int) (name ^ " op counts sum") 60 total_ops;
          List.iter
            (fun (o : Workload.op_report) ->
              if o.Workload.count > 0 then begin
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s quantiles ordered" name o.Workload.op)
                  true
                  (o.Workload.p50_ns <= o.Workload.p90_ns
                   && o.Workload.p90_ns <= o.Workload.p99_ns);
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s positive mean" name o.Workload.op)
                  true (o.Workload.mean_ns > 0.0)
              end)
            r.Workload.ops)
        engines)

let test_determinism () =
  with_engines 600 (fun seq engines ->
      let engine = List.assoc "compact" engines in
      let shape (r : Workload.report) =
        List.map
          (fun (o : Workload.op_report) ->
            (o.Workload.op, o.Workload.count, o.Workload.hits))
          r.Workload.ops
      in
      let a = Workload.run ~config:small_config engine seq in
      let b = Workload.run ~config:small_config engine seq in
      (* same seed: same request stream, so op counts and hit counts
         replay exactly (latencies of course differ) *)
      Alcotest.(check bool) "same op/hit shape" true (shape a = shape b);
      let c =
        Workload.run
          ~config:{ small_config with Workload.seed = 7 }
          engine seq
      in
      Alcotest.(check bool) "hits present" true
        (List.exists (fun (_, _, h) -> h > 0) (shape c)))

let test_slowest_requests () =
  with_engines 400 (fun seq engines ->
      let engine = List.assoc "compact" engines in
      let r =
        Workload.run
          ~config:{ small_config with Workload.slowest = 5 }
          engine seq
      in
      Alcotest.(check bool) "slowest non-empty" true (r.Workload.slowest <> []);
      Alcotest.(check bool) "at most K" true
        (List.length r.Workload.slowest <= 5);
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          a.Workload.s_ns >= b.Workload.s_ns && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "descending" true (sorted r.Workload.slowest);
      List.iter
        (fun s ->
          Alcotest.(check bool) "request id recovered" true
            (s.Workload.s_request >= 0 && s.Workload.s_request < 60))
        r.Workload.slowest)

(* The definition, independent of the runner's arithmetic: the smallest
   latency with at least [pct] percent of the sample at or below it. *)
let nearest_rank lats pct =
  let n = List.length lats in
  List.find
    (fun v -> 100 * List.length (List.filter (fun x -> x <= v) lats) >= pct * n)
    (List.sort compare lats)

(* A closed-loop clock that charges request [i] exactly [lats.(i)]: the
   runner reads it once at the start of the run, then at each request's
   start and end. *)
let scripted_clock lats =
  let t = ref 0 and calls = ref 0 in
  fun () ->
    incr calls;
    let c = !calls in
    if c >= 3 && c mod 2 = 1 && (c - 3) / 2 < Array.length lats then
      t := !t + lats.((c - 3) / 2);
    !t

let closed_loop_exact () =
  let seq = seq_of 600 in
  let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let n = 100 in
  (* distinct latencies in a scrambled order *)
  let lats = Array.init n (fun i -> (((i * 37) mod 101) + 1) * 1000) in
  let config =
    { small_config with Workload.requests = n; slowest = 5 }
  in
  let requests = Workload.plan ~config seq in
  let report, _ =
    Workload.drive ~clock:(scripted_clock lats) ~config engine requests
  in
  let op_of (r : Workload.request) =
    match r.Workload.r_payload with
    | Workload.Single _ -> "single"
    | Workload.Batch _ -> "batch"
    | Workload.Cursor _ -> "cursor"
  in
  List.iter
    (fun (o : Workload.op_report) ->
      let mine =
        List.filter_map
          (fun (r : Workload.request) ->
            if op_of r = o.Workload.op then Some lats.(r.Workload.r_index)
            else None)
          requests
      in
      let name q = o.Workload.op ^ " " ^ q in
      Alcotest.(check int) (name "count") (List.length mine) o.Workload.count;
      Alcotest.(check bool) (name "has requests") true (mine <> []);
      let exact q pct got =
        Alcotest.(check (float 0.0)) (name q)
          (float_of_int (nearest_rank mine pct)) got
      in
      exact "p50" 50 o.Workload.p50_ns;
      exact "p90" 90 o.Workload.p90_ns;
      exact "p99" 99 o.Workload.p99_ns;
      Alcotest.(check int) (name "max") (List.fold_left max 0 mine)
        o.Workload.max_ns;
      Alcotest.(check (float 1e-6)) (name "mean")
        (float_of_int (List.fold_left ( + ) 0 mine)
         /. float_of_int (List.length mine))
        o.Workload.mean_ns)
    report.Workload.ops;
  let expected =
    List.map
      (fun (r : Workload.request) ->
        (lats.(r.Workload.r_index), r.Workload.r_index, op_of r))
      requests
    |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
    |> List.filteri (fun i _ -> i < 5)
  in
  Alcotest.(check (list (triple int int string))) "the five largest, named"
    expected
    (List.map
       (fun s -> (s.Workload.s_ns, s.Workload.s_request, s.Workload.s_op))
       report.Workload.slowest)

(* Open loop: latency runs from each request's scheduled start, and the
   slowest list reads the same record, so its head is the max of its
   op.  A jittery clock (one read in seven jumps 2.5 ms) makes requests
   fall behind the 1 ms schedule and queue. *)
let open_loop_slowest () =
  let seq = seq_of 600 in
  let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let t = ref 0 and calls = ref 0 in
  let clock () =
    incr calls;
    t := !t + (if !calls mod 7 = 0 then 2_500_000 else 30_000);
    !t
  in
  let config =
    { small_config with Workload.requests = 40; rate = Some 1000.0; slowest = 3 }
  in
  let report, _ =
    Workload.drive ~clock ~sleep_ns:(fun ns -> t := !t + ns) ~config engine
      (Workload.plan ~config seq)
  in
  match report.Workload.slowest with
  | [] -> Alcotest.fail "no slowest requests"
  | top :: _ ->
    Alcotest.(check int) "slowest head is the run's max"
      (List.fold_left
         (fun m (o : Workload.op_report) -> max m o.Workload.max_ns)
         0 report.Workload.ops)
      top.Workload.s_ns;
    (match
       List.find_opt
         (fun (o : Workload.op_report) -> o.Workload.op = top.Workload.s_op)
         report.Workload.ops
     with
     | None -> Alcotest.failf "slowest head names no op: %S" top.Workload.s_op
     | Some o ->
       Alcotest.(check int) "and its op's max" o.Workload.max_ns
         top.Workload.s_ns)

let test_exact_latencies () =
  closed_loop_exact ();
  open_loop_slowest ()

let test_no_tracing_side_effect () =
  let was = Trace.is_enabled () in
  Trace.set_enabled false;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled was)
    (fun () ->
      let seq = seq_of 400 in
      let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      ignore (Workload.run ~config:small_config engine seq);
      Alcotest.(check bool) "tracing still off" false (Trace.is_enabled ());
      Alcotest.(check int) "no events recorded" 0
        (List.length (Trace.events ())))

let test_tick_hook () =
  with_engines 300 (fun seq engines ->
      let engine = List.assoc "compact" engines in
      let ticks = ref [] in
      let config =
        { small_config with Workload.requests = 50; tick_every = 20 }
      in
      let r =
        Workload.run ~config
          ~on_tick:(fun n -> ticks := n :: !ticks)
          engine seq
      in
      Alcotest.(check (list int)) "ticks at every 20 requests" [ 20; 40 ]
        (List.rev !ticks);
      Alcotest.(check int) "jsonl lines" 4 (List.length (Workload.jsonl r)))

(* every component's bytes, storage overlays included *)
let total_bytes (r : Spine.Space_report.t) =
  List.fold_left
    (fun acc c -> acc + c.Spine.Space_report.bytes)
    0 r.Spine.Space_report.components

(* the index footprint proper, overlays excluded *)
let index_bytes (r : Spine.Space_report.t) =
  Spine.Space_report.bytes_per_char r
  *. float_of_int (max 1 r.Spine.Space_report.chars)

let test_space_attribution () =
  (* the measured footprint is attributed to named components on all
     three backends: no catch-all "other" bucket *)
  with_engines 800 (fun _seq engines ->
      List.iter
        (fun (name, engine) ->
          let report = Spine.Engine.space engine in
          Alcotest.(check string) (name ^ " backend name") name
            report.Spine.Space_report.backend;
          Alcotest.(check int) (name ^ " chars") 800
            report.Spine.Space_report.chars;
          Alcotest.(check bool) (name ^ " non-empty") true
            (total_bytes report > 0);
          Alcotest.(check bool) (name ^ " every byte attributed") true
            (List.for_all
               (fun c -> c.Spine.Space_report.comp <> "other")
               report.Spine.Space_report.components);
          Alcotest.(check bool) (name ^ " index <= total") true
            (index_bytes report <= float_of_int (total_bytes report));
          Alcotest.(check bool) (name ^ " bytes/char positive") true
            (Spine.Space_report.bytes_per_char report > 0.0))
        engines)

let test_space_overlays () =
  with_engines 800 (fun _seq engines ->
      let components name =
        let r = Spine.Engine.space (List.assoc name engines) in
        List.map
          (fun c -> c.Spine.Space_report.comp)
          r.Spine.Space_report.components
      in
      (* paged backends report their storage overlays; in-memory ones
         don't *)
      Alcotest.(check bool) "disk has pagestore overlay" true
        (List.mem "pagestore_pages" (components "disk"));
      Alcotest.(check bool) "disk has pool overlay" true
        (List.mem "bufferpool_frames" (components "disk"));
      Alcotest.(check bool) "persistent has pagestore overlay" true
        (List.mem "pagestore_pages" (components "persistent"));
      Alcotest.(check bool) "compact has no overlay" false
        (List.mem "pagestore_pages" (components "compact"));
      (* overlays are excluded from the index footprint *)
      let disk = Spine.Engine.space (List.assoc "disk" engines) in
      Alcotest.(check bool) "disk index < total" true
        (index_bytes disk < float_of_int (total_bytes disk)))

let test_space_gauges () =
  let prev = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled prev)
    (fun () ->
      let seq = seq_of 200 in
      let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let report = Spine.Engine.space engine in
      match
        Telemetry.find (Telemetry.snapshot ()) "space.compact.total_bytes"
      with
      | Some (Telemetry.Level v) ->
        Alcotest.(check (float 0.0)) "gauge mirrors the report"
          (float_of_int (total_bytes report))
          v
      | _ -> Alcotest.fail "space gauge missing")

let test_qlog_roundtrip () =
  with_engines 600 (fun seq engines ->
      let engine = List.assoc "compact" engines in
      let path = Filename.temp_file "test_qlog" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Qlog.set_path None;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Qlog.set_path (Some path);
          let r = Workload.run ~config:small_config engine seq in
          Qlog.set_path None;
          Alcotest.(check int) "driver saw all requests" 60
            r.Workload.total_requests;
          match Qlog.read_file ~path with
          | Error e -> Alcotest.failf "qlog parse: %s" e
          | Ok records ->
            Alcotest.(check int) "one record per request" 60
              (List.length records);
            List.iteri
              (fun i (rec_ : Qlog.record) ->
                Alcotest.(check int) "sequential seq" i rec_.Qlog.q_seq;
                Alcotest.(check string) "backend recorded" "compact"
                  rec_.Qlog.q_backend;
                Alcotest.(check bool) "patterns recorded" true
                  (rec_.Qlog.q_patterns <> []))
              records;
            let offsets =
              List.map (fun (r : Qlog.record) -> r.Qlog.q_offset_ns) records
            in
            Alcotest.(check bool) "offsets monotone" true
              (List.sort compare offsets = offsets)))

(* Replay determinism (ISSUE satellite): with an injected clock and
   no-op sleeper, the same log against the same engine yields a
   byte-identical comparison report. *)
let test_replay_determinism () =
  with_engines 600 (fun seq engines ->
      let engine = List.assoc "compact" engines in
      let path = Filename.temp_file "test_replay" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Qlog.set_path None;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Qlog.set_path (Some path);
          ignore (Workload.run ~config:small_config engine seq);
          Qlog.set_path None;
          let records =
            match Qlog.read_file ~path with
            | Ok rs -> rs
            | Error e -> Alcotest.failf "qlog parse: %s" e
          in
          (* report determinism: fake nanosecond clock, no sleeping —
             two replays render the exact same comparison rows *)
          let mk_clock () =
            let t = ref 0 in
            fun () ->
              t := !t + 1000;
              !t
          in
          let outcome () =
            match
              Replay.drive_records ~clock:(mk_clock ())
                ~sleep_ns:(fun _ -> ())
                ~closed_loop:true ~engine records
            with
            | Ok o -> o
            | Error e -> Alcotest.failf "drive_records: %s" e
          in
          let a = outcome () and b = outcome () in
          Alcotest.(check int) "all records replayed" 60 a.Replay.rp_requests;
          Alcotest.(check (list (list string))) "identical comparison report"
            (Bench_gate.rows a.Replay.rp_comparisons)
            (Bench_gate.rows b.Replay.rp_comparisons);
          (* same engine, same stream: the deterministic cost entries
             match the recording exactly, so the gate passes *)
          Alcotest.(check (list string)) "no cost drift vs recording" []
            (List.filter_map
               (fun (c : Bench_gate.comparison) ->
                 if c.Bench_gate.c_group = "cost"
                    && List.mem c
                         (Bench_gate.failures a.Replay.rp_comparisons)
                 then Some c.Bench_gate.c_name
                 else None)
               a.Replay.rp_comparisons)))

let suite =
  [ Alcotest.test_case "runner shape (all backends)" `Quick test_runner_shape
  ; Alcotest.test_case "determinism" `Quick test_determinism
  ; Alcotest.test_case "slow ops captured" `Quick test_slowest_requests
  ; Alcotest.test_case "exact quantiles and slowest list" `Quick
      test_exact_latencies
  ; Alcotest.test_case "no tracing side effect" `Quick
      test_no_tracing_side_effect
  ; Alcotest.test_case "tick hook" `Quick test_tick_hook
  ; Alcotest.test_case "space attribution" `Quick test_space_attribution
  ; Alcotest.test_case "space overlays" `Quick test_space_overlays
  ; Alcotest.test_case "space gauges" `Quick test_space_gauges
  ; Alcotest.test_case "qlog roundtrip" `Quick test_qlog_roundtrip
  ; Alcotest.test_case "replay determinism" `Quick test_replay_determinism
  ]
