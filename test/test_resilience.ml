(* Tests for the engine-level resilience layer (Spine.Resilient):
   the buffer pool's exact retry budget under a wrapped call,
   cooperative deadlines, circuit-breaker transitions, exact parity
   after a transient-fault storm — plus the open-loop pacing fix
   (injected clock end to end), the typed SPINE_FAULTS parser,
   latency-injection attribution, and the scenario DSL parser. *)

module VC = Xutil.Virtual_clock
module R = Spine.Resilient
module FS = Pagestore.Fault_spec
module FD = Pagestore.Fault_device
module P = Spine.Persistent
module E = Spine.Engine

let dna = Bioseq.Alphabet.dna

let seq_of ?(seed = 4242) n =
  Bioseq.Synthetic.genomic dna (Bioseq.Rng.create seed) n

let tiny_engine () = Spine.Compact.engine (Spine.Compact.of_seq (seq_of 500))

let with_tmp f =
  let path = Filename.temp_file "spine_resil" ".db" in
  let result =
    try f path with e -> (try Sys.remove path with _ -> ()); raise e
  in
  (try Sys.remove path with _ -> ());
  result

let no_breaker =
  { R.default_config with R.deadline_ns = None; breaker_failures = 1000 }

(* a small persistent index on disk, reopened with a cold starved pool
   so every query reads the device *)
let with_cold_persistent ~chars f =
  with_tmp (fun path ->
      let seq = seq_of chars in
      (let p = P.create ~path dna in
       P.append_seq p seq;
       P.close p);
      let p = P.open_ ~frames:4 ~path () in
      Fun.protect ~finally:(fun () -> P.close p) (fun () -> f seq p))

(* --- the pool's retry budget under a wrapped call -------------------- *)

(* The buffer pool is the only retry loop: a storm of 15 transient read
   errors on one page fill is absorbed within its 16 attempts, one of
   16 escapes typed after exactly 16 device reads, and the wrapper
   runs each call once either way. *)
let test_retry_bounded () =
  with_cold_persistent ~chars:3_000 (fun seq p ->
      let t = R.create ~config:no_breaker (P.engine p) in
      let pat = Array.init 6 (fun k -> Bioseq.Packed_seq.get seq k) in
      let storm times =
        Pagestore.Buffer_pool.drop (P.pool p);
        FD.attach (FD.create [ FD.arm ~times FD.Read_error ]) (P.device p)
      in
      storm 15;
      let occ, prof =
        R.call t ~op:"q" (fun e ->
            E.profiled e (fun () -> Codes.occurrences e pat))
      in
      Alcotest.(check bool) "query found its planted pattern" true
        (occ <> []);
      Alcotest.(check int) "every error retried by the pool" 15
        prof.Profile.io_retries;
      let c = R.counts t in
      Alcotest.(check int) "completed" 1 c.R.completed;
      Alcotest.(check int) "no failures recorded (it recovered)" 0
        c.R.failures;
      (* exhaustion: the pool's budget is a hard bound *)
      storm 16;
      let reads () =
        (Pagestore.Device.stats (P.device p)).Pagestore.Device.reads
      in
      let before = reads () in
      (match R.call t ~op:"q" (fun e -> Codes.occurrences e pat) with
       | _ -> Alcotest.fail "a storm past the budget must escape"
       | exception
           Spine_error.Error (Spine_error.Io_failed { transient; _ }) ->
         Alcotest.(check bool) "error marked transient" true transient);
      Alcotest.(check int) "exactly 16 device reads" 16 (reads () - before);
      Alcotest.(check int) "one typed failure" 1 (R.counts t).R.failures;
      FD.detach (P.device p))

let test_deadline_inside_call () =
  let vc = VC.create () in
  let config =
    { no_breaker with R.deadline_ns = Some 10_000_000 (* 10 ms *) }
  in
  let t = R.create ~clock:(VC.now vc) ~config (tiny_engine ()) in
  (* the engine work overruns the budget and hits a cooperative check,
     the way Buffer_pool.with_page and the latency injector do *)
  let f _e =
    VC.advance vc 20_000_000;
    Pagestore.Deadline.check ();
    ()
  in
  (match R.call t ~op:"slow" f with
   | () -> Alcotest.fail "deadline overrun must raise"
   | exception Spine_error.Error (Spine_error.Timeout { op; _ }) ->
     Alcotest.(check string) "timeout names the op" "slow" op);
  Alcotest.(check int) "timeout counted" 1 (R.counts t).R.timeouts;
  (* disarmed after the call: no budget is left to overrun *)
  Alcotest.(check (option int)) "deadline disarmed after the call" None
    (Pagestore.Deadline.remaining_ns ())

(* The pool's own transient-I/O retries honour the deadline: each
   device attempt takes 2 ms of virtual time against a 1 ms budget, so
   the first failure is the last attempt. *)
let test_pool_retry_deadline () =
  let vc = VC.create () in
  let dev = Pagestore.Device.create ~page_size:64 () in
  let attempts = ref 0 in
  Pagestore.Device.set_hooks dev
    (Some
       { Pagestore.Device.on_read =
           (fun ~page ->
             incr attempts;
             VC.advance vc 2_000_000;
             Spine_error.io_failed ~op:Spine_error.Read ~page ~transient:true
               "injected storm");
         on_write = (fun ~page:_ ~phys:_ -> Pagestore.Device.Write_through) });
  let pool = Pagestore.Buffer_pool.create ~frames:2 dev in
  let read () = Pagestore.Buffer_pool.with_page pool 0 ~dirty:false Bytes.length in
  (match
     Pagestore.Deadline.with_deadline ~clock:(VC.now vc) ~op:"storm"
       ~deadline_ns:1_000_000 read
   with
   | _ -> Alcotest.fail "a read under an injected storm must fail"
   | exception Spine_error.Error (Spine_error.Timeout { op; _ }) ->
     Alcotest.(check string) "timeout names the op" "storm" op);
  Alcotest.(check int) "one device attempt, not four" 1 !attempts;
  (* unarmed, the same storm runs out the pool's attempts *)
  attempts := 0;
  (match read () with
   | _ -> Alcotest.fail "a read under an injected storm must fail"
   | exception Spine_error.Error (Spine_error.Io_failed _) -> ());
  Alcotest.(check int) "every attempt used without a deadline" 16 !attempts

(* A batch whose deadline expires inside the occurrence scan: every
   device read takes 1 ms of virtual time, and the budget runs out
   halfway between the end of the descents and the end of the scan.
   The batch raises a typed [Timeout] instead of returning the
   buffers filled so far, and the next unarmed batch is exact. *)
let test_deadline_mid_scan () =
  let seq = seq_of 4_000 in
  let d =
    Spine.Disk.build
      ~config:{ Spine.Disk.default_config with Spine.Disk.page_size = 64; frames = 4 }
      seq
  in
  let e = Spine.Disk.engine d in
  let vc = VC.create () in
  let reads = ref 0 in
  Pagestore.Device.set_hooks d.Spine.Disk.device
    (Some
       { Pagestore.Device.on_read =
           (fun ~page:_ ->
             incr reads;
             VC.advance vc 1_000_000);
         on_write = (fun ~page:_ ~phys:_ -> Pagestore.Device.Write_through) });
  let patterns =
    List.map
      (fun pos -> Array.init 8 (fun k -> Bioseq.Packed_seq.get seq (pos + k)))
      [ 100; 1_700; 3_900 ]
  in
  let cold_reads f =
    Spine.Disk.reset_io d;
    reads := 0;
    let r = f () in
    (!reads, r)
  in
  let descent, () =
    cold_reads (fun () ->
        List.iter
          (fun p -> ignore (E.contains_pattern e (E.pattern e p)))
          patterns)
  in
  let total, expected = cold_reads (fun () -> E.run_batch e patterns) in
  if total - descent < 100 then
    Alcotest.failf "the scan must dominate the batch's reads (%d of %d)"
      (total - descent) total;
  let budget = descent + ((total - descent) / 2) in
  let t =
    R.create ~clock:(VC.now vc)
      ~config:{ no_breaker with R.deadline_ns = Some (budget * 1_000_000) }
      e
  in
  Spine.Disk.reset_io d;
  reads := 0;
  (match R.call t ~op:"batch" (fun e -> E.run_batch e patterns) with
   | _ -> Alcotest.fail "the deadline must expire inside the scan"
   | exception Spine_error.Error (Spine_error.Timeout { op; _ }) ->
     Alcotest.(check string) "timeout names the op" "batch" op);
  Alcotest.(check bool)
    (Printf.sprintf "expired mid-scan (%d reads; descents %d, batch %d)"
       !reads descent total)
    true
    (!reads > descent && !reads < total);
  Alcotest.(check int) "timeout counted" 1 (R.counts t).R.timeouts;
  Pagestore.Device.set_hooks d.Spine.Disk.device None;
  let again = E.run_batch e patterns in
  Alcotest.(check (list (list int))) "the next batch is exact"
    (List.map (fun i -> i.E.positions) expected)
    (List.map (fun i -> i.E.positions) again)

(* --- circuit breaker ------------------------------------------------- *)

let test_breaker_transitions () =
  let vc = VC.create () in
  let config =
    {
      R.deadline_ns = None;
      breaker_failures = 3;
      breaker_cooldown_ns = 100_000_000;
      breaker_probes = 2;
    }
  in
  let t = R.create ~clock:(VC.now vc) ~config (tiny_engine ()) in
  let boom _e =
    Spine_error.io_failed ~op:Spine_error.Read ~page:0 ~transient:true "boom"
  in
  let ok _e = () in
  Alcotest.(check bool) "starts closed" true (R.breaker_state t = R.Closed);
  for _ = 1 to 3 do
    match R.call t ~op:"q" boom with
    | () -> Alcotest.fail "must fail"
    | exception Spine_error.Error (Spine_error.Io_failed _) -> ()
  done;
  Alcotest.(check bool) "trips open at the threshold" true
    (R.breaker_state t = R.Open);
  (* open: shed without touching the engine *)
  let touched = ref false in
  (match R.call t ~op:"q" (fun _ -> touched := true) with
   | () -> Alcotest.fail "must shed"
   | exception Spine_error.Error (Spine_error.Overloaded { state; _ }) ->
     Alcotest.(check string) "overloaded names the state" "open" state);
  Alcotest.(check bool) "shed call never reached the engine" false !touched;
  Alcotest.(check int) "shed counted" 1 (R.counts t).R.shed;
  (* cooldown elapses: half-open admits probes *)
  VC.advance vc 150_000_000;
  R.call t ~op:"q" ok;
  Alcotest.(check bool) "half-open after the first probe" true
    (R.breaker_state t = R.Half_open);
  R.call t ~op:"q" ok;
  Alcotest.(check bool) "closes after breaker_probes successes" true
    (R.breaker_state t = R.Closed);
  Alcotest.(check int) "recovery counted" 1 (R.counts t).R.recoveries;
  (* a half-open failure re-trips immediately *)
  for _ = 1 to 3 do
    try R.call t ~op:"q" boom with Spine_error.Error _ -> ()
  done;
  VC.advance vc 150_000_000;
  (try R.call t ~op:"q" boom with Spine_error.Error _ -> ());
  Alcotest.(check bool) "half-open failure re-trips" true
    (R.breaker_state t = R.Open);
  Alcotest.(check int) "three trips total" 3 (R.counts t).R.breaker_trips

(* --- storm parity on a real persistent engine ------------------------ *)

let test_storm_parity () =
  with_tmp (fun path ->
      let seq = seq_of 4_000 in
      let p = P.create ~frames:8 ~path dna in
      for i = 0 to Bioseq.Packed_seq.length seq - 1 do
        P.append p (Bioseq.Packed_seq.get seq i)
      done;
      P.flush p;
      let oracle = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let fd = FD.create ~seed:9 [ FD.arm ~times:9 FD.Read_error ] in
      FD.attach fd (P.device p);
      let t = R.create (P.engine p) in
      let retries = Telemetry.counter "pool.io_retries" in
      let before = Telemetry.counter_value retries in
      let rng = Bioseq.Rng.create 77 in
      for _ = 1 to 40 do
        let len = 3 + Bioseq.Rng.int rng 8 in
        let pos = Bioseq.Rng.int rng (4_000 - len) in
        let pat =
          Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k))
        in
        let got =
          R.call t ~op:"occurrences" (fun e ->
              Codes.occurrences e pat)
        in
        Alcotest.(check (list int)) "storm parity"
          (Codes.occurrences oracle pat)
          got
      done;
      let c = R.counts t in
      Alcotest.(check int) "every query completed" 40 c.R.completed;
      Alcotest.(check int) "zero failures after recovery" 0 c.R.failures;
      Alcotest.(check bool) "the pool absorbed the whole storm" true
        (Telemetry.counter_value retries - before >= 9);
      Alcotest.(check bool) "the storm is spent" true
        ((FD.stats fd).FD.read_errors > 0);
      P.close p)

(* --- open-loop pacing on the injected clock -------------------------- *)

let test_open_loop_injected_clock () =
  let vc = VC.create () in
  (* an adversarial sleeper: always undersleeps by half — the pacer
     must re-wait instead of starting early and recording negative
     latency against the schedule *)
  let under ns = VC.advance vc (max 1 (ns / 2)) in
  let seq = seq_of 2_000 in
  let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let config =
    {
      Workload.default_config with
      Workload.requests = 20;
      rate = Some 1000.0;
      mix = { Workload.single = 1; batch = 0; cursor = 0 };
      slowest = 20;
    }
  in
  let requests = Workload.plan ~config seq in
  let report, _ =
    Workload.drive ~clock:(VC.now vc) ~sleep_ns:under ~config engine requests
  in
  (* last request is due at 19 ms on the virtual clock: the run cannot
     have finished before the schedule it was paced against *)
  Alcotest.(check bool) "clock reached the last scheduled start" true
    (VC.now vc () >= 19_000_000);
  (* engine work costs no virtual time, so every latency measured from
     its scheduled start must be exactly zero — an early start would
     have shown up as a negative mean *)
  List.iter
    (fun (o : Workload.op_report) ->
      if o.Workload.count > 0 then begin
        Alcotest.(check (float 0.0001)) "no schedule skew in the mean" 0.0
          o.Workload.mean_ns;
        Alcotest.(check int) "no schedule skew in the max" 0 o.Workload.max_ns
      end)
    report.Workload.ops

(* --- typed SPINE_FAULTS parser --------------------------------------- *)

let test_fault_spec_parse () =
  (match FS.parse "seed=77;read_error:page=3-9:after=2:times=5;crash" with
   | Error e -> Alcotest.failf "parse failed: %s" (FS.error_to_string e)
   | Ok s ->
     Alcotest.(check bool) "seed" true (s.FS.seed = Some 77);
     (match s.FS.arms with
      | [ a; b ] ->
        Alcotest.(check bool) "kind" true (a.FS.s_kind = FS.Read_error);
        Alcotest.(check bool) "pages" true (a.FS.s_pages = Some (3, 9));
        Alcotest.(check int) "after" 2 a.FS.s_after;
        Alcotest.(check int) "times" 5 a.FS.s_times;
        Alcotest.(check bool) "crash" true (b.FS.s_kind = FS.Crash)
      | _ -> Alcotest.fail "expected two arms"));
  let err spec =
    match FS.parse spec with
    | Ok _ -> Alcotest.failf "%S must not parse" spec
    | Error e -> (e, FS.error_to_string e)
  in
  let e, msg = err "bogus" in
  Alcotest.(check bool) "typed unknown kind" true (e = FS.Unknown_kind "bogus");
  Alcotest.(check string) "legacy message preserved" "unknown fault kind \"bogus\"" msg;
  let e, _ = err "read_error:keep=2" in
  Alcotest.(check bool) "typed misplaced keep" true (e = FS.Misplaced_keep);
  let e, _ = err "read_error:page=9-3" in
  Alcotest.(check bool) "typed empty range" true
    (e = FS.Empty_page_range "9-3");
  let e, _ = err "read_error:times=x" in
  Alcotest.(check bool) "typed not-a-number" true (e = FS.Not_a_number "x")

(* --- latency injection charged to the query -------------------------- *)

let test_latency_attribution () =
  with_tmp (fun path ->
      let seq = seq_of 3_000 in
      (let p = P.create ~path dna in
       for i = 0 to Bioseq.Packed_seq.length seq - 1 do
         P.append p (Bioseq.Packed_seq.get seq i)
       done;
       P.close p);
      (* reopen with a cold starved pool so the query actually reads *)
      let p = P.open_ ~frames:4 ~path () in
      let slept = ref 0 in
      let l =
        Pagestore.Latency_device.create
          ~sleep_ns:(fun ns -> slept := !slept + ns)
          { Pagestore.Latency_device.read_ns = 5_000; write_ns = 0;
            jitter_ns = 1_000; seed = 5 }
      in
      Pagestore.Latency_device.attach l (P.device p);
      let pat = Array.init 6 (fun k -> Bioseq.Packed_seq.get seq k) in
      let occ, prof =
        let e = P.engine p in
        Spine.Engine.profiled e (fun () -> Codes.occurrences e pat)
      in
      Alcotest.(check bool) "query found its planted pattern" true (occ <> []);
      Alcotest.(check bool) "delays were injected" true (!slept > 0);
      Alcotest.(check int) "profile charged with every injected ns"
        !slept prof.Profile.injected_delay_ns;
      P.close p)

(* --- scenario DSL parser --------------------------------------------- *)

let test_scenario_parse () =
  let text =
    String.concat "\n"
      [ "# comment";
        "{\"scenario\": \"t\", \"seed\": 7}";
        "{\"stage\": \"build\", \"chars\": 1000}";
        "{\"stage\": \"faults\", \"spec\": \"read_error:times=2\"}";
        "{\"stage\": \"latency\", \"read_us\": 10}";
        "{\"stage\": \"workload\", \"requests\": 5, \"resilience\": {}}";
        "{\"stage\": \"crash\", \"chars\": 200, \"after_writes\": 3}";
        "{\"stage\": \"expect\", \"parity\": 10, \"scrub\": \"clean\"}" ]
  in
  (match Scenario.parse text with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok sc ->
     Alcotest.(check string) "name" "t" sc.Scenario.sc_name;
     Alcotest.(check int) "seed" 7 sc.Scenario.sc_seed;
     Alcotest.(check int) "six stages" 6 (List.length sc.Scenario.sc_stages));
  (match Scenario.parse "{\"scenario\":\"t\"}\n{\"stage\":\"nope\"}" with
   | Ok _ -> Alcotest.fail "unknown stage must not parse"
   | Error e ->
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "error names the line" true (contains e "line 2"))

let suite =
  [ Alcotest.test_case "retry bounded + budget exhaustion" `Quick
      test_retry_bounded
  ; Alcotest.test_case "cooperative deadline inside a call" `Quick
      test_deadline_inside_call
  ; Alcotest.test_case "pool retries honour the deadline" `Quick
      test_pool_retry_deadline
  ; Alcotest.test_case "breaker trip / half-open / close" `Quick
      test_breaker_transitions
  ; Alcotest.test_case "storm parity through retries (disk)" `Quick
      test_storm_parity
  ; Alcotest.test_case "open-loop pacing on the injected clock" `Quick
      test_open_loop_injected_clock
  ; Alcotest.test_case "fault spec typed errors" `Quick test_fault_spec_parse
  ; Alcotest.test_case "latency injection charged to the query" `Quick
      test_latency_attribution
  ; Alcotest.test_case "scenario DSL parser" `Quick test_scenario_parse
  ; Alcotest.test_case "batch deadline expiring mid-scan" `Quick
      test_deadline_mid_scan
  ]
