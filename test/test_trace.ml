(* Tests for the trace core: ring wraparound with head-drop, disabled
   no-op behaviour, deterministic sampling under a seeded RNG, span
   nesting, slow-op retention and exporter golden output.  Every test
   runs under [with_trace] so the process-global state (enabled flag,
   clock, sampling, capacity) is restored afterwards. *)

let with_trace f =
  Trace.set_enabled true;
  Trace.set_sample_rate 1.0;
  Trace.set_slow_us 0;
  Trace.set_seed 0x5eed;
  Trace.set_capacity 1024;
  Trace.reset ();
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_clock Xutil.Stopwatch.now_ns;
      Trace.set_sample_rate 1.0;
      Trace.set_slow_us 0;
      Trace.set_capacity 65536;
      Trace.reset ())

(* a deterministic clock advancing [step] ns per read *)
let fake_clock step =
  let t = ref (-step) in
  Trace.set_clock (fun () ->
      t := !t + step;
      !t)

(* an exporter's output, read back from the file it writes *)
let exported write =
  let path = Filename.temp_file "spine_trace" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write ~path;
      In_channel.with_open_text path In_channel.input_all)

let names () = List.map (fun e -> e.Trace.name) (Trace.events ())

let test_ring_wraparound () =
  with_trace (fun () ->
      Trace.set_capacity 4;
      for i = 1 to 6 do
        Trace.instant (Printf.sprintf "e%d" i) []
      done;
      Alcotest.(check (list string))
        "newest window survives a full ring" [ "e3"; "e4"; "e5"; "e6" ]
        (names ());
      Alcotest.(check int) "overwrites counted" 2 (Trace.dropped ());
      Trace.reset ();
      Alcotest.(check int) "reset clears the drop count" 0 (Trace.dropped ()))

let test_disabled_noop () =
  with_trace (fun () ->
      Trace.set_enabled false;
      Alcotest.(check bool) "not recording" false (Trace.on ());
      Trace.instant "i" [];
      Trace.begin_span "b" [];
      Trace.end_span ();
      let r = Trace.span "s" [] (fun () -> 41) in
      let r' = Trace.with_op "o" [] (fun () -> r + 1) in
      Alcotest.(check int) "span and with_op pass through" 42 r';
      Alcotest.(check int) "nothing recorded" 0
        (List.length (Trace.events ())))

let sampling_pattern seed =
  Trace.set_seed seed;
  Trace.set_sample_rate 0.5;
  Trace.reset ();
  List.init 32 (fun _ ->
      let before = List.length (Trace.events ()) in
      Trace.with_op "op" [] (fun () -> Trace.instant "x" []);
      List.length (Trace.events ()) > before)

let test_sampling_determinism () =
  with_trace (fun () ->
      let first = sampling_pattern 42 in
      let second = sampling_pattern 42 in
      Alcotest.(check (list bool))
        "same seed, same keep/drop pattern" first second;
      Alcotest.(check bool) "some operations kept" true
        (List.mem true first);
      Alcotest.(check bool) "some operations dropped" true
        (List.mem false first);
      let other = sampling_pattern 43 in
      Alcotest.(check bool) "different seed, different pattern" true
        (first <> other))

let test_span_nesting () =
  with_trace (fun () ->
      Trace.span "outer" [] (fun () ->
          Trace.span "inner" [] (fun () -> Trace.instant "leaf" []));
      Trace.begin_span "pair" [];
      Trace.end_span ();
      let shape =
        List.map (fun e -> (e.Trace.phase, e.Trace.name)) (Trace.events ())
      in
      Alcotest.(check bool)
        "begin/end pairs nest properly" true
        (shape
        = [ (Trace.Begin, "outer"); (Trace.Begin, "inner");
            (Trace.Instant, "leaf"); (Trace.End, "inner");
            (Trace.End, "outer"); (Trace.Begin, "pair");
            (Trace.End, "pair") ]))

let test_slow_op_retention () =
  with_trace (fun () ->
      (* every clock read advances 1 ms, so any with_op "lasts" 1 ms *)
      fake_clock 1_000_000;
      Trace.set_slow_us 500;
      Trace.with_op "slow" [ Trace.Int ("k", 7) ] (fun () -> ());
      (* sampled-out operations are still caught by the slow log *)
      Trace.set_sample_rate 0.0;
      Trace.with_op "slow_unsampled" [] (fun () -> ());
      Trace.set_sample_rate 1.0;
      (* raise the threshold: a 1 ms op is no longer slow *)
      Trace.set_slow_us 2_000;
      Trace.with_op "fast_enough" [] (fun () -> ());
      match Trace.slow_rows () with
      | [ [ _; a_name; a_ms; a_sampled; a_args ]; [ _; b_name; _; b_sampled; _ ] ]
        ->
        Alcotest.(check string) "first slow op" "slow" a_name;
        Alcotest.(check string) "its events were recorded" "yes" a_sampled;
        Alcotest.(check string) "duration kept" "1.000 ms" a_ms;
        Alcotest.(check string) "args kept" "k=7" a_args;
        Alcotest.(check string) "sampled-out op retained" "slow_unsampled"
          b_name;
        Alcotest.(check string) "marked as sampled out" "no" b_sampled
      | l -> Alcotest.failf "expected 2 slow ops, got %d" (List.length l))

let test_chrome_golden () =
  with_trace (fun () ->
      fake_clock 1_000;
      Trace.with_op "op" [ Trace.Int ("k", 1) ] (fun () ->
          Trace.instant "evt" [ Trace.Str ("s", "x") ]);
      Alcotest.(check string) "chrome trace-event JSON"
        ("{\"traceEvents\":["
        ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
           \"args\":{\"name\":\"op #1\"}},"
        ^ "{\"name\":\"op\",\"cat\":\"spine\",\"ph\":\"B\",\"ts\":0.000,\
           \"pid\":1,\"tid\":1,\"args\":{\"k\":1}},"
        ^ "{\"name\":\"evt\",\"cat\":\"spine\",\"ph\":\"i\",\"ts\":2.000,\
           \"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"s\":\"x\"}},"
        ^ "{\"name\":\"op\",\"cat\":\"spine\",\"ph\":\"E\",\"ts\":4.000,\
           \"pid\":1,\"tid\":1}]}")
        (exported (fun ~path -> Trace.write_chrome ~path)))

let test_jsonl_golden () =
  with_trace (fun () ->
      fake_clock 10;
      Trace.with_op "q" [] (fun () ->
          Trace.instant "step.rib" [ Trace.Int ("node", 3) ]);
      Alcotest.(check (list string)) "one JSON object per event"
        [ "{\"ts_ns\":0,\"ph\":\"B\",\"name\":\"q\",\"op\":1}";
          "{\"ts_ns\":20,\"ph\":\"i\",\"name\":\"step.rib\",\"op\":1,\
           \"args\":{\"node\":3}}";
          "{\"ts_ns\":40,\"ph\":\"E\",\"name\":\"q\",\"op\":1}" ]
        (exported (fun ~path -> Trace.write_jsonl ~path)
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")))

let test_instrumented_build () =
  with_trace (fun () ->
      let count name =
        List.length
          (List.filter (fun e -> e.Trace.name = name) (Trace.events ()))
      in
      let seq = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna "aaccacaaca" in
      let idx = Spine.Compact.of_seq seq in
      (* the paper's worked example: 4 case-1 closings, 4 ribs, 2 extribs *)
      Alcotest.(check int) "case1 events" 4 (count "build.case1");
      Alcotest.(check int) "rib events" 4 (count "build.rib");
      Alcotest.(check int) "extrib events" 2 (count "build.extrib");
      ignore (Codes.occurrences (Spine.Compact.engine idx) [| 0; 1; 0 |]);
      Alcotest.(check bool) "traversal steps recorded" true
        (count "step.vertebra" > 0 || count "step.rib" > 0);
      Alcotest.(check bool) "occurrence scan bracketed" true
        (count "search.scan" = 2))

let suite =
  [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound
  ; Alcotest.test_case "disabled no-op" `Quick test_disabled_noop
  ; Alcotest.test_case "sampling determinism" `Quick test_sampling_determinism
  ; Alcotest.test_case "span nesting" `Quick test_span_nesting
  ; Alcotest.test_case "slow-op retention" `Quick test_slow_op_retention
  ; Alcotest.test_case "chrome golden" `Quick test_chrome_golden
  ; Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden
  ; Alcotest.test_case "instrumented build" `Quick test_instrumented_build
  ]
