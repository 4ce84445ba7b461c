(* Tests for the telemetry core: counter/histogram determinism,
   snapshot-diff-reset round trips, disabled-mode no-op behaviour and
   exporter golden output. *)

let with_enabled b f =
  let prev = Telemetry.is_enabled () in
  Telemetry.set_enabled b;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled prev) f

(* The exporters' output, read back from the file a program writes. *)
let exported write =
  let path = Filename.temp_file "spine_telemetry" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write ~path;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

let jsonl snap = exported (fun ~path -> Telemetry.write_jsonl ~path snap)

let prometheus snap =
  exported (fun ~path -> Telemetry.write_prometheus ~path snap)

(* [field line key] is the raw value of [key] in one flat JSONL line *)
let field line key =
  let tag = Printf.sprintf "\"%s\":" key in
  let tl = String.length tag in
  let rec find i =
    if i + tl > String.length line then Alcotest.failf "no %s in %s" key line
    else if String.sub line i tl = tag then i + tl
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop j =
    if j >= String.length line || line.[j] = ',' || line.[j] = '}' then j
    else stop (j + 1)
  in
  String.sub line start (stop start - start)

(* the exported JSONL line of one metric of the live registry *)
let live_line name =
  match Telemetry.find (Telemetry.snapshot ()) name with
  | Some v -> (
    match jsonl [ (name, v) ] with
    | [ line ] -> line
    | _ -> Alcotest.failf "one line expected for %s" name)
  | None -> Alcotest.failf "no metric %s in snapshot" name

let count_of name =
  match Telemetry.find (Telemetry.snapshot ()) name with
  | Some (Telemetry.Count n) -> n
  | _ -> Alcotest.failf "no counter %s in snapshot" name

let test_counter () =
  with_enabled true (fun () ->
      let c = Telemetry.counter "test.counter" in
      let base = Telemetry.counter_value c in
      Telemetry.incr c;
      Telemetry.incr c;
      Telemetry.add c 40;
      Alcotest.(check int) "value" (base + 42) (Telemetry.counter_value c);
      (* registration is idempotent: the same metric comes back *)
      let c' = Telemetry.counter "test.counter" in
      Telemetry.incr c';
      Alcotest.(check int) "shared instance" (base + 43)
        (Telemetry.counter_value c);
      Alcotest.(check int) "snapshot agrees" (base + 43)
        (count_of "test.counter"))

let test_kind_clash () =
  with_enabled true (fun () ->
      let _ = Telemetry.counter "test.kind_clash" in
      Alcotest.check_raises "histogram over counter"
        (Invalid_argument
           "Telemetry: \"test.kind_clash\" already registered as another kind")
        (fun () -> ignore (Telemetry.histogram "test.kind_clash")))

let test_disabled_noop () =
  with_enabled false (fun () ->
      let c = Telemetry.counter "test.disabled_counter" in
      let g = Telemetry.gauge "test.disabled_gauge" in
      let h = Telemetry.histogram "test.disabled_hist" in
      let s = Telemetry.span "test.disabled_span" in
      Telemetry.incr c;
      Telemetry.add c 10;
      Telemetry.set g 3.5;
      Telemetry.observe h 7;
      let r = Telemetry.with_span s (fun () -> 42) in
      Alcotest.(check int) "with_span is a pass-through" 42 r;
      let snap = Telemetry.snapshot () in
      Alcotest.(check bool) "counter untouched" true
        (Telemetry.find snap "test.disabled_counter" = Some (Telemetry.Count 0));
      Alcotest.(check bool) "gauge untouched" true
        (Telemetry.find snap "test.disabled_gauge" = Some (Telemetry.Level 0.0));
      (match Telemetry.find snap "test.disabled_hist" with
      | Some (Telemetry.Dist { total = 0; sum = 0; _ }) -> ()
      | _ -> Alcotest.fail "histogram untouched");
      match Telemetry.find snap "test.disabled_span" with
      | Some (Telemetry.Timing { calls = 0; total_ns = 0 }) -> ()
      | _ -> Alcotest.fail "span untouched")

let test_histogram_buckets () =
  with_enabled true (fun () ->
      let h = Telemetry.histogram "test.hist_buckets" in
      Telemetry.reset ();
      List.iter (Telemetry.observe h) [ 0; 1; 2; 3; 4; 7; 8; 100 ];
      match Telemetry.find (Telemetry.snapshot ()) "test.hist_buckets" with
      | Some (Telemetry.Dist { counts; total; sum }) ->
        Alcotest.(check int) "total" 8 total;
        Alcotest.(check int) "sum" 125 sum;
        Alcotest.(check int) "bucket 0 (v=0)" 1 counts.(0);
        Alcotest.(check int) "bucket 1 (v=1)" 1 counts.(1);
        Alcotest.(check int) "bucket 2 (v=2,3)" 2 counts.(2);
        Alcotest.(check int) "bucket 3 (v=4..7)" 2 counts.(3);
        Alcotest.(check int) "bucket 4 (v=8)" 1 counts.(4);
        Alcotest.(check int) "bucket 7 (v=100)" 1 counts.(7);
        (* the exported [lo, hi, count] triples carry each bucket's
           bounds: bucket 0 is [0, 0], bucket 3 is [4, 7] *)
        let line = live_line "test.hist_buckets" in
        let buckets = "[[0,0,1],[1,1,1],[2,3,2],[4,7,2],[8,15,1],[64,127,1]]" in
        Alcotest.(check string) "exported bucket bounds" buckets
          (String.sub line
             (String.length line - String.length buckets - 1)
             (String.length buckets))
      | _ -> Alcotest.fail "histogram missing from snapshot")

let test_snapshot_diff_reset () =
  with_enabled true (fun () ->
      let c = Telemetry.counter "test.diff_counter" in
      let h = Telemetry.histogram "test.diff_hist" in
      Telemetry.add c 5;
      Telemetry.observe h 2;
      let before = Telemetry.snapshot () in
      Telemetry.add c 3;
      Telemetry.observe h 4;
      Telemetry.observe h 4;
      let delta = Telemetry.diff (Telemetry.snapshot ()) before in
      Alcotest.(check bool) "counter delta" true
        (Telemetry.find delta "test.diff_counter" = Some (Telemetry.Count 3));
      (match Telemetry.find delta "test.diff_hist" with
      | Some (Telemetry.Dist { total = 2; sum = 8; counts }) ->
        Alcotest.(check int) "delta bucket 3" 2 counts.(3);
        Alcotest.(check int) "delta bucket 2" 0 counts.(2)
      | _ -> Alcotest.fail "histogram delta wrong");
      Telemetry.reset ();
      Alcotest.(check int) "reset zeroes counters" 0
        (count_of "test.diff_counter");
      Alcotest.(check int) "reset keeps registration" 0
        (Telemetry.counter_value (Telemetry.counter "test.diff_counter")))

let test_span () =
  with_enabled true (fun () ->
      let outer = Telemetry.span "test.span_outer" in
      let inner = Telemetry.span "test.span_inner" in
      Telemetry.reset ();
      let r =
        Telemetry.with_span outer (fun () ->
            Telemetry.with_span inner (fun () -> ignore (Sys.opaque_identity 1));
            "done")
      in
      Alcotest.(check string) "result" "done" r;
      (* a span records even when its body raises *)
      (try
         Telemetry.with_span inner (fun () -> failwith "boom")
       with Failure _ -> ());
      let snap = Telemetry.snapshot () in
      let timing name =
        match Telemetry.find snap name with
        | Some (Telemetry.Timing { calls; total_ns }) -> (calls, total_ns)
        | _ -> Alcotest.failf "no span %s" name
      in
      let o_calls, o_ns = timing "test.span_outer" in
      let i_calls, i_ns = timing "test.span_inner" in
      Alcotest.(check int) "outer calls" 1 o_calls;
      Alcotest.(check int) "inner calls (incl. raising body)" 2 i_calls;
      Alcotest.(check bool) "monotonic durations" true (o_ns >= 0 && i_ns >= 0))

let test_jsonl_golden () =
  let counts = Array.make 63 0 in
  counts.(1) <- 2;
  counts.(3) <- 1;
  let snap =
    [ ("a.count", Telemetry.Count 3);
      ("b.dist", Telemetry.Dist { counts; total = 3; sum = 7 });
      ("c.span", Telemetry.Timing { calls = 2; total_ns = 1500 }) ]
  in
  Alcotest.(check (list string)) "jsonl"
    [ {|{"metric":"a.count","kind":"counter","value":3}|};
      {|{"metric":"b.dist","kind":"histogram","total":3,"sum":7,"p50":1,"p90":7,"p99":7,"max":7,"buckets":[[1,1,2],[4,7,1]]}|};
      {|{"metric":"c.span","kind":"span","calls":2,"total_ns":1500}|} ]
    (jsonl snap)

(* Interpolated quantiles, as the exporters report them: [p50], [p90],
   [p99] and [max] of a histogram with the given (bucket, count)s. *)
let test_quantiles () =
  let quantiles buckets =
    let counts = Array.make 63 0 in
    List.iter (fun (i, c) -> counts.(i) <- c) buckets;
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
    match jsonl [ ("q", Telemetry.Dist { counts; total; sum = 0 }) ] with
    | [ line ] -> List.map (field line) [ "p50"; "p90"; "p99"; "max" ]
    | _ -> Alcotest.fail "one line expected"
  in
  let check what expected buckets =
    Alcotest.(check (list string)) what expected (quantiles buckets)
  in
  check "empty: everything is 0" [ "0"; "0"; "0"; "0" ] [];
  (* single-value buckets (0 and 1) are exact at every quantile *)
  check "all ones" [ "1"; "1"; "1"; "1" ] [ (1, 5) ];
  (* interpolation inside one wide bucket: 10 observations in [4, 7]
     spread linearly across the bucket's range; max is the ceiling *)
  check "wide bucket interpolates" [ "5.5"; "6.7"; "7"; "7" ] [ (3, 10) ];
  (* two buckets: rank selection crosses the boundary *)
  check "two buckets" [ "1"; "7"; "7"; "7" ] [ (1, 2); (3, 1) ]

(* A live histogram's total, sum, max and p50 reach the exporters. *)
let test_hist_accessors () =
  with_enabled true (fun () ->
      let _ = Telemetry.histogram "test.hist_accessors" in
      Telemetry.reset ();
      let line () = live_line "test.hist_accessors" in
      Alcotest.(check string) "empty total" "0" (field (line ()) "total");
      Alcotest.(check string) "empty max" "0" (field (line ()) "max");
      List.iter
        (Telemetry.observe (Telemetry.histogram "test.hist_accessors"))
        [ 1; 1; 6; 100 ];
      let line = line () in
      Alcotest.(check string) "total" "4" (field line "total");
      Alcotest.(check string) "sum" "108" (field line "sum");
      (* 100 lives in bucket [64, 127]: max reports the bucket
         ceiling, an upper bound on the true maximum *)
      Alcotest.(check string) "max is the bucket ceiling" "127"
        (field line "max");
      Alcotest.(check string) "p50 exact in bucket 1" "1" (field line "p50"))

let test_prometheus_golden () =
  let counts = Array.make 63 0 in
  counts.(1) <- 2;
  counts.(3) <- 1;
  let snap =
    [ ("a.count", Telemetry.Count 3);
      ("b.dist", Telemetry.Dist { counts; total = 3; sum = 7 });
      ("c.span", Telemetry.Timing { calls = 2; total_ns = 1500 });
      ("g.level", Telemetry.Level 2.5) ]
  in
  Alcotest.(check (list string)) "prometheus"
    [ "# HELP spine_a_count a.count (counter)";
      "# TYPE spine_a_count counter";
      "spine_a_count 3";
      "# HELP spine_b_dist b.dist (log2-bucketed histogram)";
      "# TYPE spine_b_dist histogram";
      "spine_b_dist_bucket{le=\"1\"} 2";
      "spine_b_dist_bucket{le=\"7\"} 3";
      "spine_b_dist_bucket{le=\"+Inf\"} 3";
      "spine_b_dist_sum 7";
      "spine_b_dist_count 3";
      "# HELP spine_b_dist_quantile b.dist (interpolated quantiles)";
      "# TYPE spine_b_dist_quantile gauge";
      "spine_b_dist_quantile{q=\"0.5\"} 1";
      "spine_b_dist_quantile{q=\"0.9\"} 7";
      "spine_b_dist_quantile{q=\"0.99\"} 7";
      "spine_b_dist_quantile{q=\"1\"} 7";
      "# HELP spine_c_span_calls c.span (span call count)";
      "# TYPE spine_c_span_calls counter";
      "spine_c_span_calls 2";
      "# HELP spine_c_span_ns_total c.span (span total nanoseconds)";
      "# TYPE spine_c_span_ns_total counter";
      "spine_c_span_ns_total 1500";
      "# HELP spine_g_level g.level (gauge)";
      "# TYPE spine_g_level gauge";
      "spine_g_level 2.5" ]
    (prometheus snap)

let test_instrumented_build () =
  (* end-to-end determinism: constructing the paper's running example
     twice yields identical construction counters *)
  with_enabled true (fun () ->
      let build () =
        Telemetry.reset ();
        ignore (Spine.Compact.of_string Bioseq.Alphabet.dna "aaccacaaca");
        List.filter
          (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "build.")
          (Telemetry.snapshot ())
      in
      let first = build () and second = build () in
      Alcotest.(check bool) "deterministic" true (first = second);
      Alcotest.(check bool) "case1 seen" true
        (List.assoc "build.case1" first = Telemetry.Count 4);
      Alcotest.(check bool) "ribs created" true
        (List.assoc "build.ribs_created" first = Telemetry.Count 4);
      Alcotest.(check bool) "extribs created" true
        (List.assoc "build.extribs_created" first = Telemetry.Count 2))

let suite =
  [ Alcotest.test_case "counter" `Quick test_counter
  ; Alcotest.test_case "kind clash" `Quick test_kind_clash
  ; Alcotest.test_case "disabled no-op" `Quick test_disabled_noop
  ; Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets
  ; Alcotest.test_case "snapshot diff reset" `Quick test_snapshot_diff_reset
  ; Alcotest.test_case "span" `Quick test_span
  ; Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden
  ; Alcotest.test_case "quantiles" `Quick test_quantiles
  ; Alcotest.test_case "hist accessors" `Quick test_hist_accessors
  ; Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden
  ; Alcotest.test_case "instrumented build" `Quick test_instrumented_build
  ]
