(* Tests for the bench trajectory regression gate: the hand-rolled JSON
   parser, artifact schema extraction, and the tolerance classifier. *)

let artifact ?(t3 = "0.41") ?(extra = "") ?(micro = true) () =
  Printf.sprintf
    {|{
  "schema": "spine-bench/1",
  "config": {"scale": 0.002, "disk_scale": 0.0005, "bench_scale": 0.01},
  "experiments": [
    {"name": "table2", "wall_s": 1.25},
    {"name": "table3", "wall_s": %s}%s
  ],
  "micro": [
    {"name": "construct/fast", "ns_per_run": %s},
    {"name": "match/compact", "ns_per_run": null}
  ]
}|}
    t3 extra
    (if micro then "1520.5" else "null")

(* --- parser --- *)

let test_json_values () =
  let open Bench_gate.Json in
  Alcotest.(check bool) "null" true (parse_exn "null" = Null);
  Alcotest.(check bool) "true" true (parse_exn " true " = Bool true);
  Alcotest.(check bool) "int" true (parse_exn "42" = Num 42.0);
  Alcotest.(check bool) "negative float" true
    (parse_exn "-2.5e2" = Num (-250.0));
  Alcotest.(check bool) "string escapes" true
    (parse_exn {|"a\"b\\c\ndA"|} = Str "a\"b\\c\ndA");
  Alcotest.(check bool) "empty containers" true
    (parse_exn {|{"a": [], "b": {}}|}
     = Obj [ ("a", List []); ("b", Obj []) ]);
  Alcotest.(check bool) "nested" true
    (parse_exn {|[1, {"x": [true, null]}]|}
     = List [ Num 1.0; Obj [ ("x", List [ Bool true; Null ]) ] ])

let test_json_errors () =
  let fails s =
    match Bench_gate.Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S should fail" s
    | Error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails {|{"a" 1}|};
  fails "1 2";
  fails {|"unterminated|};
  fails "nulle"

(* an artifact as the gate reads it: from a file *)
let of_string text =
  let path = Filename.temp_file "spine_bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc text);
      Bench_gate.load ~path)

let test_artifact_entries () =
  match of_string (artifact ()) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok b ->
    Alcotest.(check string) "schema" "spine-bench/1" b.Bench_gate.schema;
    let names =
      List.map
        (fun e -> (e.Bench_gate.group, e.Bench_gate.name))
        b.Bench_gate.entries
    in
    Alcotest.(check bool) "experiments present" true
      (List.mem ("experiments", "table2") names
       && List.mem ("experiments", "table3") names);
    Alcotest.(check bool) "micro present" true
      (List.mem ("micro", "construct/fast") names);
    let find name =
      List.find (fun e -> e.Bench_gate.name = name) b.Bench_gate.entries
    in
    Alcotest.(check bool) "wall_s unit" true
      ((find "table2").Bench_gate.unit_ = "wall_s");
    Alcotest.(check bool) "value read" true
      ((find "table2").Bench_gate.value = Some 1.25);
    Alcotest.(check bool) "null value maps to None" true
      ((find "match/compact").Bench_gate.value = None)

let test_missing_schema () =
  match of_string {|{"experiments": []}|} with
  | Ok _ -> Alcotest.fail "missing schema should be rejected"
  | Error _ -> ()

(* --- comparison --- *)

let baseline s =
  match of_string s with
  | Ok b -> b
  | Error e -> Alcotest.failf "baseline parse failed: %s" e

let verdicts comparisons =
  List.map
    (fun c ->
      ((c.Bench_gate.c_group, c.Bench_gate.c_name), c.Bench_gate.c_verdict))
    comparisons

let test_identical_passes () =
  let b = baseline (artifact ()) in
  let cmp = Bench_gate.compare_baselines ~tolerance:0.0 b b in
  Alcotest.(check int) "no failures" 0
    (List.length (Bench_gate.failures cmp));
  Alcotest.(check bool) "null vs null is incomparable, not a failure" true
    (List.assoc ("micro", "match/compact") (verdicts cmp)
     = Bench_gate.Incomparable)

let test_injected_regression_detected () =
  let old_b = baseline (artifact ()) in
  (* inject a 3x slowdown on one experiment *)
  let new_b = baseline (artifact ~t3:"1.23" ()) in
  let cmp = Bench_gate.compare_baselines ~tolerance:0.25 old_b new_b in
  Alcotest.(check bool) "table3 regressed" true
    (List.assoc ("experiments", "table3") (verdicts cmp)
     = Bench_gate.Regressed);
  Alcotest.(check bool) "table2 unaffected" true
    (List.assoc ("experiments", "table2") (verdicts cmp)
     = Bench_gate.Ok_within);
  Alcotest.(check int) "exactly one failure" 1
    (List.length (Bench_gate.failures cmp))

let test_tolerance_bounds () =
  let old_b = baseline (artifact ()) in
  let new_b = baseline (artifact ~t3:"0.49" ()) in
  (* 0.41 -> 0.49 is ~19.5% slower: inside 25%, outside 10% *)
  let loose = Bench_gate.compare_baselines ~tolerance:0.25 old_b new_b in
  Alcotest.(check int) "within 25%" 0
    (List.length (Bench_gate.failures loose));
  let tight = Bench_gate.compare_baselines ~tolerance:0.10 old_b new_b in
  Alcotest.(check int) "outside 10%" 1
    (List.length (Bench_gate.failures tight));
  (* an improvement never fails, whatever the tolerance *)
  let faster = baseline (artifact ~t3:"0.01" ()) in
  Alcotest.(check int) "improvement passes" 0
    (List.length
       (Bench_gate.failures
          (Bench_gate.compare_baselines ~tolerance:0.0 old_b faster)))

let test_removed_fails_added_informs () =
  let old_b = baseline (artifact ()) in
  let shrunk =
    baseline
      {|{"schema": "spine-bench/1",
         "experiments": [{"name": "table2", "wall_s": 1.25}],
         "micro": []}|}
  in
  let cmp = Bench_gate.compare_baselines ~tolerance:0.5 old_b shrunk in
  Alcotest.(check bool) "table3 removed" true
    (List.assoc ("experiments", "table3") (verdicts cmp) = Bench_gate.Removed);
  Alcotest.(check bool) "removed is a failure" true
    (List.length (Bench_gate.failures cmp) >= 1);
  let grown =
    baseline (artifact ~extra:{|, {"name": "table9", "wall_s": 0.5}|} ())
  in
  let cmp = Bench_gate.compare_baselines ~tolerance:0.5 old_b grown in
  Alcotest.(check bool) "table9 added" true
    (List.assoc ("experiments", "table9") (verdicts cmp) = Bench_gate.Added);
  Alcotest.(check int) "added is not a failure" 0
    (List.length (Bench_gate.failures cmp))

let test_null_transitions () =
  let old_b = baseline (artifact ()) in
  (* a fit that starts failing (value -> null) is incomparable, not a
     regression: the measurement is missing, not worse *)
  let new_b = baseline (artifact ~micro:false ()) in
  let cmp = Bench_gate.compare_baselines ~tolerance:0.25 old_b new_b in
  Alcotest.(check bool) "num -> null incomparable" true
    (List.assoc ("micro", "construct/fast") (verdicts cmp)
     = Bench_gate.Incomparable);
  Alcotest.(check int) "no failures" 0
    (List.length (Bench_gate.failures cmp))

let test_noise_floor () =
  let old_b =
    baseline
      {|{"schema": "spine-bench/1",
         "experiments": [{"name": "tiny", "wall_s": 0.0001},
                         {"name": "big", "wall_s": 2.0}]}|}
  in
  let new_b =
    baseline
      {|{"schema": "spine-bench/1",
         "experiments": [{"name": "tiny", "wall_s": 0.0009},
                         {"name": "big", "wall_s": 9.0}]}|}
  in
  (* both 4.5-9x slower; the floor forgives only the sub-millisecond one *)
  let cmp =
    Bench_gate.compare_baselines
      ~floors:[ ("wall_s", 0.01) ]
      ~tolerance:0.25 old_b new_b
  in
  Alcotest.(check bool) "tiny forgiven below the floor" true
    (List.assoc ("experiments", "tiny") (verdicts cmp)
     = Bench_gate.Ok_within);
  Alcotest.(check bool) "big still regresses" true
    (List.assoc ("experiments", "big") (verdicts cmp) = Bench_gate.Regressed);
  (* without the floor, both regress *)
  let strict = Bench_gate.compare_baselines ~tolerance:0.25 old_b new_b in
  Alcotest.(check int) "no floor: both fail" 2
    (List.length (Bench_gate.failures strict))

let test_rows_shape () =
  let b = baseline (artifact ()) in
  let rows = Bench_gate.rows (Bench_gate.compare_baselines ~tolerance:0.1 b b) in
  Alcotest.(check int) "one row per benchmark" 4 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "7 columns" 7 (List.length row))
    rows

let suite =
  [ Alcotest.test_case "json values" `Quick test_json_values
  ; Alcotest.test_case "json errors" `Quick test_json_errors
  ; Alcotest.test_case "artifact entries" `Quick test_artifact_entries
  ; Alcotest.test_case "missing schema" `Quick test_missing_schema
  ; Alcotest.test_case "identical passes" `Quick test_identical_passes
  ; Alcotest.test_case "injected regression detected" `Quick
      test_injected_regression_detected
  ; Alcotest.test_case "tolerance bounds" `Quick test_tolerance_bounds
  ; Alcotest.test_case "removed fails, added informs" `Quick
      test_removed_fails_added_informs
  ; Alcotest.test_case "null transitions" `Quick test_null_transitions
  ; Alcotest.test_case "noise floor" `Quick test_noise_floor
  ; Alcotest.test_case "rows shape" `Quick test_rows_shape
  ]
