(* Unit tests for the benchmark's own machinery, plus a smoke run of
   every workload on tiny inputs. *)

module Q = E2e.Quantile
module C = E2e.Check
module W = E2e.Workloads
module Json = Bench_gate.Json

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let refused = function
  | Ok v -> Alcotest.failf "expected a refusal, got %g" v
  | Error _ -> ()

let test_nearest_rank () =
  let s = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50" 500. (ok (Q.nearest_rank s 50.));
  Alcotest.(check (float 0.)) "p99 of 1000" 990. (ok (Q.nearest_rank s 99.));
  refused (Q.nearest_rank (Array.sub s 0 999) 99.);
  Alcotest.(check (float 0.)) "p50 of 20" 10. (ok (Q.nearest_rank (Array.sub s 0 20) 50.));
  refused (Q.nearest_rank (Array.sub s 0 19) 50.);
  refused (Q.nearest_rank s 100.);
  refused (Q.nearest_rank s 0.)

(* reference values from Python's statistics.quantiles(values, n=4) *)
let test_quartiles () =
  let triple = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Q.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "unsorted 1..4" (1.25, 2.5, 3.75) (Q.quartiles [| 4.; 1.; 3.; 2. |]);
  Alcotest.check triple "two values" (0.75, 1.5, 2.25) (Q.quartiles [| 2.; 1. |]);
  Alcotest.(check (float 0.)) "odd median" 2. (Q.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Q.median [| 4.; 1.; 3.; 2. |])

let test_host_speed () =
  let module H = E2e.Host_speed in
  Alcotest.(check (float 1e-12)) "at the reference speed" 1. (H.scale H.reference);
  Alcotest.(check (float 1e-12)) "host twice as slow" (0.5 ** H.exponent)
    (H.scale (2. *. H.reference));
  let m = H.meter () in
  H.sample m;
  H.sample m;
  Alcotest.(check bool) "reading" true (H.reading m > 0.);
  Alcotest.check_raises "a reading starts over"
    (Invalid_argument "Host_speed.reading: no probe taken") (fun () -> ignore (H.reading m))

let test_wrong_answer_counted () =
  let c = C.create () in
  for i = 0 to 9 do
    C.expect c (i <> 4) (fun () -> Printf.sprintf "answer %d" i)
  done;
  Alcotest.(check int) "attempted" 10 (C.attempted c);
  Alcotest.(check int) "failed" 1 (C.failed c);
  Alcotest.(check (list string)) "diagnostic" [ "answer 4" ] (C.diagnostics c)

let test_digest () =
  Alcotest.(check bool) "order matters" true (C.digest [ 1; 2 ] <> C.digest [ 2; 1 ]);
  Alcotest.(check bool) "one position off" true (C.digest [ 5; 9 ] <> C.digest [ 5; 10 ]);
  Alcotest.(check bool) "empty vs [0]" true (C.digest [] <> C.digest [ 0 ]);
  Alcotest.(check bool) "non-negative" true (C.digest [ max_int; -3 ] >= 0);
  Alcotest.(check int) "array = list" (C.digest [ 3; 1; 4 ]) (C.digest_array [| 3; 1; 4 |])

let names decl = List.map fst decl

let smoke (w : W.workload) ~traced () =
  let r = w.run (W.tiny { w.defaults with traced; dir = "." }) in
  Alcotest.(check (list string)) "diagnostics" [] r.diagnostics;
  Alcotest.(check int) "failed" 0 r.failed;
  Alcotest.(check bool) "attempted" true (r.attempted > 0);
  Alcotest.(check (list string)) "metric names"
    (names (if traced then W.per_layer else W.end_to_end))
    (List.map (fun (m : W.metric) -> m.name) r.metrics);
  List.iter
    (fun (m : W.metric) ->
      if not (Float.is_finite m.value && (traced || m.value > 0.)) then
        Alcotest.failf "%s %s = %g" w.name m.name m.value)
    r.metrics

(* Every matching run of mem-lookup repeats the same query, so the
   Matcher's per-char counts must not move with how many runs the run
   makes. *)
let test_match_counts_per_char () =
  let w = Option.get (W.find "mem-lookup") in
  let run bulk_per_round =
    let r =
      w.run { (W.tiny { w.defaults with traced = true; dir = "." }) with bulk_per_round }
    in
    let find ms name = (List.find (fun (m : W.metric) -> m.name = name) ms).value in
    ( find r.notes "bulk_runs",
      find r.metrics "match.nodes_checked_per_char",
      find r.metrics "match.link_steps_per_char" )
  in
  let runs_a, nodes_a, links_a = run 1 and runs_b, nodes_b, links_b = run 3 in
  Alcotest.(check (pair (float 0.) (float 0.))) "matching runs" (1., 3.) (runs_a, runs_b);
  Alcotest.(check bool) "nodes checked per char > 0" true (nodes_a > 0.);
  Alcotest.(check (float 0.)) "nodes checked per char" nodes_a nodes_b;
  Alcotest.(check (float 0.)) "link steps per char" links_a links_b

(* BENCHMARK.json must declare exactly what the workloads report. *)
let test_benchmark_json () =
  let text = In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all in
  let j = Json.parse_exn text in
  let list key =
    match Json.member key j with Some (Json.List l) -> l | _ -> Alcotest.failf "no %s list" key
  in
  let str key o =
    match Json.member key o with Some (Json.Str s) -> s | _ -> Alcotest.failf "no %s" key
  in
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : W.workload) -> w.name) W.all)
    (List.map (str "name") (list "workloads"));
  let declared key = List.map (fun o -> (str "name" o, str "unit" o)) (list key) in
  Alcotest.(check (list (pair string string))) "end_to_end" W.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" W.per_layer (declared "per_layer")

let () =
  Alcotest.run "e2e"
    [ ( "quantile",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "host speed" `Quick test_host_speed ] );
      ( "check",
        [ Alcotest.test_case "one wrong answer is counted" `Quick test_wrong_answer_counted;
          Alcotest.test_case "digest" `Quick test_digest ] );
      ( "benchmark.json",
        [ Alcotest.test_case "declares the reported metrics" `Quick test_benchmark_json ] );
      ( "layers",
        [ Alcotest.test_case "match counts per char ignore the budget" `Quick
            test_match_counts_per_char ] );
      ( "smoke",
        List.concat_map
          (fun (w : W.workload) ->
            [ Alcotest.test_case (w.name ^ " untraced") `Quick (smoke w ~traced:false);
              Alcotest.test_case (w.name ^ " traced") `Quick (smoke w ~traced:true) ])
          W.all ) ]
