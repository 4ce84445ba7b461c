(* End-to-end SPINE benchmark.

   main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     runs one workload in this process.  It prints every metric as
     `workload metric value unit`, then as its last line one JSON object
     {"correct", "attempted", "failed", "metrics"}; --out also writes the
     full record (seed, sizes, OCAMLRUNPARAM, notes) as JSON.  Exit 0 when
     every answer matched the oracle, 1 on a wrong answer or a failed run,
     2 on bad usage or a set instrumentation/fault variable.

   main.exe [--workload all|NAME] --runs K [...]
     runs each workload K times, each run in a fresh child process with
     seed+i, alternating the workload order between rounds, and prints the
     median and quartiles of every metric.  With no --workload and no
     --runs, every workload runs once, each in its own child. *)

module W = E2e.Workloads
module Quantile = E2e.Quantile
module Json = Bench_gate.Json

(* Any of these would change what is measured: the run must see the
   program with fault injection, the query log, tracing and telemetry
   all off. *)
let guarded_env = [ "SPINE_FAULTS"; "SPINE_QLOG"; "SPINE_TRACE"; "SPINE_TELEMETRY" ]

let json_float v = Printf.sprintf "%.17g" v

let json_metrics (ms : W.metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : W.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
         ms)
  ^ "}"

let ocamlrunparam () =
  match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> Printf.sprintf "%S" v | None -> "null"

let write_record path (w : W.workload) (cfg : W.config) (r : W.result) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
         \"ocamlrunparam\": %s, \"text_len\": %d, \"query_len\": %d, \
         \"pool_frames\": %d, \"chunk\": %d, \"correct\": %b, \"attempted\": %d, \
         \"failed\": %d, \"metrics\": %s, \"notes\": %s, \"trace_file\": %s}\n"
        w.name cfg.seed (json_float cfg.seconds) cfg.traced (ocamlrunparam ())
        cfg.text_len cfg.query_len cfg.frames cfg.chunk (r.failed = 0) r.attempted
        r.failed (json_metrics r.metrics) (json_metrics r.notes)
        (match r.trace_file with Some f -> Printf.sprintf "%S" f | None -> "null"))

let run_one (w : W.workload) (cfg : W.config) ~out =
  if not (Sys.file_exists cfg.dir) then Sys.mkdir cfg.dir 0o755;
  let r =
    try w.run cfg
    with e ->
      Printf.eprintf "e2e: %s failed: %s\n%!" w.name (Printexc.to_string e);
      exit 1
  in
  List.iter
    (fun (m : W.metric) ->
      if not (Float.is_finite m.value) then begin
        Printf.eprintf "e2e: %s %s is not a number (%g)\n%!" w.name m.name m.value;
        exit 1
      end)
    r.metrics;
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d OCAMLRUNPARAM=%s\n" w.name
    cfg.seed cfg.seconds (Bool.to_int cfg.traced) (ocamlrunparam ());
  List.iter
    (fun (m : W.metric) -> Printf.printf "%s %s %.6g %s\n" w.name m.name m.value m.unit_)
    (r.metrics @ r.notes);
  Option.iter (Printf.printf "# chrome trace: %s\n") r.trace_file;
  List.iter (Printf.eprintf "e2e: wrong answer: %s\n") r.diagnostics;
  if out <> "" then write_record out w cfg r;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (r.failed = 0) r.attempted r.failed (json_metrics r.metrics);
  exit (if r.failed = 0 then 0 else 1)

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* The metrics of a child's last output line, [None] if it printed no
   result. *)
let child_metrics lines =
  match List.rev lines with
  | [] -> None
  | last :: _ ->
    (match Json.parse last with
     | Ok j ->
       (match Json.member "metrics" j with
        | Some (Json.Obj fields) ->
          Some
            (List.filter_map
               (fun (name, m) ->
                 match Json.member "value" m with Some (Json.Num v) -> Some (name, v) | _ -> None)
               fields)
        | _ -> None)
     | Error _ -> None)

let orchestrate (ws : W.workload list) ~runs ~seed ~seconds ~trace ~out =
  let exe = Sys.executable_name in
  let values = Hashtbl.create 64 in
  let failures = ref 0 in
  for i = 0 to runs - 1 do
    let order = if i mod 2 = 0 then ws else List.rev ws in
    List.iter
      (fun (w : W.workload) ->
        let args =
          [| exe; "--workload"; w.name; "--seed"; string_of_int (seed + i);
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; string_of_int trace |]
        in
        let t0 = Unix.gettimeofday () in
        let ic = Unix.open_process_args_in exe args in
        let lines = read_lines ic in
        let status = Unix.close_process_in ic in
        List.iter print_endline lines;
        Printf.printf "# run %d %s seed %d took %.1f s\n" i w.name (seed + i)
          (Unix.gettimeofday () -. t0);
        (match (status, child_metrics lines) with
         | Unix.WEXITED 0, Some ms ->
           List.iter
             (fun (name, v) ->
               let key = (w.name, name) in
               let seen = Option.value ~default:[] (Hashtbl.find_opt values key) in
               Hashtbl.replace values key (v :: seen))
             ms
         | _ ->
           incr failures;
           Printf.eprintf "e2e: run %d of %s failed\n%!" i w.name);
        flush stdout)
      order
  done;
  let decl = if trace = 1 then W.per_layer else W.end_to_end in
  let rows =
    List.concat_map
      (fun (w : W.workload) ->
        List.filter_map
          (fun (name, unit_) ->
            match Hashtbl.find_opt values (w.name, name) with
            | None -> None
            | Some vs ->
              let a = Array.of_list vs in
              let q1, med, q3 =
                if Array.length a >= 2 then Quantile.quartiles a else (a.(0), a.(0), a.(0))
              in
              Some (w.name, name, unit_, Array.length a, q1, med, q3))
          decl)
      ws
  in
  Printf.printf "# %d run(s) per workload: workload metric median q1 q3 iqr/median unit\n" runs;
  List.iter
    (fun (w, name, unit_, _, q1, med, q3) ->
      Printf.printf "%s %s %.6g %.6g %.6g %.4f %s\n" w name med q1 q3
        (if med = 0. then 0. else (q3 -. q1) /. Float.abs med) unit_)
    rows;
  if out <> "" then begin
    let oc = open_out out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        Printf.fprintf oc "{\"runs\": %d, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
                           \"ocamlrunparam\": %s, \"failures\": %d, \"summary\": [%s]}\n"
          runs seed (json_float seconds) trace (ocamlrunparam ()) !failures
          (String.concat ",\n"
             (List.map
                (fun (w, name, unit_, n, q1, med, q3) ->
                  Printf.sprintf
                    "{\"workload\": %S, \"metric\": %S, \"unit\": %S, \"runs\": %d, \
                     \"median\": %s, \"q1\": %s, \"q3\": %s}"
                    w name unit_ n (json_float med) (json_float q1) (json_float q3))
                rows)))
  end;
  exit (if !failures = 0 then 0 else 1)

let () =
  (* a write past a file-size limit then fails as an error the run
     reports, instead of killing the process without a word *)
  Sys.set_signal Sys.sigxfsz Sys.Signal_ignore;
  List.iter
    (fun v ->
      if Option.is_some (Sys.getenv_opt v) then begin
        Printf.eprintf "e2e: %s is set; unset it to benchmark the program as shipped\n" v;
        exit 2
      end)
    guarded_env;
  let workload = ref "all" and seed = ref 42 and seconds = ref 15. and trace = ref 0
  and runs = ref 0 and out = ref "" in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME  one of the workloads, or all (default)");
      ("--seed", Arg.Set_int seed, "N  request-stream seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measuring budget per run (default 15)");
      ("--trace", Arg.Int (fun t ->
           if t <> 0 && t <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
           trace := t),
       "0|1  1 reports the per-layer metrics of a traced replay");
      ("--runs", Arg.Set_int runs, "K  run each workload K times in child processes");
      ("--out", Arg.Set_string out, "FILE  also write the JSON record here") ]
  in
  let usage =
    "main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--runs K] \
     [--out FILE]"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let ws =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "e2e: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all));
        exit 2
  in
  if !seconds <= 0. || !runs < 0 then begin
    prerr_endline "e2e: --seconds must be positive and --runs non-negative";
    exit 2
  end;
  match ws with
  | [ w ] when !runs = 0 ->
    run_one w
      { w.defaults with seed = !seed; seconds = !seconds; traced = !trace = 1 }
      ~out:!out
  | _ -> orchestrate ws ~runs:(max 1 !runs) ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
