(* Synthetic query workloads over one Engine.t.  The generator is
   deterministic (Bioseq.Rng) so a (seed, config, sequence) triple
   replays the exact same request stream on any backend; only the
   measured latencies differ. *)

type mix = { single : int; batch : int; cursor : int }

type config = {
  requests : int;
  seed : int;
  min_len : int;
  max_len : int;
  batch_size : int;
  cursor_steps : int;
  miss_fraction : float;
  mix : mix;
  rate : float option;
  slowest : int;
  tick_every : int;
}

let default_config =
  { requests = 1000;
    seed = 42;
    min_len = 4;
    max_len = 12;
    batch_size = 16;
    cursor_steps = 24;
    miss_fraction = 0.1;
    mix = { single = 6; batch = 2; cursor = 2 };
    rate = None;
    slowest = 10;
    tick_every = 0 }

type op_report = {
  op : string;
  count : int;
  hits : int;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  timeouts : int;
  shed : int;
  failed : int;
}

type slow = { s_op : string; s_request : int; s_ns : int }

type report = {
  backend : string;
  total_requests : int;
  wall_ns : int;
  achieved_rps : float;
  offered_rps : float option;
  ops : op_report list;
  slowest : slow list;
}

(* --- per-op accumulation ---------------------------------------- *)

(* One record per completed request: its latency and its request
   index.  The report's quantiles and its slowest list are read off
   this record, so they cover exactly this run even though the global
   histograms accumulate across runs in one process. *)
type acc = {
  a_op : string;
  a_hist : Telemetry.histogram;  (* global: feeds the exposition formats *)
  lat_ns : Xutil.Int_vec.t;
  req : Xutil.Int_vec.t;
  mutable hits : int;
  (* typed rejections under a resilience policy; kept out of the
     latency record so sheds cannot fake a fast percentile *)
  mutable timeouts : int;
  mutable shed : int;
  mutable failed : int;
}

let acc backend op =
  { a_op = op;
    a_hist = Telemetry.histogram (Printf.sprintf "workload.%s.%s.ns" backend op);
    lat_ns = Xutil.Int_vec.create ();
    req = Xutil.Int_vec.create ();
    hits = 0; timeouts = 0; shed = 0; failed = 0 }

let record a ~hit ~request ns =
  Telemetry.observe a.a_hist ns;
  Xutil.Int_vec.push a.lat_ns ns;
  Xutil.Int_vec.push a.req request;
  if hit then a.hits <- a.hits + 1

(* Nearest rank over an ascending array: the smallest value with at
   least [pct] percent of the values at or below it, at index
   [ceil (pct * n / 100) - 1] in integer arithmetic; 0 when empty. *)
let quantiles sorted =
  let n = Array.length sorted in
  let rank pct =
    if n = 0 then 0.0 else float_of_int sorted.((((pct * n) + 99) / 100) - 1)
  in
  (rank 50, rank 90, rank 99)

let report_of_acc a =
  let sorted = Xutil.Int_vec.blit_to_array a.lat_ns in
  Array.sort compare sorted;
  let count = Array.length sorted in
  let p50_ns, p90_ns, p99_ns = quantiles sorted in
  { op = a.a_op;
    count;
    hits = a.hits;
    mean_ns =
      (if count = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 sorted) /. float_of_int count);
    p50_ns; p90_ns; p99_ns;
    max_ns = (if count = 0 then 0 else sorted.(count - 1));
    timeouts = a.timeouts;
    shed = a.shed;
    failed = a.failed }

(* The [k] largest latencies over every op's record, slowest first,
   equal latencies in request order. *)
let slowest_of accs k =
  List.concat_map
    (fun a ->
      List.init (Xutil.Int_vec.length a.lat_ns) (fun j ->
          { s_op = a.a_op; s_request = Xutil.Int_vec.get a.req j;
            s_ns = Xutil.Int_vec.get a.lat_ns j }))
    accs
  |> List.sort (fun a b -> compare (b.s_ns, a.s_request) (a.s_ns, b.s_request))
  |> List.filteri (fun i _ -> i < k)

(* The replay gate quantiles the *recorded* side of a comparison with
   exactly the function the replayed report uses. *)
let latency_quantiles ns_list =
  quantiles (List.sort compare ns_list |> Array.of_list)

(* --- request generation ----------------------------------------- *)

(* A pattern is either a random substring of the subject (guaranteed
   hit) or, with probability [miss_fraction], uniform random codes
   (an almost-certain miss on any non-trivial sequence). *)
let gen_pattern cfg rng seq =
  let n = Bioseq.Packed_seq.length seq in
  let sigma = Bioseq.Alphabet.size (Bioseq.Packed_seq.alphabet seq) in
  let len =
    let lo = max 1 cfg.min_len in
    let hi = max lo (min cfg.max_len (max 1 n)) in
    lo + Bioseq.Rng.int rng (hi - lo + 1)
  in
  if Bioseq.Rng.float rng 1.0 < cfg.miss_fraction || n < len then
    Array.init len (fun _ -> Bioseq.Rng.int rng sigma)
  else begin
    let pos = Bioseq.Rng.int rng (n - len + 1) in
    Array.init len (fun i -> Bioseq.Packed_seq.get seq (pos + i))
  end

let pick_op mix rng =
  let s = max 0 mix.single and b = max 0 mix.batch and c = max 0 mix.cursor in
  let total = s + b + c in
  if total = 0 then `Single
  else begin
    let r = Bioseq.Rng.int rng total in
    if r < s then `Single else if r < s + b then `Batch else `Cursor
  end

(* --- planned requests -------------------------------------------- *)

(* The generator and the driver are separate so that a request stream
   can come from somewhere other than the RNG — the replay path builds
   one from a recorded qlog and re-drives it through the exact same
   execution, measurement and logging code as a live run. *)

type payload =
  | Single of int array
  | Batch of int array list
  | Cursor of int array

type request = {
  r_index : int;
  r_payload : payload;
  r_offset_ns : int option;
}

let op_of_payload = function
  | Single _ -> `Single
  | Batch _ -> `Batch
  | Cursor _ -> `Cursor

let plan ?(config = default_config) seq =
  let cfg = config in
  let rng = Bioseq.Rng.create cfg.seed in
  let mk i =
    let op = pick_op cfg.mix rng in
    let payload =
      match op with
      | `Single -> Single (gen_pattern cfg rng seq)
      | `Batch ->
        Batch (List.init cfg.batch_size (fun _ -> gen_pattern cfg rng seq))
      | `Cursor ->
        (* a guaranteed-matching walk where possible so the cursor does
           real extension work; the driver restarts from the root on a
           mismatch *)
        let n = Bioseq.Packed_seq.length seq in
        let steps = max 1 cfg.cursor_steps in
        if n = 0 then Cursor [||]
        else begin
          let pos = Bioseq.Rng.int rng n in
          Cursor
            (Array.init steps (fun k ->
                 Bioseq.Packed_seq.get seq ((pos + k) mod n)))
        end
    in
    let r_offset_ns =
      match cfg.rate with
      | None -> None
      | Some r -> Some (int_of_float (float_of_int i /. r *. 1e9))
    in
    { r_index = i; r_payload = payload; r_offset_ns }
  in
  (* explicit ascending loop: the RNG draw order is part of the
     determinism contract, List.init's application order is not *)
  let rec build i acc =
    if i >= cfg.requests then List.rev acc else build (i + 1) (mk i :: acc)
  in
  build 0 []

(* --- the driver --------------------------------------------------- *)

let op_name = function
  | `Single -> "single"
  | `Batch -> "batch"
  | `Cursor -> "cursor"

(* Each executor returns (any_hit, patterns_with_hits, occurrences). *)

let exec_single engine pattern =
  let p = Spine.Engine.pattern engine pattern in
  let c = List.length (Spine.Engine.occurrences_pattern engine p) in
  (c > 0, (if c > 0 then 1 else 0), c)

let exec_batch engine patterns =
  let items = Spine.Engine.run_batch engine patterns in
  let hits =
    List.fold_left
      (fun a it -> if it.Spine.Engine.count > 0 then a + 1 else a)
      0 items
  in
  let found = List.fold_left (fun a it -> a + it.Spine.Engine.count) 0 items in
  (hits > 0, hits, found)

let exec_cursor engine codes =
  let cur = Spine.Engine.cursor engine in
  Array.iter
    (fun code ->
      if not (cur.Spine.Engine.advance code) then cur.Spine.Engine.reset ())
    codes;
  let hit = cur.Spine.Engine.first_occurrence () <> None in
  let h = if hit then 1 else 0 in
  (hit, h, h)

let decode_pattern alphabet codes =
  String.init (Array.length codes) (fun i ->
      Bioseq.Alphabet.decode alphabet codes.(i))

let drive ?(clock = Xutil.Stopwatch.now_ns)
    ?(sleep_ns = fun ns -> Unix.sleepf (float_of_int ns /. 1e9)) ?on_tick
    ?resilient ~config engine requests =
  let cfg = config in
  let backend = Spine.Engine.backend engine in
  let alphabet = Spine.Engine.alphabet engine in
  let total = List.length requests in
  let accs =
    [ (`Single, acc backend "single");
      (`Batch, acc backend "batch");
      (`Cursor, acc backend "cursor") ]
  in
  let profs =
    [ (`Single, Profile.make ());
      (`Batch, Profile.make ());
      (`Cursor, Profile.make ()) ]
  in
  (* The global histograms collect for the duration of the run; the
     prior state is restored afterwards.  Tracing is left as it was. *)
  let telemetry_was = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  let t_start = clock () in
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled telemetry_was) (fun () ->
      List.iter
        (fun req ->
          let i = req.r_index in
          let op = op_of_payload req.r_payload in
          (* Open loop: a request carries its due offset; latency is
             measured from the scheduled start, so falling behind shows
             up as queueing delay in the histogram (the
             coordinated-omission correction).  Closed loop: due now,
             latency = service time. *)
          let due =
            match req.r_offset_ns with
            | None -> clock ()
            | Some off ->
              let due = t_start + off in
              (* Sleep until the schedule on the *injected* clock: one
                 sleep may undersleep (EINTR, an injected sleeper that
                 advances a virtual clock by less than asked), and
                 starting early would record negative latency against
                 the scheduled origin.  Loop while the clock makes
                 progress; a sleeper that cannot advance the clock at
                 all must not spin forever. *)
              let rec wait () =
                let now = clock () in
                if due > now then begin
                  sleep_ns (due - now);
                  if clock () > now then wait ()
                end
              in
              wait ();
              due
          in
          let a = List.assq op accs in
          let exec () =
            Trace.with_op
              (Printf.sprintf "workload.%s" (op_name op))
              [ Trace.Int ("request", i) ]
              (fun () ->
                Spine.Engine.profiled engine (fun () ->
                    match req.r_payload with
                    | Single p -> exec_single engine p
                    | Batch ps -> exec_batch engine ps
                    | Cursor codes -> exec_cursor engine codes))
          in
          (* Under a resilience policy, typed rejections are workload
             dispositions, not crashes: the driver records them and
             keeps offering load — exactly what a degraded-mode
             scenario measures.  Without one, errors propagate as
             before. *)
          let outcome =
            match resilient with
            | None -> `Done (exec ())
            | Some r ->
              (match Spine.Resilient.call r ~op:(op_name op)
                       (fun _engine -> exec ())
               with
               | v -> `Done v
               | exception Spine_error.Error (Spine_error.Timeout _) ->
                 `Timeout
               | exception Spine_error.Error (Spine_error.Overloaded _) ->
                 `Shed
               | exception Spine_error.Error _ -> `Failed)
          in
          (match outcome with
           | `Done ((hit, hits, found), prof) ->
             let ns = clock () - due in
             record a ~hit ~request:i ns;
             Profile.absorb (List.assq op profs) prof;
             if Qlog.active () then begin
               let pats =
                 match req.r_payload with
                 | Single p -> [ decode_pattern alphabet p ]
                 | Batch ps -> List.map (decode_pattern alphabet) ps
                 | Cursor codes -> [ decode_pattern alphabet codes ]
               in
               Qlog.emit ~op:(op_name op) ~backend ~patterns:pats ~hits
                 ~found ~latency_ns:ns ~costs:prof
             end
           | `Timeout -> a.timeouts <- a.timeouts + 1
           | `Shed -> a.shed <- a.shed + 1
           | `Failed -> a.failed <- a.failed + 1);
          match on_tick with
          | Some f when cfg.tick_every > 0 && (i + 1) mod cfg.tick_every = 0 ->
            f (i + 1)
          | _ -> ())
        requests;
      let wall_ns = max 1 (clock () - t_start) in
      let report =
        { backend;
          total_requests = total;
          wall_ns;
          achieved_rps = float_of_int total /. (float_of_int wall_ns /. 1e9);
          offered_rps = cfg.rate;
          ops = List.map (fun (_, a) -> report_of_acc a) accs;
          slowest = slowest_of (List.map snd accs) cfg.slowest }
      in
      (report, List.map (fun (k, p) -> (op_name k, p)) profs))

let run ?(config = default_config) ?clock ?sleep_ns ?on_tick engine seq =
  fst (drive ?clock ?sleep_ns ?on_tick ~config engine (plan ~config seq))

(* --- rendering ---------------------------------------------------- *)

let ns_ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

let print r =
  let mode =
    match r.offered_rps with
    | None -> "closed loop"
    | Some rate -> Printf.sprintf "open loop @ %.0f req/s" rate
  in
  Report.Say.printf "workload: %d requests on %s (%s), %.0f req/s achieved\n"
    r.total_requests r.backend mode r.achieved_rps;
  Report.Table.print ~title:"Latency by operation"
    ~headers:[ "op"; "count"; "hits"; "mean ms"; "p50 ms"; "p90 ms"; "p99 ms"; "max ms" ]
    (List.map
       (fun o ->
         [ o.op; string_of_int o.count; string_of_int o.hits;
           ns_ms o.mean_ns; ns_ms o.p50_ns; ns_ms o.p90_ns; ns_ms o.p99_ns;
           ns_ms (float_of_int o.max_ns) ])
       r.ops);
  if
    List.exists
      (fun (o : op_report) -> o.timeouts + o.shed + o.failed > 0)
      r.ops
  then
    Report.Table.print ~title:"Typed rejections by operation"
      ~headers:[ "op"; "ok"; "timeouts"; "shed"; "failed" ]
      (List.map
         (fun (o : op_report) ->
           [ o.op; string_of_int o.count; string_of_int o.timeouts;
             string_of_int o.shed; string_of_int o.failed ])
         r.ops);
  if r.slowest <> [] then
    Report.Table.print ~title:"Slowest requests"
      ~headers:[ "rank"; "op"; "request"; "ms" ]
      (List.mapi
         (fun i s ->
           [ string_of_int (i + 1); s.s_op; string_of_int s.s_request;
             ns_ms (float_of_int s.s_ns) ])
         r.slowest)

let jsonl r =
  let op_line (o : op_report) =
    (* the rejection triple is appended only when present so historical
       consumers of fault-free runs see unchanged lines *)
    let rejections =
      if o.timeouts + o.shed + o.failed = 0 then ""
      else
        Printf.sprintf ",\"timeouts\":%d,\"shed\":%d,\"failed\":%d"
          o.timeouts o.shed o.failed
    in
    Printf.sprintf
      "{\"workload_op\":%S,\"backend\":%S,\"count\":%d,\"hits\":%d,\
       \"mean_ns\":%.0f,\"p50_ns\":%.0f,\"p90_ns\":%.0f,\"p99_ns\":%.0f,\
       \"max_ns\":%d%s}"
      o.op r.backend o.count o.hits o.mean_ns o.p50_ns o.p90_ns o.p99_ns
      o.max_ns rejections
  in
  let summary =
    Printf.sprintf
      "{\"workload\":%S,\"requests\":%d,\"wall_ns\":%d,\"achieved_rps\":%.1f%s}"
      r.backend r.total_requests r.wall_ns r.achieved_rps
      (match r.offered_rps with
       | None -> ""
       | Some rate -> Printf.sprintf ",\"offered_rps\":%.1f" rate)
  in
  summary :: List.map op_line r.ops
