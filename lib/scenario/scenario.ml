(* Chaos scenario runner: parse a JSONL stage list, execute the stages
   against a persistent index in a scratch directory, evaluate named
   expectations.  See the .mli for the grammar and semantics. *)

module Json = Bench_gate.Json
module P = Spine.Persistent
module FD = Pagestore.Fault_device

type check =
  | Parity of int
  | Scrub_clean
  | P99_under of { pu_op : string; pu_bound_ns : int }
  | Replay_gate of { rg_tolerance : float; rg_floor_ns : float }
  | Breaker_is of string
  | Reconcile

type wstage = {
  w_requests : int;
  w_mix : Workload.mix;
  w_rate : float option;
  w_min_len : int;
  w_max_len : int;
  w_batch_size : int;
  w_cursor_steps : int;
  w_miss_fraction : float;
  w_seed_offset : int;
  w_resilience : Spine.Resilient.config option;
  w_qlog : bool;
}

type bstage = {
  b_chars : int;
  b_chunks : int;
  b_alphabet : Bioseq.Alphabet.t;
  b_frames : int option;
  b_page_size : int option;
}

type cstage = { c_chars : int; c_chunks : int; c_after_writes : int }

type stage =
  | Build of bstage
  | Faults of { f_raw : string; f_spec : Pagestore.Fault_spec.t }
  | Latency of { l_read_ns : int; l_write_ns : int; l_jitter_ns : int }
  | Workload of wstage
  | Crash of cstage
  | Expect of check list

type t = { sc_name : string; sc_seed : int; sc_stages : stage list }

(* --- parsing --------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let ji ?default key obj =
  match Json.member key obj with
  | Some (Json.Num f) -> int_of_float f
  | Some _ -> bad "%S must be a number" key
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "missing required key %S" key)

let jfopt key obj =
  match Json.member key obj with
  | Some (Json.Num f) -> Some f
  | Some _ -> bad "%S must be a number" key
  | None -> None

let jstr ?default key obj =
  match Json.member key obj with
  | Some (Json.Str s) -> s
  | Some _ -> bad "%S must be a string" key
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "missing required key %S" key)

let jbool ?(default = false) key obj =
  match Json.member key obj with
  | Some (Json.Bool b) -> b
  | Some _ -> bad "%S must be a boolean" key
  | None -> default

let parse_alphabet name =
  match name with
  | "dna" -> Bioseq.Alphabet.dna
  | "protein" -> Bioseq.Alphabet.protein
  | "byte" -> Bioseq.Alphabet.byte
  | s -> bad "unknown alphabet %S (dna|protein|byte)" s

let parse_build obj =
  Build
    {
      b_chars = ji "chars" obj;
      b_chunks = max 1 (ji ~default:4 "chunks" obj);
      b_alphabet = parse_alphabet (jstr ~default:"dna" "alphabet" obj);
      b_frames =
        (match Json.member "frames" obj with
         | Some (Json.Num f) -> Some (int_of_float f)
         | Some _ -> bad "\"frames\" must be a number"
         | None -> None);
      b_page_size =
        (match Json.member "page_size" obj with
         | Some (Json.Num f) -> Some (int_of_float f)
         | Some _ -> bad "\"page_size\" must be a number"
         | None -> None);
    }

let parse_faults obj =
  let raw = jstr "spec" obj in
  match Pagestore.Fault_spec.parse raw with
  | Ok spec -> Faults { f_raw = raw; f_spec = spec }
  | Error e -> bad "bad fault spec: %s" (Pagestore.Fault_spec.error_to_string e)

let us_to_ns u = u * 1_000

let parse_latency obj =
  Latency
    {
      l_read_ns = us_to_ns (ji ~default:0 "read_us" obj);
      l_write_ns = us_to_ns (ji ~default:0 "write_us" obj);
      l_jitter_ns = us_to_ns (ji ~default:0 "jitter_us" obj);
    }

(* Transient I/O is retried by the buffer pool alone, so these keys
   have nothing to set.  Unknown keys are otherwise ignored; these are
   rejected so a scenario written for a wrapper-level retry loop fails
   loudly instead of silently losing its retry setting. *)
let retry_keys = [ "max_attempts"; "backoff_base_us"; "backoff_max_ms"; "seed" ]

let parse_resilience obj =
  match Json.member "resilience" obj with
  | None -> None
  | Some (Json.Obj kvs as r) ->
    List.iter
      (fun (k, _) ->
        if List.mem k retry_keys then
          bad "resilience key %S is gone: transient I/O retry is owned by \
               the buffer pool" k)
      kvs;
    let d = Spine.Resilient.default_config in
    let ms_to_ns m = m * 1_000_000 in
    Some
      {
        Spine.Resilient.deadline_ns =
          (let ms = ji ~default:(-1) "deadline_ms" r in
           if ms = 0 then None
           else if ms > 0 then Some (ms_to_ns ms)
           else d.Spine.Resilient.deadline_ns);
        breaker_failures =
          ji ~default:d.Spine.Resilient.breaker_failures "breaker_failures" r;
        breaker_cooldown_ns =
          (match jfopt "breaker_cooldown_ms" r with
           | Some ms -> int_of_float (ms *. 1e6)
           | None -> d.Spine.Resilient.breaker_cooldown_ns);
        breaker_probes =
          ji ~default:d.Spine.Resilient.breaker_probes "breaker_probes" r;
      }
  | Some _ -> bad "\"resilience\" must be an object"

let parse_workload obj =
  let d = Workload.default_config in
  let mix =
    match Json.member "mix" obj with
    | None -> d.Workload.mix
    | Some (Json.Obj _ as m) ->
      {
        Workload.single = ji ~default:0 "single" m;
        batch = ji ~default:0 "batch" m;
        cursor = ji ~default:0 "cursor" m;
      }
    | Some _ -> bad "\"mix\" must be an object"
  in
  Workload
    {
      w_requests = ji ~default:200 "requests" obj;
      w_mix = mix;
      w_rate = jfopt "rate" obj;
      w_min_len = ji ~default:d.Workload.min_len "min_len" obj;
      w_max_len = ji ~default:d.Workload.max_len "max_len" obj;
      w_batch_size = ji ~default:d.Workload.batch_size "batch_size" obj;
      w_cursor_steps = ji ~default:d.Workload.cursor_steps "cursor_steps" obj;
      w_miss_fraction =
        (match jfopt "miss_fraction" obj with
         | Some f -> f
         | None -> d.Workload.miss_fraction);
      w_seed_offset = ji ~default:1 "seed_offset" obj;
      w_resilience = parse_resilience obj;
      w_qlog = jbool "qlog" obj;
    }

let parse_crash obj =
  Crash
    {
      c_chars = ji "chars" obj;
      c_chunks = max 1 (ji ~default:2 "chunks" obj);
      c_after_writes = ji "after_writes" obj;
    }

let parse_expect obj =
  let fields = match obj with Json.Obj kvs -> kvs | _ -> [] in
  let checks =
    List.filter_map
      (fun (key, v) ->
        match (key, v) with
        | "stage", _ -> None
        | "parity", Json.Num n -> Some [ Parity (int_of_float n) ]
        | "parity", _ -> bad "\"parity\" must be a probe count"
        | "scrub", Json.Str "clean" -> Some [ Scrub_clean ]
        | "scrub", _ -> bad "\"scrub\" only supports \"clean\""
        | "p99_under", Json.Obj ops ->
          Some
            (List.map
               (fun (op, bound) ->
                 match bound with
                 | Json.Num ms ->
                   P99_under
                     { pu_op = op; pu_bound_ns = int_of_float (ms *. 1e6) }
                 | _ -> bad "p99_under %S must be a bound in ms" op)
               ops)
        | "p99_under", _ -> bad "\"p99_under\" must map op to a ms bound"
        | "replay", Json.Bool true ->
          Some [ Replay_gate { rg_tolerance = 0.5; rg_floor_ns = 1e7 } ]
        | "replay", Json.Obj _ ->
          Some
            [ Replay_gate
                {
                  rg_tolerance =
                    (match jfopt "tolerance" v with
                     | Some f -> f
                     | None -> 0.5);
                  rg_floor_ns =
                    (match jfopt "floor_ms" v with
                     | Some ms -> ms *. 1e6
                     | None -> 1e7);
                } ]
        | "replay", _ -> bad "\"replay\" must be true or an object"
        | "breaker", Json.Str s
          when s = "closed" || s = "open" || s = "half-open" ->
          Some [ Breaker_is s ]
        | "breaker", _ -> bad "\"breaker\" must be closed|open|half-open"
        | "reconcile", Json.Bool true -> Some [ Reconcile ]
        | "reconcile", Json.Bool false -> None
        | "reconcile", _ -> bad "\"reconcile\" must be a boolean"
        | k, _ -> bad "unknown expectation %S" k)
      fields
    |> List.concat
  in
  if checks = [] then bad "expect stage with no checks";
  Expect checks

let parse_stage obj =
  match jstr "stage" obj with
  | "build" -> parse_build obj
  | "faults" -> parse_faults obj
  | "latency" -> parse_latency obj
  | "workload" -> parse_workload obj
  | "crash" -> parse_crash obj
  | "expect" -> parse_expect obj
  | s -> bad "unknown stage %S" s

let parse text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let stages = ref [] in
  try
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let trimmed = String.trim line in
        if trimmed <> "" && trimmed.[0] <> '#' then begin
          let obj =
            try Json.parse_exn trimmed with
            | Json.Parse_error e -> bad "line %d: %s" lineno e
          in
          match !header with
          | None ->
            (try
               let name = jstr "scenario" obj in
               (match ji ~default:1 "version" obj with
                | 1 -> ()
                | v -> bad "unsupported version %d" v);
               header := Some (name, ji ~default:42 "seed" obj)
             with Bad m -> bad "line %d: %s" lineno m)
          | Some _ ->
            (try stages := parse_stage obj :: !stages
             with Bad m -> bad "line %d: %s" lineno m)
        end)
      lines;
    match !header with
    | None -> Error "empty scenario: no header line"
    | Some (name, seed) ->
      Ok { sc_name = name; sc_seed = seed; sc_stages = List.rev !stages }
  with Bad m -> Error m

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

(* --- running --------------------------------------------------------- *)

type check_result = { c_name : string; c_pass : bool; c_detail : string }

type run_result = {
  r_name : string;
  r_seed : int;
  r_stages : string list;
  r_checks : check_result list;
  r_counts : Spine.Resilient.counts option;
  r_io_retries : int;
  r_report : Workload.report option;
}

(* the buffer pool's transient-I/O retries: a probe-backed counter,
   so it counts whether telemetry is on or off *)
let c_io_retries = Telemetry.counter "pool.io_retries"

(* execution faults — a stage that cannot run at all *)
exception Stuck of string

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

type st = {
  seed : int;
  dir : string;
  mutable p : P.t option;
  mutable master : Bioseq.Packed_seq.t option;  (* the full seeded stream *)
  mutable pos : int;           (* characters appended so far *)
  mutable oracle_len : int;    (* committed/recovered prefix length *)
  mutable frames : int option;
  mutable fault : FD.t option;
  mutable latency : Pagestore.Latency_device.t option;
  mutable resilient : Spine.Resilient.t option;
  mutable io_retries : int;    (* pool.io_retries across the last workload *)
  mutable report : Workload.report option;
  mutable qlog_records : Qlog.record list;
  mutable oracle : (int * Suffix_tree.t) option;  (* cached by length *)
  mutable wl_seq : int;        (* workload stage counter (qlog names) *)
}

let persistent st =
  match st.p with Some p -> p | None -> stuck "stage before build"

let master st =
  match st.master with Some s -> s | None -> stuck "stage before build"

let engine st = P.engine (persistent st)

let append_chunks st ~chars ~chunks ~frozen =
  let p = persistent st and seq = master st in
  let chunk = chars / chunks in
  for c = 1 to chunks do
    let n = if c = chunks then chars - (chunk * (chunks - 1)) else chunk in
    for _ = 1 to n do
      if frozen () then raise Exit;
      P.append p (Bioseq.Packed_seq.get seq st.pos);
      st.pos <- st.pos + 1
    done;
    P.flush p;
    st.oracle_len <- st.pos
  done

let run_build st b =
  if st.p <> None then stuck "duplicate build stage";
  let path = Filename.concat st.dir "scenario.spine" in
  let p =
    P.create ?frames:b.b_frames ?page_size:b.b_page_size ~path b.b_alphabet
  in
  st.p <- Some p;
  st.frames <- b.b_frames;
  st.pos <- 0;
  st.oracle_len <- 0;
  (match st.master with
   | Some _ -> ()
   | None -> stuck "internal: master sequence not generated");
  append_chunks st ~chars:b.b_chars ~chunks:b.b_chunks ~frozen:(fun () ->
      false)

(* Re-wrap an armed latency injector around freshly attached fault
   hooks: faults sit closest to the device, latency outermost. *)
let recompose_hooks st f =
  let dev = P.device (persistent st) in
  (match st.latency with
   | Some l -> Pagestore.Latency_device.detach l
   | None -> ());
  f dev;
  match st.latency with
  | Some l -> Pagestore.Latency_device.attach l dev
  | None -> ()

let run_faults st (spec : Pagestore.Fault_spec.t) =
  let spec =
    if spec.Pagestore.Fault_spec.seed = None then
      { spec with Pagestore.Fault_spec.seed = Some st.seed }
    else spec
  in
  let fd = FD.of_spec spec in
  recompose_hooks st (fun dev -> FD.attach fd dev);
  st.fault <- Some fd

let run_latency st ~read_ns ~write_ns ~jitter_ns =
  let dev = P.device (persistent st) in
  (match st.latency with
   | Some old -> Pagestore.Latency_device.detach old
   | None -> ());
  let l =
    Pagestore.Latency_device.create
      { Pagestore.Latency_device.read_ns; write_ns; jitter_ns; seed = st.seed }
  in
  Pagestore.Latency_device.attach l dev;
  st.latency <- Some l

let prefix_seq st =
  let seq = master st in
  let alphabet = Bioseq.Packed_seq.alphabet seq in
  Bioseq.Packed_seq.of_codes alphabet
    (Array.init st.oracle_len (fun k -> Bioseq.Packed_seq.get seq k))

(* an independent oracle: a suffix tree shares no code with the SPINE
   store under test *)
let oracle_tree st =
  match st.oracle with
  | Some (len, tree) when len = st.oracle_len -> tree
  | _ ->
    let tree = Suffix_tree.build (prefix_seq st) in
    st.oracle <- Some (st.oracle_len, tree);
    tree

let run_workload st (w : wstage) =
  let e = engine st in
  if st.oracle_len < w.w_max_len + 1 then
    stuck "workload: sequence shorter than max pattern length";
  let config =
    {
      Workload.default_config with
      Workload.requests = w.w_requests;
      seed = st.seed + w.w_seed_offset;
      min_len = w.w_min_len;
      max_len = w.w_max_len;
      batch_size = w.w_batch_size;
      cursor_steps = w.w_cursor_steps;
      miss_fraction = w.w_miss_fraction;
      mix = w.w_mix;
      rate = w.w_rate;
      tick_every = 0;
    }
  in
  let requests = Workload.plan ~config (prefix_seq st) in
  let resilient =
    Option.map (fun config -> Spine.Resilient.create ~config e) w.w_resilience
  in
  st.resilient <- resilient;
  st.wl_seq <- st.wl_seq + 1;
  let qlog_path =
    if w.w_qlog then
      Some (Filename.concat st.dir (Printf.sprintf "qlog-%d.jsonl" st.wl_seq))
    else None
  in
  Qlog.set_path qlog_path;
  let retries_before = Telemetry.counter_value c_io_retries in
  let report, _profiles =
    Fun.protect
      ~finally:(fun () -> Qlog.set_path None)
      (fun () -> Workload.drive ?resilient ~config e requests)
  in
  st.io_retries <- Telemetry.counter_value c_io_retries - retries_before;
  st.report <- Some report;
  match qlog_path with
  | None -> ()
  | Some path -> (
    match Qlog.read_file ~path with
    | Ok records -> st.qlog_records <- records
    | Error e -> stuck "workload: unreadable qlog: %s" e)

let run_crash st c =
  let p = persistent st in
  let fd = FD.create ~seed:st.seed [ FD.arm ~after:c.c_after_writes FD.Crash ] in
  recompose_hooks st (fun dev -> FD.attach fd dev);
  st.latency <- None;
  st.fault <- None;
  (* Once the image freezes the simulated process is dead: stop at the
     first sign and abandon the handle, exactly what kill -9 leaves. *)
  (match append_chunks st ~chars:c.c_chars ~chunks:c.c_chunks
           ~frozen:(fun () -> FD.frozen fd)
   with
   | () -> ()
   | exception Exit -> ()
   | exception _ when FD.frozen fd -> ());
  if not (FD.frozen fd) then
    stuck "crash: device never froze (after_writes=%d beyond the %d appends)"
      c.c_after_writes c.c_chars;
  Pagestore.Device.close (P.device p);
  let path = P.path p in
  let reopened =
    match P.open_ ?frames:st.frames ~path () with
    | p -> p
    | exception Spine_error.Error e ->
      stuck "crash: reopen failed: %s" (Spine_error.to_string e)
  in
  st.p <- Some reopened;
  st.oracle_len <- Spine.Engine.length (P.engine reopened)

(* --- expectations ---------------------------------------------------- *)

let check_parity st n =
  let e = engine st in
  let oracle = oracle_tree st in
  let seq = master st in
  let rng = Bioseq.Rng.create (st.seed + 9001) in
  let mismatches = ref 0 and first = ref "" in
  (try
     for k = 1 to n do
       let len = 3 + Bioseq.Rng.int rng 10 in
       let pos = Bioseq.Rng.int rng (max 1 (st.oracle_len - len)) in
       let pat =
         Array.init len (fun j -> Bioseq.Packed_seq.get seq (pos + j))
       in
       let want = List.sort Int.compare (Suffix_tree.occurrences oracle pat)
       and got = Spine.Engine.occurrences_pattern e (Spine.Engine.pattern e pat) in
       if want <> got then begin
         incr mismatches;
         if !first = "" then
           first :=
             Printf.sprintf "probe %d at %d len %d: %d vs %d occurrences" k
               pos len (List.length want) (List.length got)
       end
     done
   with Spine_error.Error err ->
     incr mismatches;
     first := Printf.sprintf "typed failure: %s" (Spine_error.to_string err));
  if !mismatches = 0 then
    {
      c_name = "parity";
      c_pass = true;
      c_detail = Printf.sprintf "%d probes agree with the oracle" n;
    }
  else
    {
      c_name = "parity";
      c_pass = false;
      c_detail = Printf.sprintf "%d/%d probes diverge (%s)" !mismatches n !first;
    }

let check_scrub st =
  let p = persistent st in
  P.flush p;
  let r = P.verify p in
  let pass = r.P.damaged_pages = 0 && r.P.stale_pages = 0 in
  {
    c_name = "scrub-clean";
    c_pass = pass;
    c_detail =
      Printf.sprintf "%d damaged, %d stale page(s)" r.P.damaged_pages
        r.P.stale_pages;
  }

let check_p99 st ~op ~bound_ns =
  let name = Printf.sprintf "p99(%s)" op in
  match st.report with
  | None -> { c_name = name; c_pass = false; c_detail = "no workload ran" }
  | Some r -> (
    match
      List.find_opt (fun (o : Workload.op_report) -> o.Workload.op = op) r.ops
    with
    | None | Some { Workload.count = 0; _ } ->
      {
        c_name = name;
        c_pass = false;
        c_detail = Printf.sprintf "no completed %S requests" op;
      }
    | Some o ->
      let pass = o.Workload.p99_ns <= float_of_int bound_ns in
      {
        c_name = name;
        c_pass = pass;
        c_detail =
          Printf.sprintf "p99 %.2f ms %s bound %.2f ms"
            (o.Workload.p99_ns /. 1e6)
            (if pass then "within" else "over")
            (float_of_int bound_ns /. 1e6);
      })

let check_replay st ~tolerance ~floor_ns =
  let name = "replay-gate" in
  match st.qlog_records with
  | [] ->
    { c_name = name; c_pass = false; c_detail = "no qlog recorded (qlog: true)" }
  | records -> (
    match
      Replay.drive_records ~closed_loop:true ~tolerance
        ~latency_floor_ns:floor_ns ~engine:(engine st) records
    with
    | Error e ->
      { c_name = name; c_pass = false; c_detail = "malformed log: " ^ e }
    | Ok outcome ->
      let comparisons = outcome.Replay.rp_comparisons in
      (match Bench_gate.failures comparisons with
       | [] ->
         {
           c_name = name;
           c_pass = true;
           c_detail =
             Printf.sprintf "%d record(s), %d comparison(s) clean"
               outcome.Replay.rp_requests (List.length comparisons);
         }
       | f :: _ as fs ->
         {
           c_name = name;
           c_pass = false;
           c_detail =
             Printf.sprintf "%d regression(s), first %s/%s: %s"
               (List.length fs) f.Bench_gate.c_group f.Bench_gate.c_name
               (Bench_gate.verdict_string f.Bench_gate.c_verdict);
         }))

let check_breaker st expected =
  let name = Printf.sprintf "breaker=%s" expected in
  match st.resilient with
  | None ->
    { c_name = name; c_pass = false; c_detail = "no resilient workload ran" }
  | Some r ->
    let got = Spine.Resilient.state_name (Spine.Resilient.breaker_state r) in
    {
      c_name = name;
      c_pass = got = expected;
      c_detail = Printf.sprintf "breaker is %s" got;
    }

let check_reconcile st =
  let name = "resilience-reconcile" in
  match (st.resilient, st.report) with
  | None, _ | _, None ->
    { c_name = name; c_pass = false; c_detail = "no resilient workload ran" }
  | Some r, Some report ->
    let c = Spine.Resilient.counts r in
    let sum f =
      List.fold_left (fun acc o -> acc + f o) 0 report.Workload.ops
    in
    let completed = sum (fun (o : Workload.op_report) -> o.Workload.count) in
    let timeouts = sum (fun o -> o.Workload.timeouts) in
    let shed = sum (fun o -> o.Workload.shed) in
    let failed = sum (fun o -> o.Workload.failed) in
    let internal =
      c.Spine.Resilient.calls
      = c.Spine.Resilient.completed + c.Spine.Resilient.timeouts
        + c.Spine.Resilient.shed + c.Spine.Resilient.failures
    in
    let agrees =
      c.Spine.Resilient.completed = completed
      && c.Spine.Resilient.timeouts = timeouts
      && c.Spine.Resilient.shed = shed
      && c.Spine.Resilient.failures = failed
      && c.Spine.Resilient.calls = report.Workload.total_requests
    in
    {
      c_name = name;
      c_pass = internal && agrees;
      c_detail =
        Printf.sprintf
          "calls=%d completed=%d timeouts=%d shed=%d failures=%d vs report \
           %d/%d/%d/%d of %d"
          c.Spine.Resilient.calls c.Spine.Resilient.completed
          c.Spine.Resilient.timeouts c.Spine.Resilient.shed
          c.Spine.Resilient.failures completed timeouts shed failed
          report.Workload.total_requests;
    }

let run_check st = function
  | Parity n -> check_parity st n
  | Scrub_clean -> check_scrub st
  | P99_under { pu_op; pu_bound_ns } ->
    check_p99 st ~op:pu_op ~bound_ns:pu_bound_ns
  | Replay_gate { rg_tolerance; rg_floor_ns } ->
    check_replay st ~tolerance:rg_tolerance ~floor_ns:rg_floor_ns
  | Breaker_is s -> check_breaker st s
  | Reconcile -> check_reconcile st

(* --- scratch directory ----------------------------------------------- *)

let make_temp_dir () =
  let f = Filename.temp_file "spine-scenario" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let stage_label = function
  | Build b -> Printf.sprintf "build(%d)" b.b_chars
  | Faults f -> Printf.sprintf "faults(%s)" f.f_raw
  | Latency _ -> "latency"
  | Workload w -> Printf.sprintf "workload(%d)" w.w_requests
  | Crash c -> Printf.sprintf "crash(@%d)" c.c_after_writes
  | Expect cs -> Printf.sprintf "expect(%d)" (List.length cs)

let total_chars stages =
  List.fold_left
    (fun acc -> function
      | Build b -> acc + b.b_chars
      | Crash c -> acc + c.c_chars
      | _ -> acc)
    0 stages

let build_alphabet stages =
  List.find_map
    (function Build b -> Some b.b_alphabet | _ -> None)
    stages

let run ?seed ?dir t =
  let seed = match seed with Some s -> s | None -> t.sc_seed in
  let own_dir = dir = None in
  let dir =
    match dir with
    | Some d ->
      if not (Sys.file_exists d) then Unix.mkdir d 0o700;
      d
    | None -> make_temp_dir ()
  in
  let st =
    {
      seed;
      dir;
      p = None;
      master = None;
      pos = 0;
      oracle_len = 0;
      frames = None;
      fault = None;
      latency = None;
      resilient = None;
      io_retries = 0;
      report = None;
      qlog_records = [];
      oracle = None;
      wl_seq = 0;
    }
  in
  (match build_alphabet t.sc_stages with
   | Some alphabet ->
     st.master <-
       Some
         (Bioseq.Synthetic.genomic alphabet (Bioseq.Rng.create seed)
            (max 1 (total_chars t.sc_stages)))
   | None -> ());
  let prev_telemetry = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  let cleanup () =
    Telemetry.set_enabled prev_telemetry;
    (match st.p with
     | Some p -> (
       (* best-effort: the store may already be closed (crash stages
          abandon the device) or the file gone with the temp dir *)
       try P.close p with
       | Spine_error.Error _ | Unix.Unix_error _ | Sys_error _ -> ())
     | None -> ());
    if own_dir then rm_rf dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let checks = ref [] and ran = ref [] in
      match
        List.iter
          (fun stage ->
            ran := stage_label stage :: !ran;
            match stage with
            | Build b -> run_build st b
            | Faults f -> run_faults st f.f_spec
            | Latency l ->
              run_latency st ~read_ns:l.l_read_ns ~write_ns:l.l_write_ns
                ~jitter_ns:l.l_jitter_ns
            | Workload w -> run_workload st w
            | Crash c -> run_crash st c
            | Expect cs ->
              List.iter (fun c -> checks := run_check st c :: !checks) cs)
          t.sc_stages
      with
      | () ->
        Ok
          {
            r_name = t.sc_name;
            r_seed = seed;
            r_stages = List.rev !ran;
            r_checks = List.rev !checks;
            r_counts = Option.map Spine.Resilient.counts st.resilient;
            r_io_retries = st.io_retries;
            r_report = st.report;
          }
      | exception Stuck m -> Error m
      | exception Spine_error.Error e ->
        Error (Printf.sprintf "typed failure: %s" (Spine_error.to_string e)))

let passed r = List.for_all (fun c -> c.c_pass) r.r_checks

(* --- rendering ------------------------------------------------------- *)

let print r =
  let rows =
    List.map
      (fun c ->
        [ c.c_name; (if c.c_pass then "pass" else "FAIL"); c.c_detail ])
      r.r_checks
  in
  let rows =
    if rows = [] then [ [ "(no expectations)"; "-"; "" ] ] else rows
  in
  Report.Table.print
    ~title:(Printf.sprintf "scenario %s (seed %d)" r.r_name r.r_seed)
    ~note:("stages: " ^ String.concat " -> " r.r_stages)
    ~headers:[ "expectation"; "verdict"; "detail" ]
    rows;
  match r.r_counts with
  | None -> ()
  | Some c ->
    Report.Say.printf
      "resilience: calls=%d completed=%d io_retries=%d timeouts=%d shed=%d \
       failures=%d trips=%d recoveries=%d\n"
      c.Spine.Resilient.calls c.Spine.Resilient.completed
      r.r_io_retries c.Spine.Resilient.timeouts
      c.Spine.Resilient.shed c.Spine.Resilient.failures
      c.Spine.Resilient.breaker_trips c.Spine.Resilient.recoveries

let jsonl r =
  let failed = List.filter (fun c -> not c.c_pass) r.r_checks in
  let summary =
    Printf.sprintf
      "{\"scenario\":%S,\"seed\":%d,\"stages\":[%s],\"checks\":%d,\
       \"failed\":%d,\"pass\":%b%s}"
      r.r_name r.r_seed
      (String.concat "," (List.map (Printf.sprintf "%S") r.r_stages))
      (List.length r.r_checks) (List.length failed) (passed r)
      (match r.r_counts with
       | None -> ""
       | Some c ->
         Printf.sprintf
           ",\"resilience\":{\"calls\":%d,\"completed\":%d,\"io_retries\":%d,\
            \"timeouts\":%d,\"shed\":%d,\"failures\":%d,\"breaker_trips\":%d,\
            \"recoveries\":%d}"
           c.Spine.Resilient.calls c.Spine.Resilient.completed
           r.r_io_retries c.Spine.Resilient.timeouts
           c.Spine.Resilient.shed c.Spine.Resilient.failures
           c.Spine.Resilient.breaker_trips c.Spine.Resilient.recoveries)
  in
  let check_line c =
    Printf.sprintf
      "{\"scenario\":%S,\"seed\":%d,\"check\":%S,\"pass\":%b,\"detail\":%S}"
      r.r_name r.r_seed c.c_name c.c_pass c.c_detail
  in
  summary :: List.map check_line r.r_checks
