(* One ring of events per domain plus a little per-domain operation
   state.  The hot-path contract is the same as Telemetry's: when
   collection is off (or the current operation is sampled out) every
   entry point is one domain-local state fetch plus one flag check —
   callers guard argument-list construction with [Trace.on ()] so
   nothing allocates.

   Domain safety: everything an instrumented query path mutates (the
   ring, the span stack, the operation bookkeeping, the sampling RNG)
   lives in a [Domain.DLS] slot, so parallel domains querying one
   shared index each trace into their own ring with no shared writes —
   the contract spine-lint's L9 rule certifies.  The configuration
   cells below ([enabled], sample rate, slow threshold, clock,
   capacity, seed) are process-global and meant to be set before
   spawning domains: a fresh domain's state is initialised from them on
   first use, and the setters additionally refresh the calling domain's
   state.  Readback and the exporters see the calling domain's ring. *)

type arg =
  | Int of string * int
  | Str of string * string

type phase = Begin | End | Instant

type event = {
  ts_ns : int;
  phase : phase;
  name : string;
  args : arg list;
  op : int;
}

type slow_op = {
  so_op : int;
  so_name : string;
  so_args : arg list;
  so_ns : int;
  so_sampled : bool;
}

(* --- environment --- *)

let env_bool name =
  match Sys.getenv_opt name with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let env_float name fallback =
  match Sys.getenv_opt name with
  | Some v -> (match float_of_string_opt v with Some f -> f | None -> fallback)
  | None -> fallback

let env_int name fallback =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n -> n | None -> fallback)
  | None -> fallback

(* --- configuration (process-global, set before spawning domains) --- *)

let enabled = ref (env_bool "SPINE_TRACE")
let sample_rate = ref (min 1.0 (max 0.0 (env_float "SPINE_TRACE_SAMPLE" 1.0)))
let slow_ns = ref (env_int "SPINE_TRACE_SLOW_US" 0 * 1000)
let clock = ref Xutil.Stopwatch.now_ns
let ring_capacity = ref (max 1 (env_int "SPINE_TRACE_CAPACITY" 65536))
let seed = ref (env_int "SPINE_TRACE_SEED" 0x5eed)

let dummy = { ts_ns = 0; phase = Instant; name = ""; args = []; op = 0 }

(* --- per-domain state --- *)

type dstate = {
  mutable muted : bool;         (* inside a sampled-out operation *)
  mutable recording : bool;     (* = !enabled && not muted, kept in sync *)
  mutable ring : event array;
  mutable start : int;
  mutable len : int;
  mutable dropped_count : int;
  mutable op_counter : int;
  mutable cur_op : int;
  mutable op_names : (int * string) list;  (* newest first; for exporters *)
  mutable span_stack : string list;
  mutable slow : slow_op list;  (* newest first *)
  mutable rng : Xutil.Splitmix.t;  (* sampling RNG *)
}

let state_key =
  Domain.DLS.new_key (fun () ->
      { muted = false;
        recording = !enabled;
        ring = Array.make !ring_capacity dummy;
        start = 0;
        len = 0;
        dropped_count = 0;
        op_counter = 0;
        cur_op = 0;
        op_names = [];
        span_stack = [];
        slow = [];
        rng = Xutil.Splitmix.of_state (Int64.of_int !seed) })

let ds () = Domain.DLS.get state_key

let is_enabled () = !enabled

let set_enabled b =
  enabled := b;
  let d = ds () in
  d.recording <- b && not d.muted

let on () = (ds ()).recording

let set_sample_rate r = sample_rate := min 1.0 (max 0.0 r)
let set_slow_us us = slow_ns := us * 1000
let set_clock f = clock := f

let set_capacity n =
  ring_capacity := max 1 n;
  let d = ds () in
  d.ring <- Array.make !ring_capacity dummy;
  d.start <- 0;
  d.len <- 0;
  d.dropped_count <- 0

let reset () =
  let d = ds () in
  d.start <- 0;
  d.len <- 0;
  d.dropped_count <- 0;
  d.op_counter <- 0;
  d.cur_op <- 0;
  d.op_names <- [];
  d.span_stack <- [];
  d.slow <- [];
  d.muted <- false;
  d.recording <- !enabled

(* --- sampling RNG --- *)

let set_seed s =
  seed := s;
  (ds ()).rng <- Xutil.Splitmix.of_state (Int64.of_int s)

let sample_keeps d =
  !sample_rate >= 1.0
  || (!sample_rate > 0.0 && Xutil.Splitmix.float d.rng 1.0 < !sample_rate)

(* --- recording --- *)

let push d e =
  let cap = Array.length d.ring in
  if d.len < cap then begin
    d.ring.((d.start + d.len) mod cap) <- e;
    d.len <- d.len + 1
  end
  else begin
    (* head drop: overwrite the oldest, keep the newest window *)
    d.ring.(d.start) <- e;
    d.start <- (d.start + 1) mod cap;
    d.dropped_count <- d.dropped_count + 1
  end

let record d phase name args =
  push d { ts_ns = !clock (); phase; name; args; op = d.cur_op }

let instant name args =
  let d = ds () in
  if d.recording then record d Instant name args

let begin_span name args =
  let d = ds () in
  if d.recording then begin
    d.span_stack <- name :: d.span_stack;
    record d Begin name args
  end

let end_span () =
  let d = ds () in
  if d.recording then
    match d.span_stack with
    | [] -> ()
    | name :: rest ->
      d.span_stack <- rest;
      record d End name []

let span name args f =
  let d = ds () in
  if not d.recording then f ()
  else begin
    record d Begin name args;
    Fun.protect ~finally:(fun () -> if d.recording then record d End name []) f
  end

let with_op name args f =
  if not !enabled then f ()
  else begin
    let d = ds () in
    let parent_op = d.cur_op and parent_muted = d.muted in
    d.op_counter <- d.op_counter + 1;
    let id = d.op_counter in
    (* one draw per operation, taken even under a muted parent so the
       keep/drop pattern depends only on the seed and operation order *)
    let sampled = sample_keeps d in
    d.cur_op <- id;
    d.muted <- parent_muted || not sampled;
    d.recording <- !enabled && not d.muted;
    if d.recording then begin
      d.op_names <- (id, name) :: d.op_names;
      record d Begin name args
    end;
    let t0 = !clock () in
    Fun.protect
      ~finally:(fun () ->
        let dt = !clock () - t0 in
        if d.recording then record d End name [];
        if !slow_ns > 0 && dt >= !slow_ns then
          d.slow <-
            { so_op = id; so_name = name; so_args = args; so_ns = dt;
              so_sampled = sampled && not parent_muted }
            :: d.slow;
        d.cur_op <- parent_op;
        d.muted <- parent_muted;
        d.recording <- !enabled && not d.muted)
      f
  end

(* --- reading back (the calling domain's ring) --- *)

let events () =
  let d = ds () in
  let cap = Array.length d.ring in
  List.init d.len (fun i -> d.ring.((d.start + i) mod cap))

let dropped () = (ds ()).dropped_count
let slow_ops () = List.rev (ds ()).slow

(* --- exporters --- *)

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      match a with
      | Int (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%d" (Xutil.Json.escape k) v)
      | Str (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (Xutil.Json.escape k)
             (Xutil.Json.escape v)))
    args;
  Buffer.add_char buf '}'

let ph_id = function Begin -> "B" | End -> "E" | Instant -> "i"

(* Chrome trace-event format: ts is in (fractional) microseconds; each
   operation is rendered as its own thread so Perfetto shows one track
   per traced operation, named via thread_name metadata. *)
let chrome_json () =
  let d = ds () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  List.iter
    (fun (id, name) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s #%d\"}}"
           id (Xutil.Json.escape name) id))
    (List.rev d.op_names);
  List.iter
    (fun e ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"spine\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
           (Xutil.Json.escape e.name) (ph_id e.phase)
           (float_of_int e.ts_ns /. 1e3)
           e.op);
      if e.phase = Instant then Buffer.add_string buf ",\"s\":\"t\"";
      if e.args <> [] then begin
        Buffer.add_char buf ',';
        add_args buf e.args
      end;
      Buffer.add_char buf '}')
    (events ());
  Buffer.add_string buf "]}";
  Buffer.contents buf

let jsonl () =
  List.map
    (fun e ->
      let buf = Buffer.create 96 in
      Buffer.add_string buf
        (Printf.sprintf "{\"ts_ns\":%d,\"ph\":\"%s\",\"name\":\"%s\",\"op\":%d"
           e.ts_ns (ph_id e.phase) (Xutil.Json.escape e.name) e.op);
      if e.args <> [] then begin
        Buffer.add_char buf ',';
        add_args buf e.args
      end;
      Buffer.add_char buf '}';
      Buffer.contents buf)
    (events ())

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome ~path = write_file path (chrome_json ())

let write_jsonl ~path =
  write_file path
    (String.concat "" (List.map (fun line -> line ^ "\n") (jsonl ())))

let arg_to_string = function
  | Int (k, v) -> Printf.sprintf "%s=%d" k v
  | Str (k, v) -> Printf.sprintf "%s=%s" k v

let slow_rows () =
  List.map
    (fun so ->
      [ string_of_int so.so_op;
        so.so_name;
        Printf.sprintf "%.3f ms" (float_of_int so.so_ns /. 1e6);
        (if so.so_sampled then "yes" else "no");
        String.concat " " (List.map arg_to_string so.so_args) ])
    (slow_ops ())
