(* Engine-level resilience (see resilient.mli): a per-query deadline
   and a circuit breaker with explicit degraded mode.  Transient I/O is
   retried below, one page operation at a time, by
   Pagestore.Buffer_pool.with_io_retries; a call here runs once.  Every
   decision that is not a clock reading is a pure function of (config,
   outcome sequence), so a scenario run is replayable. *)

let c_calls = Telemetry.counter "resilience.calls"
let c_timeouts = Telemetry.counter "resilience.timeouts"
let c_shed = Telemetry.counter "resilience.shed"
let c_failures = Telemetry.counter "resilience.failures"
let c_trips = Telemetry.counter "resilience.breaker_trips"
let c_recoveries = Telemetry.counter "resilience.recoveries"
let g_state = Telemetry.gauge "resilience.breaker_state"

type breaker_state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let state_code = function Closed -> 0.0 | Open -> 1.0 | Half_open -> 2.0

type config = {
  deadline_ns : int option;
  breaker_failures : int;
  breaker_cooldown_ns : int;
  breaker_probes : int;
}

let default_config =
  { deadline_ns = Some 1_000_000_000;
    breaker_failures = 5;
    breaker_cooldown_ns = 200_000_000;
    breaker_probes = 3 }

type counts = {
  calls : int;
  completed : int;
  timeouts : int;
  shed : int;
  failures : int;
  breaker_trips : int;
  recoveries : int;
}

type t = {
  engine : Engine.t;
  config : config;
  clock : unit -> int;
  (* breaker state and the local counter mirrors are shared mutable
     data; every access goes through [locked] so one wrapper can guard
     an engine queried from parallel domains *)
  lock : Mutex.t;
  mutable state : breaker_state;
  mutable opened_at : int;
  mutable consecutive_failures : int;
  mutable probe_successes : int;
  mutable n_calls : int;
  mutable n_completed : int;
  mutable n_timeouts : int;
  mutable n_shed : int;
  mutable n_failures : int;
  mutable n_trips : int;
  mutable n_recoveries : int;
}

let create ?(clock = Xutil.Stopwatch.now_ns) ?(config = default_config)
    engine =
  Telemetry.set g_state (state_code Closed);
  { engine; config; clock;
    lock = Mutex.create ();
    state = Closed; opened_at = 0;
    consecutive_failures = 0; probe_successes = 0;
    n_calls = 0; n_completed = 0; n_timeouts = 0;
    n_shed = 0; n_failures = 0; n_trips = 0; n_recoveries = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let breaker_state t = locked t (fun () -> t.state)

let counts t =
  locked t (fun () ->
      { calls = t.n_calls; completed = t.n_completed; timeouts = t.n_timeouts;
        shed = t.n_shed; failures = t.n_failures; breaker_trips = t.n_trips;
        recoveries = t.n_recoveries })

let set_state t s =
  t.state <- s;
  Telemetry.set g_state (state_code s)

let trip t =
  set_state t Open;
  t.opened_at <- t.clock ();
  t.probe_successes <- 0;
  t.n_trips <- t.n_trips + 1;
  Telemetry.incr c_trips;
  if Trace.on () then
    Trace.instant "resilience.breaker_trip"
      [ Trace.Int ("consecutive_failures", t.consecutive_failures) ]

(* Admission: closed and half-open let the request through; open sheds
   it typed until the cooldown elapses, then flips to half-open and
   lets probes through. *)
let admit t ~op =
  locked t (fun () ->
      t.n_calls <- t.n_calls + 1;
      Telemetry.incr c_calls;
      match t.state with
      | Closed | Half_open -> ()
      | Open ->
        if t.clock () - t.opened_at >= t.config.breaker_cooldown_ns then begin
          set_state t Half_open;
          t.probe_successes <- 0
        end
        else begin
          t.n_shed <- t.n_shed + 1;
          Telemetry.incr c_shed;
          if Trace.on () then
            Trace.instant "resilience.shed" [ Trace.Str ("op", op) ];
          Spine_error.overloaded ~op ~state:(state_name Open)
        end)

let record_success t =
  locked t (fun () ->
      t.n_completed <- t.n_completed + 1;
      match t.state with
      | Closed -> t.consecutive_failures <- 0
      | Half_open ->
        t.probe_successes <- t.probe_successes + 1;
        if t.probe_successes >= t.config.breaker_probes then begin
          set_state t Closed;
          t.consecutive_failures <- 0;
          t.n_recoveries <- t.n_recoveries + 1;
          Telemetry.incr c_recoveries;
          if Trace.on () then Trace.instant "resilience.breaker_close" []
        end
      | Open -> ())

let record_failure t ~timed_out =
  locked t (fun () ->
      if timed_out then begin
        t.n_timeouts <- t.n_timeouts + 1;
        Telemetry.incr c_timeouts
      end
      else begin
        t.n_failures <- t.n_failures + 1;
        Telemetry.incr c_failures
      end;
      match t.state with
      | Half_open -> trip t
      | Closed ->
        t.consecutive_failures <- t.consecutive_failures + 1;
        if t.consecutive_failures >= t.config.breaker_failures then trip t
      | Open -> ())

let call t ~op f =
  admit t ~op;
  let run () = f t.engine in
  let body () =
    match t.config.deadline_ns with
    | None -> run ()
    | Some d ->
      Pagestore.Deadline.with_deadline ~clock:t.clock ~op ~deadline_ns:d run
  in
  match body () with
  | v ->
    record_success t;
    v
  | exception (Spine_error.Error (Spine_error.Timeout _) as e) ->
    record_failure t ~timed_out:true;
    raise e
  | exception (Spine_error.Error _ as e) ->
    record_failure t ~timed_out:false;
    raise e
