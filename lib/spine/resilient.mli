(** Engine-level resilience: a per-query deadline and a circuit
    breaker.

    A {!t} wraps an {!Engine.t} with the degradation policy a query
    service needs under an adversarial environment (the chaos scenarios
    of [lib/scenario] certify it):

    - {e Deadline}: every {!call} arms a cooperative per-query deadline
      ({!Pagestore.Deadline}) checked in the paged hot paths and the
      latency injector's sleeps, so a query never hangs — it fails with
      a typed {!Spine_error.Error} ([Timeout]) and no partial result.
    - {e Circuit breaker}: [breaker_failures] consecutive failures trip
      the breaker open; while open (and cooling down) every call is
      {e shed} with a typed [Overloaded] rejection without touching the
      engine.  After [breaker_cooldown_ns] the breaker half-opens and
      admits probes; [breaker_probes] consecutive successes close it
      (a failure re-trips immediately).

    A call runs [f] once.  Transient [Io_failed] errors are retried
    below it, one page operation at a time, by the buffer pool
    ({!Pagestore.Buffer_pool.with_page}: up to 16 attempts, each
    behind a deadline check); an error that reaches {!call} has
    already used that budget and counts as a failure.

    Every outcome feeds the [resilience.*] telemetry family
    ([calls], [timeouts], [shed], [failures], [breaker_trips],
    [recoveries] counters and the [breaker_state] gauge: 0 closed /
    1 open / 2 half-open) plus a per-instance {!counts} mirror that
    scenario expectations reconcile against per-query profiles.  State
    transitions are mutex-guarded, so one wrapper may guard an engine
    shared across domains. *)

type breaker_state = Closed | Open | Half_open

val state_name : breaker_state -> string
(** ["closed"] / ["open"] / ["half-open"] — also the [state] payload of
    [Overloaded] rejections. *)

type config = {
  deadline_ns : int option;  (** per-call budget; [None] = no deadline *)
  breaker_failures : int;    (** consecutive failures that trip open *)
  breaker_cooldown_ns : int; (** open time before half-open probing *)
  breaker_probes : int;      (** successes in half-open that close *)
}

val default_config : config
(** 1 s deadline, trip at 5 consecutive failures, 200 ms cooldown,
    3 probes. *)

type t

val create : ?clock:(unit -> int) -> ?config:config -> Engine.t -> t
(** [clock] (default {!Xutil.Stopwatch.now_ns}) exists so tests drive
    deadlines and cooldown through a virtual clock. *)

val call : t -> op:string -> (Engine.t -> 'a) -> 'a
(** [call t ~op f] runs [f] once on the wrapped engine under the
    deadline and the breaker.  [op] names the operation in errors,
    traces and telemetry.
    @raise Spine_error.Error ([Overloaded]) when the breaker sheds the
    call; ([Timeout]) when the deadline is overrun inside [f]; any
    error [f] raised otherwise. *)

val breaker_state : t -> breaker_state

type counts = {
  calls : int;       (** admission attempts (sheds included) *)
  completed : int;   (** calls that returned a result *)
  timeouts : int;
  shed : int;
  failures : int;    (** non-timeout typed failures *)
  breaker_trips : int;
  recoveries : int;  (** half-open → closed transitions *)
}

val counts : t -> counts
(** This instance's mirror of the [resilience.*] counters —
    [calls = completed + timeouts + shed + failures] on a quiesced
    wrapper, which is what scenario expectations assert. *)
