(** Seeded latency injection for {!Device}.

    An injector sleeps a deterministic, SplitMix64-drawn delay before
    every device read and/or write: [base + uniform(0, jitter)]
    nanoseconds per operation, a pure function of [(seed, operation
    sequence)] — the latency analogue of {!Fault_device}'s fault plans.

    Unlike a fault plan, the injector {e chains}: {!attach} captures
    the device's currently installed hooks and delegates to them after
    sleeping, so a scenario can arm faults first and wrap latency
    around them.  Every injected delay is charged three ways: the
    [latency.injected_ops]/[latency.injected_ns] telemetry family, a
    trace instant, and the {!Probe.injected_delay_ns} event of the
    calling domain (so per-query profiles report the delay they were
    subjected to).

    Sleeps cooperate with the ambient {!Deadline}: an injected delay is
    truncated at the deadline and an overrun query fails typed
    ([Timeout]) instead of sleeping on. *)

type config = {
  read_ns : int;    (** base delay per device read *)
  write_ns : int;   (** base delay per device write *)
  jitter_ns : int;  (** uniform extra in [[0, jitter_ns]] per op *)
  seed : int;
}

type t

val create : ?sleep_ns:(int -> unit) -> config -> t
(** [sleep_ns] (default [Unix.sleepf]) exists so tests can virtualise
    the injected time. *)

val attach : t -> Device.t -> unit
(** Capture the device's current hooks as the inner stage and install
    the injector in front of them.
    @raise Invalid_argument when [t] is already attached. *)

val detach : t -> unit
(** Restore the hooks captured by {!attach} (no-op when unattached). *)
