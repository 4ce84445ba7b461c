(** A manually advanced monotonic clock for deterministic time tests.

    Everything in the stack that reads time takes an injectable
    [clock : unit -> int] (nanoseconds) and most sleepers take a
    [sleep_ns : int -> unit]; a virtual clock provides a matched pair:
    {!now} reads it and {!advance}, injected as the sleeper, moves it
    instead of blocking, so a workload run, a breaker cooldown or an
    injected latency plan executes in zero wall time with
    byte-reproducible timestamps. *)

type t

(* spine-lint: allow unused-export -- tests fake time with it *)
val create : ?start:int -> unit -> t
(** A clock reading [start] (default 0) nanoseconds. *)

(* spine-lint: allow unused-export -- tests fake time with it *)
val now : t -> unit -> int
(** [now t] is the clock function to inject ([fun () -> current]). *)

(* spine-lint: allow unused-export -- tests fake time with it *)
val advance : t -> int -> unit
(** Move time forward ([ns <= 0] is a no-op — the clock is
    monotonic). *)
