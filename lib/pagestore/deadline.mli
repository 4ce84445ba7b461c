(** Cooperative per-query deadlines for the paged storage stack.

    A deadline is {e ambient}: {!with_deadline} arms one for the
    calling domain (saving any outer deadline), and the storage hot
    paths — the buffer pool's page entry point, the latency injector's
    sleeps — call {!check} cooperatively.  Once the armed budget is
    overrun, {!check} raises a typed {!Spine_error.Error} ([Timeout]),
    so a paged query under injected latency or a retry storm aborts
    promptly instead of hanging.  The buffer pool's transient-I/O
    retry loop, the stack's only one, checks it before every retry.
    The engine's resilience layer ([Spine.Resilient]) arms it
    around every guarded call.

    The slot is per-domain ([Domain.DLS]); parallel domains carry
    independent deadlines. *)

val with_deadline :
  ?clock:(unit -> int) -> op:string -> deadline_ns:int ->
  (unit -> 'a) -> 'a
(** Run [f] with an armed deadline of [deadline_ns] from now (on
    [clock], default {!Xutil.Stopwatch.now_ns}).  Restores the previous
    ambient deadline (if any) on exit.  The deadline is cooperative:
    [f] fails only when something on its path calls {!check}. *)

val check : unit -> unit
(** No-op when no deadline is armed or time remains.
    @raise Spine_error.Error ([Timeout]) when the armed deadline is
    overrun; the payload carries the arming operation name, the budget
    and the elapsed time. *)

val remaining_ns : unit -> int option
(** Budget left on the ambient deadline (negative once overrun);
    [None] when unarmed.  The latency injector bounds its sleeps with
    this so an injected delay cannot overshoot the deadline by more
    than a check interval. *)
