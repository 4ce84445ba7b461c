(** Per-operation execution profiles.

    The telemetry counters are process-global aggregates: they can say
    the process did 40k rib steps and 900 page faults, not {e which
    query} cost what.  A {!t} is the per-query answer: the traversal
    work by edge family, the backbone descent depth and
    occurrence-scan length, the buffer-pool and device traffic the
    query caused, plus allocation and wall time.

    A profile is derived from the calling domain's {!Probe} counts —
    the same counts behind the [search.*], [pool.*] and [device.*]
    counters — read when the scope opens and when it closes.  The hot
    paths make one probe call per event and know nothing of profiles,
    so per-query sums reconcile exactly with the global counter deltas,
    and parallel domains profile independent queries without seeing
    each other's work.  Scopes nest by {e shadowing}: a nested
    {!profiled} captures its own costs and the outer profile does not
    include them.

    Completed profiles also feed two process-global telemetry metrics,
    the [profile.queries] counter and the [profile.wall_ns]
    histogram. *)

type t = {
  mutable vertebra_steps : int;  (** backbone edges followed *)
  mutable rib_steps : int;       (** rib edges taken *)
  mutable extrib_steps : int;    (** extrib-chain entries chased *)
  mutable link_steps : int;      (** backward links followed *)
  mutable descent_depth : int;
      (** characters descended along valid paths (the forward walk
          depth reached, summed over walks) *)
  mutable scan_nodes : int;
      (** backbone nodes visited by the target-node-buffer scans *)
  mutable found : int;           (** occurrences reported *)
  mutable word_steps : int;
      (** whole-word packed comparisons on the scan paths (each covers
          up to [62 / width] characters) *)
  mutable scalar_steps : int;
      (** per-character fallback comparisons (span tails, mixed-width
          rows) *)
  mutable pool_hits : int;
  mutable pool_misses : int;     (** page faults this query caused *)
  mutable pool_evictions : int;
  mutable device_read_bytes : int;
      (** bytes of every device read the query caused, retried
          attempts included *)
  mutable device_write_bytes : int;
  mutable io_retries : int;
      (** transient-I/O retry passes the buffer pool paid for this
          query (injected or real) *)
  mutable injected_delay_ns : int;
      (** device latency the injector ({!Pagestore.Latency_device})
          charged to this query *)
  mutable alloc_bytes : int;     (** via [Gc.allocated_bytes] deltas *)
  mutable wall_ns : int;
}

val make : unit -> t
(** An all-zero profile. *)

val profiled : (unit -> 'a) -> 'a * t
(** [profiled f] runs [f] as a profiled scope of the calling domain and
    returns [f]'s result with the completed profile.  On exceptions the
    partial profile is discarded, and the scope still shadows its
    enclosing scope.  {!Spine.Engine.profiled} is the guarded entry
    point queries should use. *)

(** {2 Aggregation and (de)serialization} *)

val absorb : t -> t -> unit
(** [absorb dst src] adds every field of [src] into [dst]. *)

val fields : t -> (string * int) list
(** Every field as [(name, value)], in schema order — the profile
    section of the qlog record grammar and the explain JSONL report. *)

val deterministic_fields : t -> (string * int) list
(** {!fields} minus [alloc_bytes], [wall_ns], [io_retries] and
    [injected_delay_ns]: the counters that are deterministic for a
    fixed engine state and request stream (the excluded four depend on
    GC, timing, or the armed fault/latency plans), which is what the
    replay regression gate compares. *)

val of_fields : (string * int) list -> t
(** Rebuild a profile from {!fields} output; missing keys are zero. *)
