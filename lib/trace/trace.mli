(** Per-operation event tracing.

    Where {!Telemetry} answers "how much, over the whole run", this
    subsystem answers "where did {e this} operation spend its time":
    every instrumented layer (builder cases, per-edge-family traversal
    steps, buffer-pool faults, device transfers, structure→page
    routing) emits timestamped events into one process-global ring
    buffer, tagged with the id of the enclosing {e operation} (a build,
    a query, a matching run).  One exported trace therefore shows
    exactly which rib/extrib/link step triggered which page fault.

    Collection is off by default and costs a single flag check per
    instrumented site ({!on}); hot paths guard argument construction
    with [if Trace.on () then Trace.instant ...] so the disabled path
    allocates nothing.  When on, events go into a fixed-capacity ring
    with head-drop semantics (the newest events are always retained;
    the oldest are dropped and counted), and whole operations can be
    probabilistically sampled away with a deterministic seeded RNG.
    Operations whose wall time exceeds the slow threshold are always
    summarised in a separate slow-op log, even when sampled out of the
    event ring.

    Environment switches (read once at module initialisation; the
    setters below override them):

    - [SPINE_TRACE=1] (also [true]/[yes]/[on]) — enable collection;
    - [SPINE_TRACE_SAMPLE=0.25] — per-operation sampling probability
      in [\[0, 1\]] (default 1: trace every operation);
    - [SPINE_TRACE_SLOW_US=500] — slow-op threshold in microseconds
      (default 0: slow-op log disabled);
    - [SPINE_TRACE_CAPACITY=65536] — ring capacity in events;
    - [SPINE_TRACE_SEED=42] — sampling RNG seed.

    Malformed values fall back to the defaults; the library never
    fails to initialise.  Timestamps come from the same monotonic
    clock as {!Xutil.Stopwatch} and the telemetry spans. *)

(** {1 Events} *)

type arg =
  | Int of string * int
  | Str of string * string
      (** Typed key/value payload: node ids, edge families, page ids,
          structure ids, pattern strings. *)

type phase =
  | Begin  (** span / operation start *)
  | End    (** span / operation end *)
  | Instant  (** point event *)

type event = {
  ts_ns : int;  (** monotonic timestamp, {!Xutil.Stopwatch.now_ns} *)
  phase : phase;
  name : string;
  args : arg list;
  op : int;  (** id of the enclosing operation; 0 = outside any *)
}

(** {1 The collection switch} *)

val is_enabled : unit -> bool
val set_enabled : bool -> unit

val on : unit -> bool
(** [true] iff events are being recorded {e right now}: collection is
    enabled and the current operation was not sampled away.  Hot
    instrumentation sites test this before building their [arg] lists
    so a disabled trace costs one check and no allocation. *)

(** {1 Configuration} *)

(* spine-lint: allow unused-export -- tests pin the sampling rate *)
val set_sample_rate : float -> unit
(** Clamped to [\[0, 1\]].  Sampling is per {!with_op} operation: a
    sampled-out operation records no events at all (its slow-op
    summary is still kept). *)

(* spine-lint: allow unused-export -- tests pin the sampling seed *)
val set_seed : int -> unit
(** Reset the sampling RNG (SplitMix64) to a deterministic state: the
    same seed and operation sequence reproduce the same keep/drop
    pattern. *)

(* spine-lint: allow unused-export -- tests pin the slow-op threshold *)
val set_slow_us : int -> unit
(** Slow-op threshold in microseconds; [<= 0] disables the log. *)

(* spine-lint: allow unused-export -- tests shrink the ring to wrap it *)
val set_capacity : int -> unit
(** Resize the ring (clamped to [>= 1]).  Discards buffered events. *)

(* spine-lint: allow unused-export -- tests swap in a deterministic clock *)
val set_clock : (unit -> int) -> unit
(** Replace the timestamp source (test hook; tests restore
    [Xutil.Stopwatch.now_ns] afterwards).  Deterministic clocks make
    the exporters' output, and slow-op detection, reproducible. *)

val reset : unit -> unit
(** Drop all buffered events, the slow-op log, the drop counter and
    the operation-id counter.  Configuration (enabled flag, rate,
    seed position, capacity, clock) is untouched. *)

(** {1 Recording} *)

val instant : string -> arg list -> unit
(** Record a point event (no-op unless {!on}). *)

val begin_span : string -> arg list -> unit
(** Open a span.  Paired with {!end_span}; the pair form exists so hot
    paths can bracket existing code without allocating a closure.
    Callers capture [Trace.on ()] once and guard both calls with it. *)

val end_span : unit -> unit
(** Close the innermost open span (no-op when none is open). *)

val span : string -> arg list -> (unit -> 'a) -> 'a
(** [span name args f] runs [f] inside a [Begin]/[End] pair
    (exception-safe).  Convenience for cold paths. *)

val with_op : string -> arg list -> (unit -> 'a) -> 'a
(** [with_op name args f] runs [f] as one traced {e operation}: a
    fresh operation id tags every event recorded inside, the sampling
    decision is drawn once for the whole operation, and the duration
    is checked against the slow threshold on the way out (slow
    operations are logged even when sampled out or when the ring has
    since wrapped).  Operations nest; a nested operation inherits a
    parent's sampled-out state. *)

(** {1 Reading back} *)

val events : unit -> event list
(** Buffered events, oldest first (at most the ring capacity). *)

val dropped : unit -> int
(** Events overwritten by head-drop since the last {!reset}. *)

(** {1 Exporters} *)

val write_chrome : path:string -> unit
(** Write the buffered events to [path] as one Chrome trace-event JSON
    object ([{"traceEvents":[...]}]) loadable in [chrome://tracing]
    and Perfetto.  Spans become [B]/[E] pairs, instants become [i];
    each operation renders as its own track (its id is the [tid]),
    with a [thread_name] metadata record carrying the operation
    name. *)

val write_jsonl : path:string -> unit
(** Write one JSON object per event to [path], e.g.
    [{"ts_ns":1042,"ph":"i","name":"step.rib","op":3,"args":{"node":7,"dest":9}}]. *)

val slow_rows : unit -> string list list
(** The slow-op log, chronological and retained regardless of
    sampling and ring wrap, as [[op; name; duration ms; sampled
    ("yes"/"no"); args]] rows for {!Report.Table.print}-style
    rendering. *)
