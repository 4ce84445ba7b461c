(** Synthetic query workloads over one {!Spine.Engine.t}.

    The runner drives an engine with a deterministic, seeded mix of
    query operations and times each request once.  The latency goes
    into the process-global telemetry histogram
    ([workload.<backend>.<op>.ns], so the exposition formats see it)
    and into a run-local record of (latency, request index) pairs: the
    returned {!report}'s quantiles, maximum and slowest list are exact
    values over that record, covering exactly this run even when the
    process has run workloads before.  Each request also runs under
    {!Trace.with_op}, so a traced process ([SPINE_TRACE=1]) tags its
    events per request; the runner never switches tracing on itself.

    Operation kinds:
    - {e single} — one pattern, full occurrence resolution;
    - {e batch} — [batch_size] patterns through
      {!Spine.Engine.run_batch} (the Section 4 shared backbone scan);
    - {e cursor} — an incremental valid-path walk of [cursor_steps]
      character extensions.

    Patterns are random substrings of the subject sequence (guaranteed
    hits) except for a [miss_fraction] of uniform random code strings.
    Because generation is deterministic in [(seed, config, sequence)],
    the same request stream replays against every backend — the
    latency distributions are comparable across backends by
    construction. *)

type mix = { single : int; batch : int; cursor : int }
(** Relative weights; all zero degenerates to single-pattern only. *)

type config = {
  requests : int;
  seed : int;
  min_len : int;         (** pattern length range, inclusive *)
  max_len : int;
  batch_size : int;      (** patterns per batch request *)
  cursor_steps : int;    (** extensions per cursor request *)
  miss_fraction : float; (** probability of a random (miss) pattern *)
  mix : mix;
  rate : float option;
      (** [Some r]: open loop at [r] requests/second — request [i] is
          due at [start + i/r] and its latency is measured from that
          schedule, so falling behind is charged as queueing delay
          (coordinated-omission correction).  [None]: closed loop,
          back-to-back. *)
  slowest : int;         (** how many slowest requests to report *)
  tick_every : int;      (** invoke [on_tick] every N requests; 0 = never *)
}

val default_config : config
(** 1000 requests, seed 42, lengths 4–12, batches of 16, 24-step
    cursors, 10% misses, mix 6/2/2, closed loop, slowest-10. *)

type op_report = {
  op : string;
  count : int;   (** requests that completed with a result *)
  hits : int;    (** requests that found at least one occurrence *)
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
      (** p50/p90/p99 are nearest-rank values over the run's recorded
          latencies: the smallest latency with at least that share of
          the requests at or below it *)
  max_ns : int;
  timeouts : int;  (** typed [Timeout] rejections (resilient runs) *)
  shed : int;      (** typed [Overloaded] rejections (breaker open) *)
  failed : int;    (** other typed failures (the pool's retries spent) *)
}
(** Rejected requests are counted but kept out of the latency
    record: a shed request answering in microseconds must not fake a
    fast percentile.  On a run without a resilience policy the three
    rejection counts are zero and [count] covers every request. *)

type slow = {
  s_op : string;
  s_request : int;  (** the request's [r_index] *)
  s_ns : int;
}

type report = {
  backend : string;
  total_requests : int;
  wall_ns : int;
  achieved_rps : float;
  offered_rps : float option;  (** the configured open-loop rate *)
  ops : op_report list;
  slowest : slow list;
      (** the [slowest] largest latencies of the run across all ops,
          descending (ties in request order) *)
}

(** {1 Planned requests}

    Generation and execution are split: {!plan} turns a config into a
    concrete request stream, {!drive} executes any request stream.  The
    replay path ({!Replay}) builds a stream from a recorded query log
    and re-drives it through exactly the live-run execution,
    measurement and logging code. *)

type payload =
  | Single of int array       (** one pattern, full occurrence resolution *)
  | Batch of int array list   (** patterns through {!Spine.Engine.run_batch} *)
  | Cursor of int array       (** character codes to advance a cursor over *)

type request = {
  r_index : int;
  r_payload : payload;
  r_offset_ns : int option;
      (** open-loop due time relative to the run start; [None] = issue
          immediately (closed loop) *)
}

val plan : ?config:config -> Bioseq.Packed_seq.t -> request list
(** The deterministic request stream for [(config, seq)]: exactly the
    draws the historical inline generator made, in the same order. *)

val drive :
  ?clock:(unit -> int) ->
  ?sleep_ns:(int -> unit) ->
  ?on_tick:(int -> unit) ->
  ?resilient:Spine.Resilient.t ->
  config:config ->
  Spine.Engine.t ->
  request list ->
  report * (string * Profile.t) list
(** [drive ~config engine requests] executes a request stream: each
    request runs under {!Spine.Engine.profiled} and {!Trace.with_op},
    records its latency and index in the run's per-op
    record, and — when {!Qlog.active} —
    appends a qlog record with its decoded patterns, outcome counts and
    cost profile.  Returns the run report plus the per-op sums of the
    execution profiles (ops with zero requests have all-zero profiles).

    [clock] (default {!Xutil.Stopwatch.now_ns}) and [sleep_ns] (default
    [Unix.sleepf]) exist so tests and the replay determinism gate can
    inject a fake clock and make the schedule byte-reproducible.  The
    open-loop pacer sleeps {e on the injected clock} until each
    request's scheduled start: an undersleeping (or virtual) sleeper is
    re-waited, never allowed to start a request early and record
    negative latency against the schedule.

    [resilient] routes every request through {!Spine.Resilient.call}:
    typed [Timeout]/[Overloaded]/failure rejections become workload
    dispositions in the report instead of propagating, so the driver
    keeps offering load while the engine degrades — the chaos-scenario
    measurement mode.  Rejected requests emit no qlog record. *)

val run :
  ?config:config -> ?clock:(unit -> int) -> ?sleep_ns:(int -> unit) ->
  ?on_tick:(int -> unit) -> Spine.Engine.t ->
  Bioseq.Packed_seq.t -> report
(** [run engine seq] is [drive] over [plan]: drives [engine] with
    patterns drawn from [seq].  Telemetry is force-enabled for the
    duration (prior state restored); [on_tick done] fires every
    [tick_every] completed requests — the CLI uses it to emit periodic
    metrics snapshots. *)

val latency_quantiles : int list -> float * float * float
(** [(p50, p90, p99)] of a latency sample by the nearest-rank rule the
    per-op report uses; [0.] each for an empty sample.  The replay gate
    quantiles the recorded side with this, so both sides of a
    comparison share one arithmetic. *)

val print : report -> unit
(** Render through {!Report.Table}: a latency table (count, hits, mean
    and p50/p90/p99/max per operation) and the slowest-K request
    table. *)

val jsonl : report -> string list
(** One summary object plus one object per operation. *)
