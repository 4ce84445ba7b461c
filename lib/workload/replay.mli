(** Trace-driven replay: re-drive a recorded query log and gate on the
    recorded-vs-replayed delta.

    A qlog ({!Qlog}) captures what a live run actually did — every
    request's patterns, arrival offset, outcome counts, latency and
    cost profile.  Replay turns those records back into a
    {!Workload.request} stream and executes it through
    {!Workload.drive}, then compares the two runs with the
    {!Bench_gate} machinery:

    - group ["latency"]: per-op [p50]/[p90]/[p99] (unit ["ns"]),
      recorded quantiles against replayed quantiles, protected by a
      noise floor ([latency_floor_ns]) so sub-floor jitter never
      flags;
    - group ["cost"]: per-op sums of the {e deterministic} profile
      fields ({!Profile.deterministic_fields}, unit ["count"]) —
      traversal steps, scan lengths, occurrence counts, pool and
      device traffic.  Against the same engine state these are exact,
      so any drift is a real behaviour change, not noise.

    Only operations that actually appear in the log contribute
    entries, so a single-op recording never reports spuriously
    [Removed] ops. *)

type outcome = {
  rp_requests : int;                            (** records replayed *)
  rp_report : Workload.report;                  (** the replayed run *)
  rp_profiles : (string * Profile.t) list;      (** replayed per-op sums *)
  rp_comparisons : Bench_gate.comparison list;  (** recorded vs replayed *)
}

val drive_records :
  ?clock:(unit -> int) ->
  ?sleep_ns:(int -> unit) ->
  ?closed_loop:bool ->
  ?tolerance:float ->
  ?latency_floor_ns:float ->
  engine:Spine.Engine.t ->
  Qlog.record list ->
  (outcome, string) result
(** Replay [records] against [engine] and compare.  The request
    stream is rebuilt from the records: ["single"] and ["cursor"]
    records need exactly one pattern, ["batch"] any number; patterns
    are re-encoded in the engine's alphabet.  [closed_loop] (default
    false) discards the recorded arrival offsets so requests run
    back-to-back; otherwise the recorded inter-arrival gaps are
    honored.  [tolerance]
    (default [0.25]) is the relative regression budget per
    {!Bench_gate.compare_baselines}; [latency_floor_ns] (default
    [1e6], i.e. 1 ms) is the ["ns"]-unit noise floor.  The replayed
    run inherits {!Workload.drive}'s injectable [clock]/[sleep_ns].
    [Error] only on a malformed stream (an unknown op, a pattern/op
    arity mismatch, or a character outside the alphabet); a regression
    is {e not} an error — inspect
    [Bench_gate.failures outcome.rp_comparisons]. *)

val print : outcome -> unit
(** Render the comparison through {!Report.Table} ([group; name; unit;
    recorded; replayed; ratio; verdict] rows) plus the replayed run's
    own report. *)

val jsonl : outcome -> string list
(** The replayed report's JSONL lines plus one
    [{"replay_cmp":...}] object per comparison row. *)
