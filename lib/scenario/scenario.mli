(** Chaos scenarios: composable fault/latency/load stages with
    end-of-stage expectations, all deterministic in one seed.

    A scenario is a JSONL file (parsed with {!Bench_gate.Json}, one
    object per line, [#] comments and blank lines ignored):

    {v
    {"scenario": "storm-recovery", "version": 1, "seed": 42}
    {"stage": "build", "chars": 20000, "chunks": 4, "alphabet": "dna",
     "frames": 16, "page_size": 4096}
    {"stage": "faults", "spec": "read_error:times=6;flip:page=3-40:times=2"}
    {"stage": "latency", "read_us": 150, "write_us": 50, "jitter_us": 80}
    {"stage": "workload", "requests": 300, "rate": 2000,
     "mix": {"single": 6, "batch": 2, "cursor": 2}, "qlog": true,
     "resilience": {"deadline_ms": 1000, "breaker_failures": 5}}
    {"stage": "crash", "chars": 4000, "chunks": 2, "after_writes": 30}
    {"stage": "expect", "parity": 200, "scrub": "clean",
     "p99_under": {"single": 50}, "replay": {"tolerance": 0.5},
     "breaker": "closed", "reconcile": true}
    v}

    Stage semantics (stages execute in file order and compose):

    - {e build} — create a persistent index in a scratch directory and
      append [chars] characters of the scenario's seeded synthetic
      sequence, flushing after each of [chunks] even chunks.  The
      sequence is generated once for the whole scenario (build plus
      every crash stage), so the stream is one continuous text.
    - {e faults} — arm a {!Pagestore.Fault_device} from a
      [SPINE_FAULTS]-grammar spec string ({!Pagestore.Fault_spec}).  A
      spec without [seed=] inherits the scenario seed.  An armed
      latency injector is re-wrapped around the new fault hooks.
    - {e latency} — wrap the device in a
      {!Pagestore.Latency_device}: seeded per-op injected delay
      (base + uniform jitter), charged into telemetry, traces and
      per-query profiles, truncated at an armed deadline.
    - {e workload} — drive the engine with a seeded {!Workload} mix
      (open loop when [rate] is present).  With a [resilience] object
      the requests route through a fresh {!Spine.Resilient} wrapper
      (deadline, circuit breaker) and typed rejections become report
      dispositions.  Its keys are [deadline_ms], [breaker_failures],
      [breaker_cooldown_ms] and [breaker_probes]; the retry keys
      [max_attempts], [backoff_base_us], [backoff_max_ms] and [seed]
      are rejected, because transient I/O is retried by the buffer
      pool ({!Pagestore.Buffer_pool.with_page}).  [seed_offset]
      (default 1) decouples the pattern stream from the fault/latency
      draws.  [qlog] records the run for a later [replay]
      expectation.
    - {e crash} — kill -9: arm a [Crash] fault [after_writes] device
      writes into appending [chars] more characters, stop at the
      freeze, abandon the handle, reopen, and truncate the oracle to
      the recovered length.  Injection hooks do {e not} survive the
      reopen; re-arm with new [faults]/[latency] stages if wanted.
    - {e expect} — named checks against the current state, in key
      order: [parity] (N seeded probe patterns, engine vs a
      {!Suffix_tree} oracle, exact equality of the sorted positions),
      [scrub] (flush then {!Spine.Persistent.verify}: zero damaged and
      zero stale pages), [p99_under] (per-op p99 bound in ms from the
      last workload report), [replay] (re-drive the last recorded qlog
      through {!Replay.drive_records} and demand a clean gate),
      [breaker] (the last wrapper's breaker state), [reconcile]
      (resilience counters explain every workload request:
      [calls = completed + timeouts + shed + failures], and the
      report's dispositions agree).

    Every random draw — sequence, faults, latency jitter, workload
    patterns, probe patterns — derives from the one
    scenario seed, so a run is reproducible end to end and a seed
    sweep is a different storm against the same expectations. *)

type check =
  | Parity of int
  | Scrub_clean
  | P99_under of { pu_op : string; pu_bound_ns : int }
  | Replay_gate of { rg_tolerance : float; rg_floor_ns : float }
  | Breaker_is of string
  | Reconcile

type wstage = {
  w_requests : int;
  w_mix : Workload.mix;
  w_rate : float option;
  w_min_len : int;
  w_max_len : int;
  w_batch_size : int;
  w_cursor_steps : int;
  w_miss_fraction : float;
  w_seed_offset : int;
  w_resilience : Spine.Resilient.config option;
  w_qlog : bool;
}

type bstage = {
  b_chars : int;
  b_chunks : int;
  b_alphabet : Bioseq.Alphabet.t;
  b_frames : int option;
  b_page_size : int option;
}

type cstage = { c_chars : int; c_chunks : int; c_after_writes : int }

type stage =
  | Build of bstage
  | Faults of { f_raw : string; f_spec : Pagestore.Fault_spec.t }
  | Latency of { l_read_ns : int; l_write_ns : int; l_jitter_ns : int }
  | Workload of wstage
  | Crash of cstage
  | Expect of check list

type t = { sc_name : string; sc_seed : int; sc_stages : stage list }

val parse : string -> (t, string) result
(** Parse scenario text; [Error] messages carry the 1-based line. *)

val load : path:string -> (t, string) result

(** {1 Running} *)

type check_result = { c_name : string; c_pass : bool; c_detail : string }

type run_result = {
  r_name : string;
  r_seed : int;
  r_stages : string list;  (** executed stage labels, in order *)
  r_checks : check_result list;
  r_counts : Spine.Resilient.counts option;
      (** the last workload's resilience counters, when it had a
          policy *)
  r_io_retries : int;
      (** the [pool.io_retries] delta across the last workload: the
          transient I/O errors the buffer pool absorbed *)
  r_report : Workload.report option;  (** the last workload's report *)
}

val run : ?seed:int -> ?dir:string -> t -> (run_result, string) result
(** Execute the scenario.  [seed] overrides the header seed (the CI
    sweep); [dir] pins the scratch directory (default: a fresh temp
    directory, removed afterwards).  [Error] is a scenario-level
    execution fault — a stage that cannot run at all (workload before
    build, a crash point the workload never reaches, …) — distinct
    from an expectation failure, which lands in [r_checks].  Telemetry
    is force-enabled for the duration and restored. *)

val passed : run_result -> bool
(** Every check passed (vacuously true with no expect stage). *)

val print : run_result -> unit
(** Expectation table plus a resilience-counter line (with
    [io_retries]) through {!Report.Table}. *)

val jsonl : run_result -> string list
(** One summary object, then one object per check. *)
