(** The four workloads of the end-to-end benchmark.

    Each workload builds its index from the synthetic ECO corpus, runs
    a seeded closed-loop request stream with one client for a time
    budget, and checks every answer against {!Suffix_tree} afterwards.
    Only calls into public functions of [Spine.Engine],
    [Spine.Compact], [Spine.Persistent], [Pagestore.Buffer_pool],
    [Pagestore.Device] and [Bioseq.Packed_seq] are timed.

    An untraced run reports {!end_to_end} with every instrumentation
    layer off.  A traced run ([traced = true]) first repeats the
    untraced run, then replays the same requests with [Telemetry] on,
    every request under [Engine.profiled] and bench-side {!Spans}
    around each public call, and reports {!per_layer}. *)

type metric = { name : string; value : float; unit_ : string }

val end_to_end : (string * string) list
(** [(name, unit)] of every end-to-end metric, in report order.  Every
    workload reports all of them. *)

val per_layer : (string * string) list
(** [(name, unit)] of every per-layer metric, in report order.  A
    layer a workload never enters reads 0. *)

type config = {
  seed : int;
  seconds : float;          (** measuring budget *)
  traced : bool;
  dir : string;             (** scratch directory for index files and traces *)
  text_len : int;           (** indexed corpus characters *)
  setup_reps : int;         (** builds whose median is [setup_s] *)
  frames : int;             (** buffer-pool frames (paged workloads) *)
  min_len : int;            (** request pattern lengths, inclusive *)
  max_len : int;
  miss_frac : float;        (** share of lookups drawn as random codes *)
  query_len : int;          (** matching-statistics query (mem-lookup) *)
  distinct : int;           (** Zipf support (mem-occurrences) *)
  bulk_per_round : int;     (** bulk requests in each half-second round *)
  chunk : int;              (** chars per append (paged-append) *)
  max_chunks : int;
  lookups_per_chunk : int;
}

type result = {
  metrics : metric list;    (** {!end_to_end}, or {!per_layer} when traced *)
  notes : metric list;      (** sample counts, failed_frac, input sizes *)
  attempted : int;          (** answers checked *)
  failed : int;             (** wrong answers plus requests that raised *)
  diagnostics : string list;
  trace_file : string option;  (** Chrome trace of a traced run *)
}

type workload = {
  name : string;
  defaults : config;        (** seed 42, 15 s, untraced, ".bench_e2e" *)
  run : config -> result;
}

val all : workload list
(** mem-lookup, mem-occurrences, paged-cold, paged-append. *)

val find : string -> workload option

val tiny : config -> config
(** The same workload shrunk to a few thousand characters and a few
    milliseconds, for the smoke test. *)
