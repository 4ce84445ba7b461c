(** Process-global telemetry: named counters, gauges, log-bucketed
    histograms and nestable phase spans.

    Two kinds of counter share one registry:

    - {e probe-backed} counters ([search.*] traversal, [pool.hits] /
      [misses] / [evictions] / [writebacks] / [io_retries],
      [device.read_*] / [write_*], [build.case*] and
      [build.*_created]; the list is {!Probe.counters}).  Their events
      are counted per domain by {!Probe} and folded into the registry
      by {!snapshot}, {!reset} and {!counter_value} (for the calling
      domain) and when a domain exits.  They count whether collection
      is enabled or not: a plain per-domain array add costs about what
      the flag check did.
    - every other metric — cold counters, gauges, histograms, spans —
      is an atomic cell updated in place.  These are gated on a single
      global flag ({!set_enabled}, or the [SPINE_TELEMETRY=1]
      environment variable): when disabled, each update is one flag
      check and no allocation, so instrumented code can stay
      instrumented in production builds.

    Measurements are scoped with snapshots: take a {!snapshot} before
    and after the region of interest and {!diff} them, or {!reset}
    everything between experiments.  Two exporters are provided — a
    human-readable table (through {!Report.Table}) and line-oriented
    JSON for machine consumption. *)

val is_enabled : unit -> bool
val set_enabled : bool -> unit
(** The global collection flag.  Initialised from the [SPINE_TELEMETRY]
    environment variable ([1]/[true]/[yes]/[on] enable). *)

(** {1 Metrics}

    Creation functions are idempotent: asking twice for the same name
    returns the same metric, so functor instantiations over different
    stores share one set of counters.
    @raise Invalid_argument if the name is already registered as a
    different metric kind. *)

type counter
val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
(** [counter_value] reads the live value, after folding the calling
    domain's probe counts (test hook; snapshots are the normal way to
    consume metrics). *)

type gauge
val gauge : string -> gauge
val set : gauge -> float -> unit

type histogram
val histogram : string -> histogram
val observe : histogram -> int -> unit
(** Log-bucketed: [v >= 1] lands in bucket [floor(log2 v) + 1] (the
    bucket covering [[2^(i-1), 2^i - 1]]); values [<= 0] land in
    bucket 0.  63 buckets cover every positive int. *)

type span
val span : string -> span
val with_span : span -> (unit -> 'a) -> 'a
(** [with_span s f] times [f ()] against the monotonic clock
    ({!Xutil.Stopwatch.now_ns}) and accumulates into [s].  Spans nest
    freely; a parent's total includes its children.  When collection is
    disabled this is exactly [f ()]. *)

(** {1 Snapshots} *)

type value =
  | Count of int
  | Level of float
  | Dist of { counts : int array; total : int; sum : int }
      (** [counts] indexed by log bucket, see {!observe}. *)
  | Timing of { calls : int; total_ns : int }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot
(** Every registered metric, after folding the calling domain's probe
    counts.  Probe counts of other live domains appear once those
    domains fold them (or exit). *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] subtracts counter/histogram/span values;
    gauges keep the later reading.  Metrics absent from [earlier] pass
    through unchanged. *)

val reset : unit -> unit
(** Fold the calling domain's probe counts, then zero every registered
    metric (registrations persist). *)

val find : snapshot -> string -> value option

(** {1 Exporters} *)

val print_table : ?title:string -> ?omit_zero:bool -> snapshot -> unit
(** Render on stdout through {!Report.Table}.  [omit_zero] (default
    [false]) drops metrics whose every value is zero — the CLI uses it
    to print only what a run actually touched. *)

val write_jsonl : path:string -> snapshot -> unit
(** Write one JSON object per metric to [path], e.g.
    [{"metric":"pool.hits","kind":"counter","value":42}].  Histograms
    carry [total], [sum], interpolated [p50]/[p90]/[p99]/[max] and the
    non-empty [[lo, hi, count]] buckets.  A quantile locates the
    bucket holding rank [round (q * total)] (at least 1) and places
    the value linearly within that bucket's range: exact for the
    single-value buckets 0 and 1, the bucket ceiling for [max].

    The file is written {e atomically}: the content goes to
    [path ^ ".tmp"] and is renamed into place, so a concurrent reader
    sees either the previous complete file or the new one, never a
    torn write. *)

val write_prometheus : ?prefix:string -> path:string -> snapshot -> unit
(** Write the snapshot to [path] in the Prometheus text exposition
    format, with the same write-to-temp + atomic-rename discipline as
    {!write_jsonl}.  Metric names are [prefix] (default ["spine_"])
    plus the registry name with every non-[[a-zA-Z0-9_]] character
    replaced by [_].  Counters and gauges map directly; a histogram
    becomes cumulative [_bucket{le="…"}] samples at its occupied
    bucket ceilings plus [_sum]/[_count], with the interpolated
    quantiles as a companion [<name>_quantile{q="…"}] gauge; a span
    becomes the two counters [<name>_calls] and [<name>_ns_total].
    Every emitted family is preceded by its [# HELP] and [# TYPE]
    lines. *)
