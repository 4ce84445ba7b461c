(** Exact order statistics over raw samples.

    Latency percentiles are taken by nearest rank over every recorded
    sample (no histogram buckets), and a percentile is refused unless at
    least {!min_beyond} samples lie beyond its rank, so a p99 needs
    1,000 samples.  {!quartiles} mirrors Python's
    [statistics.quantiles(values, n=4)] (its default "exclusive"
    method), the statistic run-to-run spread is judged with. *)

val min_beyond : int
(** Samples that must lie strictly beyond a percentile's rank: 10. *)

val nearest_rank : float array -> float -> (float, string) result
(** [nearest_rank sorted p] is [sorted.(ceil (p / 100 * n) - 1)], the
    smallest sample with at least [p] percent of the [n] samples at or
    below it.  [sorted] must be ascending.  [Error] when [p] is outside
    (0, 100) or fewer than {!min_beyond} samples lie beyond the rank. *)

val median : float array -> float
(** Middle value (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] by Python's exclusive method; the input need not
    be sorted.  @raise Invalid_argument with fewer than 2 values. *)
