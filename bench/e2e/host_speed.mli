(** The host's speed, read while a run measures, and timings scaled to
    a reference speed.

    A shared host runs this process's core slower while a neighbour is
    busy on the same physical core.  Measured on a 2-vCPU KVM guest: a
    loop of independent integer operations ran up to 1.9 times slower,
    a lookup about 1.5 times, while a pointer chase over 48 MB did not
    slow, so the contention is for the core, not for memory.  The
    neighbour comes and goes within a millisecond, and the share of the
    time it is there changes from second to second and, for minutes at
    a time, from one stretch to the next, so a whole run can fall in a
    slow stretch.

    So a run reads the host's speed next to every timing with a
    {!meter}: {!probe}, a fixed loop of about 0.15 ms that touches no
    memory and calls no program code, taken between requests, never
    inside a timed call.  Each timing is then scaled to the {!reference}
    speed by {!scale} of its reading.  A request is not all core work,
    so it slows less than the probe: over two sets of 10 runs, the
    log-log slope of a round's latency or rate against its reading was
    0.58 to 0.86 by workload and metric, and {!exponent} sits in that
    range.  A change to the program cannot move the probe, so it moves
    a scaled timing as much as a raw one. *)

val probe : unit -> float
(** Nanoseconds per iteration of the reference loop. *)

val reference : float
(** 1.5 ns per iteration: the probe on the calibration host while no
    neighbour was busy. *)

val exponent : float
(** 0.75.  Replayed on the rounds of those two sets, it kept the 10-run
    spread (IQR/median) of every request and bulk metric at or below
    0.10, against 0.15 to 0.43 unscaled; an exponent of 1 left up to
    0.17, and a slope fitted to each run's own rounds did worse than no
    scaling. *)

type meter
(** The probes taken since the last {!reading}. *)

val meter : unit -> meter

val sample : meter -> unit
(** Takes a probe now. *)

val tick : meter -> unit
(** Takes a probe when 25 ms have passed since the last one; cheap
    enough to call between any two requests. *)

val reading : meter -> float
(** The mean of the probes since the last reading, and starts over.
    @raise Invalid_argument when no probe was taken. *)

val scale : float -> float
(** [scale reading] is [(reference /. reading) ** exponent]: a time
    measured while the probe read [reading] is multiplied by it, a rate
    divided. *)
