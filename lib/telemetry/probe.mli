(** Per-domain event counts: the one counting path for the hot-path
    events of the index, the buffer pool and the device.

    Every occurrence of a hot event — an edge crossed, a page hit, a
    device byte read, a builder case — is one {!add} (or {!step}) on a
    plain [int array] held in a {!Domain.DLS} slot of the calling
    domain: one DLS read and one array store, no atomic, no flag check.
    Everything else is derived from these counts:

    - the global [search.*], [pool.*], [device.*] and [build.*]
      counters: {!Telemetry} registers each event's counter name and,
      on [snapshot], [reset] and [counter_value], {!fold}s the calling
      domain's counts into the event's global total;
    - per-query profiles: {!Profile.profiled} reads {!local} on entry
      and on exit and keeps the difference;
    - the edge-crossing trace instants: {!step} records them when
      {!Trace.on}.

    A domain's counts reach the global totals when that domain folds
    them, and at the latest when it exits ([Domain.at_exit]), so a
    domain joined before a snapshot is counted exactly once.  Counts
    only grow; folding moves a per-domain watermark, never the counts
    a profile is reading. *)

type event = private int

(** {1 Events}

    The global counter an event backs is given by {!counters}; events
    with a trace instant say so. *)

val vertebra : event
val rib : event
val extrib : event
val link : event
(** The four edge families: [search.vertebra_hops], [search.rib_hops],
    [search.extrib_hops] and [search.link_hops] (search, matcher and
    cursor).  Instants [step.vertebra], [step.rib], [step.extrib] and
    [step.link]. *)

val word_steps : event
val scalar_steps : event
(** [search.word_steps] and [search.scalar_steps]: the compares of the
    word-packed vertebra runs, whole-word (each covering up to
    [62 / width] characters, a span's last partial word masked) and
    per-character (rows of mixed cell widths, unpackable pattern
    codes). *)

val descent : event
(** Characters descended along valid paths.  Profile only: no global
    counter. *)

val scan_nodes : event
val found : event
(** [search.scan_nodes] and [search.occurrences_found]: the
    target-node-buffer scan. *)

val pool_hit : event
val pool_miss : event
val pool_eviction : event
val pool_writeback : event
val io_retry : event
(** [pool.hits], [pool.misses], [pool.evictions], [pool.writebacks] and
    [pool.io_retries], over every buffer pool. *)

val device_read : event
val device_write : event
val device_read_bytes : event
val device_write_bytes : event
(** [device.read_pages], [device.write_pages], [device.read_bytes] and
    [device.write_bytes], over every device. *)

val injected_delay_ns : event
(** Device latency the injector slept.  Profile only: the
    [latency.injected_*] metrics stay on {!Telemetry}. *)

val build_case1 : event
val build_case2 : event
val build_case3 : event
val build_case4 : event
(** The paper's Section 3 construction cases: [build.case1] ..
    [build.case4], with instants of the same names.  CASE 3 is exactly
    the creation of one rib, so [build_case3] also backs
    [build.ribs_created]. *)

val build_extrib : event
val build_link : event
(** [build.extribs_created] and [build.links_created]. *)

val counters : (event * string) list
(** The global counter names each event backs, one pair per name. *)

(** {1 Counting} *)

val add : event -> int -> unit
(** [add ev n] adds [n] to the calling domain's count of [ev]. *)

val step : event -> node:int -> dest:int -> unit
(** [step ev ~node ~dest] is [add ev 1] plus, when {!Trace.on}, the
    event's trace instant with arguments [node] and [dest] (named
    ["tail"] for the builder cases).  For the events documented with an
    instant. *)

(** {1 Reading} *)

val local : unit -> int array
(** A copy of the calling domain's counts since the domain started,
    indexed by event. *)

val fold : unit -> unit
(** Add the calling domain's counts since its last fold to the global
    totals. *)

val total : event -> int Atomic.t
(** The global total of [ev]: every domain's folded counts.  {!Telemetry}
    reads and resets it as the event's counter. *)
