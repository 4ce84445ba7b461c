(** Fixed-capacity buffer pool over a {!Device}.

    All disk-resident index structures route their page accesses through
    a pool of [frames] in-memory page buffers.  Replacement is LRU, with
    an optional {e pinning policy}: the paper observes (Figure 8) that
    SPINE's backward links overwhelmingly target the top of the backbone
    and concludes that "retain as much as possible of the top part of the
    Link Table in memory" is a sufficient buffering strategy.  Passing
    [pin] marks pages as preferred residents: a pinned page is only
    evicted when every frame holds a pinned page.

    Besides its own {!stats}, every pool counts its hits, misses,
    evictions, writebacks and I/O retries as {!Probe} events, which
    feed the global [pool.*] counters and the per-query profiles. *)

type t

type replacement = [ `Lru | `Fifo ]
(** [`Fifo] models the simplest possible buffer manager (no recency
    tracking); the pinning ablation uses it to show that the paper's
    static pin-the-top policy recovers most of what recency tracking
    buys. *)

val create :
  ?pin:(int -> bool) -> ?replacement:replacement -> frames:int ->
  Device.t -> t
(** [create ~frames dev] builds a pool of [frames] page buffers
    (default replacement [`Lru]).
    @raise Invalid_argument if [frames < 1]. *)

val device : t -> Device.t

val frames : t -> int
(** The pool's fixed frame capacity (the [frames] passed to
    {!create}); frame memory is [frames * page size] bytes. *)

val set_writeback_hook : t -> (int -> unit) option -> unit
(** Install a callback invoked with the page id {e before} every dirty
    frame is written back to the device (eviction, {!flush}, {!drop}).
    {!Spine.Persistent} uses it to journal the preimage of committed
    pages so a crash after an in-place overwrite stays recoverable.  An
    exception from the hook aborts that writeback (the frame stays
    dirty, the device page is untouched) and propagates. *)

val with_page : t -> int -> dirty:bool -> (Bytes.t -> 'a) -> 'a
(** [with_page pool p ~dirty f] pins page [p] into a frame (reading it
    from the device on a miss), applies [f] to the frame's buffer, and
    marks the frame dirty when [dirty] is true.  The buffer must not be
    retained after [f] returns. Reentrant calls on {e distinct} pages are
    allowed up to the frame count.

    Cost: a hit is one {!Deadline.check}, one mutex round trip, a
    page-table lookup and an LRU relink.  A miss adds a frame: a free one in O(1) while
    the pool is not full ({!drop} and a failed read return frames to
    the free list), otherwise an LRU victim (written back first when
    dirty), then one device read.  Callers that need several bytes of
    one page should take them under a single call ({!Paged_bytes}
    does, per field).

    Transient device errors (injected I/O faults) are retried before
    propagating — the stack's one transient-I/O retry loop: a
    transient [Io_failed] is retried up to 16 attempts in all, each
    retry first calling {!Deadline.check} and counting in
    [pool.io_retries], so an armed deadline that expires during a
    retry storm surfaces as a typed [Timeout] instead of further
    attempts.  A retry re-runs one page operation, so it is
    idempotent, writes included.  Permanent errors and checksum
    failures pass through as raised.
    @raise Spine_error.Error ([Pool_exhausted]) when every frame is
    latched by a live caller (after one writeback-and-rescan pass);
    ([Timeout]) when the ambient deadline is overrun on entry or before
    a retry; ([Corrupt] / [Io_failed]) propagated from the device. *)

val iter_runs : int -> page:(int -> int) -> (int -> int -> unit) -> unit
(** [iter_runs n ~page f] splits items [0 .. n - 1], whose pages
    [page k] ascend, into runs of consecutive pages at most 64 long,
    and calls [f i len] for each, in order: the runs {!flush} and
    {!write_pages} hand the device. *)

val write_pages : ?pos:int -> ?len:int -> Device.t -> int -> Bytes.t -> unit
(** [write_pages dev p src] writes [len] bytes of [src] from [pos] on
    (default: all of it) straight to the device, bypassing any pool,
    as consecutive pages from [p] on, the last page's tail zeroed as a
    fresh page is.  They go as {!Device.write_run}s of up to 64 pages
    under the same retry policy as {!with_page}: one positioned write
    per run while nothing fails; from a page whose write fails on, page
    by page, each page with the full budget (the failed run counts as
    that page's first attempt). *)

val dirty_pages : t -> int array
(** The pages of the dirty frames, ascending: what {!flush} will
    write.  The pool queues each frame as it goes clean -> dirty, so
    this and {!flush} cost O(d log d) for the d frames dirtied since
    the last call, whatever the pool's size. *)

val flush : t -> unit
(** Write back every dirty frame, in page order: each stretch of up to
    64 consecutive dirty pages goes to the device as one
    {!Device.write_run}.  The writeback hook still runs for every page before
    its run is written, and a transient error retries page by page, so
    fault plans, device stats and probes count pages as single
    writebacks would. *)

val drop : t -> unit
(** Flush, then empty the pool (subsequent accesses re-read the device);
    used between experiment phases to measure cold-cache behaviour. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  pinned_evictions : int;
      (** evictions that had to sacrifice a pinned page because every
          resident frame was pinned — the failure mode of the paper's
          static pin-the-top policy under an undersized pool *)
  writebacks : int;
}

val stats : t -> stats
val reset_stats : t -> unit
(** Zero every counter (frame contents are untouched). *)

