(** Disk-resident SPINE (Section 6.2 of the paper).

    Reproduces the paper's methodology for the on-disk experiments: the
    index is built and searched through a bounded buffer pool over a
    synchronous simulated disk, so the measured cost is the structure's
    {e access locality}, not the host's CPU or filesystem cache.  The
    Link Table and the four Rib Tables each occupy their own page
    region, mirroring how the Section 5 layout would be mapped to a
    file.

    The paper's buffering policy — "retain as much as possible of the
    top part of the Link Table in memory", justified by Figure 8's
    top-skewed link destinations — is available as [pin_top_lt_pages]. *)

type config = {
  page_size : int;          (** bytes per device page (default 4096) *)
  frames : int;             (** buffer-pool capacity in pages (default 256) *)
  pin_top_lt_pages : int;   (** LT pages from the top kept resident
                                (default 0 = no pinning) *)
  sync_writes : bool;       (** pay the O_SYNC cost per write, as the
                                paper did (default true) *)
  replacement : Pagestore.Buffer_pool.replacement;
  (** page replacement for unpinned frames (default [`Lru]) *)
  cost : Pagestore.Device.cost;
}

val default_config : config

type t = {
  index : Compact.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
  router : Pagestore.Trace_router.t;
}

val build : ?config:config -> Bioseq.Packed_seq.t -> t
(** Construct the index with every LT/RT record access routed through
    the buffer pool. Device and pool statistics after the call describe
    the construction I/O; the paper's Figure 7 reads
    [Device.stats device] afterwards. *)

val engine : t -> Engine.t
(** Pack as a capability-aware engine (backend "disk", [paged] and
    [traced] set): queries run over the packed layout with every record
    access faulting through the bounded buffer pool, exactly like the
    paper's disk-resident experiments. *)

val reset_io : t -> unit
(** Flush and empty the pool and zero the device counters — call
    between construction and a search measurement so the search starts
    cold, as a freshly-opened disk index would. *)

val simulated_seconds : t -> float
(** Accumulated simulated I/O latency, in seconds. *)
