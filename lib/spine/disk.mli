(** Disk-resident SPINE (Section 6.2 of the paper).

    Reproduces the paper's methodology for the on-disk experiments: the
    index is built and searched through a bounded buffer pool over a
    synchronous simulated disk, so the measured cost is the structure's
    {e access locality}, not the host's CPU or filesystem cache.  The
    store is {!Paged_store} — the Section 5 Link Table and Rib Table
    bytes of {!Compact}, each table in its own page region, the very
    store {!Persistent} keeps in a file — over an in-memory
    {!Pagestore.Device} that charges its calibrated disk cost per page
    and the [O_SYNC] cost per write, as the paper's setup did.

    The paper's buffering policy — "retain as much as possible of the
    top part of the Link Table in memory", justified by Figure 8's
    top-skewed link destinations — is available as [pin_top_lt_pages]. *)

type config = {
  page_size : int;          (** bytes per device page (default 4096) *)
  frames : int;             (** buffer-pool capacity in pages (default 256) *)
  pin_top_lt_pages : int;   (** LT pages from the top kept resident
                                (default 0 = no pinning) *)
  replacement : Pagestore.Buffer_pool.replacement;
  (** page replacement for unpinned frames (default [`Lru]) *)
}

val default_config : config

val simulated_device : config -> Pagestore.Device.t
(** A fresh in-memory device with [config.page_size] pages, the default
    cost model and synchronous writes — the device {!build} uses, and
    the one a baseline index must use to be compared against it. *)

type t = {
  store : Paged_store.P.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
}

val build : ?config:config -> Bioseq.Packed_seq.t -> t
(** Construct the index with every LT/RT field access going through the
    buffer pool. Device and pool statistics after the call describe the
    construction I/O; the paper's Figure 7 reads [Device.stats device]
    afterwards. *)

val engine : t -> Engine.t
(** Pack as an engine (backend "disk"): every record access faults
    through the bounded buffer pool, exactly like the paper's
    disk-resident experiments. *)

val reset_io : t -> unit
(** Flush and empty the pool and zero the device counters — call
    between construction and a search measurement so the search starts
    cold, as a freshly-opened disk index would. *)

val simulated_seconds : t -> float
(** Accumulated simulated I/O latency, in seconds. *)
