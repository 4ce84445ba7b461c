(** File-backed persistent SPINE.

    The same Section 5 Link-Table/Rib-Table layout as {!Compact}, but
    the byte tables live in pages of a real file behind a bounded
    buffer pool ({!Paged_store}, the store {!Disk} runs on its
    simulated device): the index never needs to be fully resident, survives
    process restarts, and reopens without reconstruction — the
    deployment the paper's disk-resident experiments argue SPINE is
    suited to ("due to the simple linearity of SPINE's structure, it is
    easy to develop efficient buffering policies").

    File layout (page regions, sparse, declared once in
    {!Region_map}; docs/ROBUSTNESS.md, "Region table", lists it): a
    metadata area (two shadow slots and an epoch-declaration page,
    {!Meta_slot}), then the Link Table, the four Rib Tables, one region
    shared by the vertebra character codes and the side log (every
    change to the store's overflow and anchor side tables, appended as
    it happens, {!Side_log}), and the preimage journal
    ({!Preimage_journal}).  Each of those modules owns its format; this
    one keeps the lifecycle, recovery, the scrub and the engine glue.
    The metadata holds only the alphabet, the counters and the side
    log's committed length and place, so a commit costs what the
    appends changed, not what the index holds.

    {2 Integrity and crash consistency}

    Every page carries an epoch-stamped CRC-32C trailer (see
    {!Pagestore.Device}); reading a damaged or torn page raises a typed
    {!Spine_error.Error} instead of decoding garbage.  Metadata is
    double-buffered: generation [g] goes to shadow slot [g mod 2] under
    its own checksum, so {!flush}'s commit sequence (data pages → new
    metadata generation → epoch ceiling bump) leaves either the old or
    the new state fully intact across a crash at any point.  Data pages
    are overwritten in place, so committed pages are additionally
    protected by a {e preimage journal}: the first post-commit
    overwrite of a committed page (a buffer-pool eviction of a dirty
    tail page, a rib-row mutation, the next flush itself) copies the
    page's exact physical slot into the journal region first — a flush
    captures all of its committed pages as one batch before it writes
    any of them — and
    {!open_} rolls those preimages back before recovery.  {!open_}
    picks the newest valid generation, falls back to the other slot
    when the newest write was torn, restores the journaled preimages,
    and restores the epoch ceiling so any remaining page debris from a
    crashed session is detected lazily as [Corrupt] rather than
    returned as phantom data.  {!verify}/{!scrub} walk the file and
    report per-region damage.

    This file is the one on-disk form of an index: [spine build] builds
    in memory and writes it with {!of_compact}, and the in-memory
    backend loads it back with {!load}.  Construction also works
    online: {!append} extends the index and the file together.  Queries
    go through {!engine}: the shared SPINE algorithms instantiated over
    the paged storage, so every page they touch goes through the pool.

    Setting the [SPINE_FAULTS] environment variable arms a
    deterministic {!Pagestore.Fault_device} plan on the backing device
    of every index this module creates or opens. *)

type t

val create :
  ?frames:int -> ?page_size:int -> path:string -> Bioseq.Alphabet.t -> t
(** Start a new index in file [path] (truncating any previous content).
    [frames] bounds the buffer pool (default 256 pages of
    [page_size] = 4096 bytes).  The file records [page_size]. *)

val of_compact : path:string -> Compact.t -> t
(** [of_compact ~path c] starts a new index in file [path], as {!create}
    does with its defaults, holding a copy of the in-memory index [c]:
    its Link Table, Rib Tables and sequence go to the file as
    sequential page runs, and its side tables as side-log records.  These are the bytes an online
    build of the same text through {!append} holds.  Until the first
    {!flush} or {!close} commits it, the file holds no generation.  A
    multi-string ({!Generalized}) index keeps its separator layout,
    which the metadata records.
    @raise Spine_error.Error ([Region_full]) when a table outgrows its
    region. *)

val load : path:string -> Compact.t
(** [load ~path] is an in-memory copy of the file's newest committed
    generation, each table copied a page at a time, every page checked
    as it is read.  The file is read without writing: it is opened read-only,
    and nothing is declared, rolled back or committed, so a read-only
    file loads, and concurrent loads of one file do not interfere.  A
    committed page that was never written (a file cut short, or with a
    hole) fails as damage.
    @raise Spine_error.Error ([Corrupt]) when no metadata is
    recoverable or a page fails its check; ([Io_failed]) when the file
    is missing or unreadable, or a crashed session left overwrites
    that only a writing {!open_} can roll back. *)

val open_ : ?frames:int -> path:string -> unit -> t
(** Reopen a previously {!close}d (or crashed) index at the page size
    the file records: recover the newest valid metadata generation.
    Only metadata version 5 is read; a slot of another version counts
    as invalid.
    @raise Spine_error.Error ([Corrupt]) when neither shadow slot holds
    valid metadata (the detail names each slot's fault, e.g.
    "unsupported metadata version 4"), or recovery reads crash debris;
    ([Io_failed]) when the file is missing or unreadable. *)

val close : t -> unit
(** Flush everything (pages + metadata, marked as a clean shutdown) and
    release the file. The [t] must not be used afterwards. *)

val flush : t -> unit
(** Durability point without closing: commit the data pages and a new
    metadata generation, and reset the preimage-journal window.  After
    [flush], {!open_} on the same path recovers exactly this state even
    if the process dies without {!close} — later writes that land on
    committed pages are journaled first and rolled back on reopen.
    The journal holds 2^17 preimages per commit window (at page sizes
    of 36 bytes and up); a workload that overwrites more distinct
    committed pages (512 MB at 4 KiB pages) between flushes gets a
    typed [Io_failed] telling it to flush, never a silently unprotected
    overwrite.
    @raise Spine_error.Error ([Region_full], region "meta") when the
    metadata outgrows a shadow slot. *)

val path : t -> string

(* spine-lint: allow unused-export -- crash tests read the generation *)
val generation : t -> int
(** Metadata generation last committed or recovered (0 for a fresh,
    never-flushed index). *)

(** {2 Construction} *)

val append : t -> int -> unit
val append_string : t -> string -> unit
val append_seq : t -> Bioseq.Packed_seq.t -> unit

val engine : t -> Engine.t
(** Pack as an engine (backend "persistent").  The engine carries the
    use-after-close guard: every query through it re-checks that the
    index is still open. *)

(** {2 Storage} *)

val bytes_per_char : t -> float
(** Live bytes of the Section 5 tables per indexed character, as
    {!Compact_store.bytes_per_char}. *)

val sequence : t -> Bioseq.Packed_seq.t
(** The in-memory mirror of the indexed character codes (what scrub's
    deep check rebuilds its oracles from). *)

val store : t -> Paged_store.P.t
(** The paged Section 5 store itself, e.g. for {!Validate}.  Unguarded:
    do not use it after {!close}. *)

val device : t -> Pagestore.Device.t
val pool : t -> Pagestore.Buffer_pool.t

(** {2 Scrub: integrity walk and damage report} *)

type slot_state =
  | Slot_valid of { generation : int; commit_epoch : int; clean : bool }
  | Slot_invalid of string  (** why the slot cannot be recovered from *)

type region_report = {
  region : string;
      (** "meta/slot-a", "lt", "rt0".."rt3", "seq", "side/a", "side/b",
          "journal", … *)
  scanned : int;
  ok : int;
  unwritten : int;
  damaged : (int * string) list;  (** page id, diagnosis *)
  stale : (int * int) list;
      (** page id, epoch beyond the committed ceiling — debris from a
          crashed session *)
}

type report = {
  report_path : string;
  report_generation : int;   (** -1 when no metadata was recoverable *)
  report_commit_epoch : int;
  report_clean : bool;       (** last commit was a clean {!close} *)
  slots : (int * slot_state) list;
  regions : region_report list;
  damaged_pages : int;
  stale_pages : int;
}

val verify : t -> report
(** Walk every written page of the open index's file and classify it
    (checksum, epoch).  Read-only and advisory: it reflects the
    on-disk image, so {!flush} first for a post-commit view. *)

val scrub : path:string -> unit -> report
(** Offline {!verify}: open the file read-only (no pool, no recovery),
    validate both metadata slots, walk every region — each table's
    committed prefix even past the file's end, a never-written page
    there counting as damaged.  Never raises on
    damage — damage is the report's content.  The file is read at the
    page size it records, or at 4096 bytes when neither slot's first
    page yields one (both damaged, or not a version 5 file).
    @raise Spine_error.Error ([Io_failed]) when the file is missing. *)
