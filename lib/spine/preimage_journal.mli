(** The preimage journal of a persistent index file, in the
    {!Region_map.journal} region.

    Data pages are overwritten in place, so after a commit the buffer
    pool may write a dirty tail page (or a mutated rib-table page) over
    its committed image — and a crash then leaves the committed
    generation unrecoverable.  The journal closes that hole: before the
    first post-commit overwrite of a committed page, its exact physical
    slot (data + trailer, whatever its state) is copied into the journal
    as an entry (magic ["SPNJ"], entry index, target page, the raw
    trailer and a CRC-32C binding the data page, then the data page);
    reopening rolls every live entry back before recovery, so the last
    flushed state is restored byte for byte.  docs/ROBUSTNESS.md ("The
    preimage journal") gives the entry layout and the crash argument. *)

type t
(** A capture window: the committed prefix of each region, and the
    pages captured since the last commit. *)

val create : Pagestore.Device.t -> t
(** A window with nothing committed. *)

val committed : t -> int array
(** Per region of {!Region_map.regions}, its committed prefix in pages
    (0 unless the region holds a table): the array itself, which
    {!reset} updates in place. *)

val reset : t -> int array -> unit
(** [reset j prefix] opens a fresh window at a commit point (and on
    reopen): nothing is journaled yet, and the committed prefixes are
    [prefix].  Entries of the old window need no write to retire: the
    commit's epoch bump leaves them below the ceiling. *)

val capture : t -> int array -> unit
(** [capture j pages] captures the preimages of [pages] (ascending)
    that lie in a committed prefix and were not captured in this
    window, as the next entries: one raw read per stretch of
    consecutive targets, then the entries' pages in device runs, all
    before the caller overwrites any target.
    @raise Spine_error.Error ([Io_failed]) when the window is full
    (2^17 entries at page sizes of 36 bytes and up): flush to commit
    and reset it. *)

val entry : Pagestore.Device.t -> ceiling:int -> int -> (int * Bytes.t) option
(** [entry device ~ceiling i]: entry [i] when it is live (every page at
    one epoch beyond [ceiling], the recovered commit epoch) and whole —
    its target page and the preimage's physical slot. *)

val rollback : Pagestore.Device.t -> ceiling:int -> int
(** Put every live entry's preimage back exactly as captured, original
    trailer included, so the restored pages re-validate under the
    recovered ceiling; stops at the first entry that is not live and
    returns its index.  Idempotent across repeated crashes. *)
