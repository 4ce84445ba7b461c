(** The side log: every change to a paged store's overflow and anchor
    side tables, as a fixed-size 12-byte record appended through the
    buffer pool into one half of the {!Region_map.side} region.

    The metadata records which half holds the log and how many of its
    records are committed; reopening replays them in order, the last
    write to a key winning.  A compaction rewrites the live entries
    into the half the committed log is not in, so it needs no journal
    entries and a crash before the next commit leaves the committed log
    as it was.  docs/ROBUSTNESS.md ("The side log") gives the record
    layout and the bounds. *)

type t

val record_bytes : int
(** Bytes per record. *)

val create : Pagestore.Buffer_pool.t -> t
(** An empty log in half 0, also its committed half. *)

val fill : t -> Paged_store.P.t -> unit
(** Append one record per live entry of the store's side tables. *)

val replay :
  Pagestore.Buffer_pool.t -> half:int -> records:int ->
  t * int Xutil.Int_tbl.t * int Xutil.Int_tbl.t
(** [replay pool ~half ~records] reopens the committed log, the first
    [records] records of half [half], and replays them onto empty
    overflow and anchor tables.
    @raise Spine_error.Error ([Corrupt], region "side") on a record
    with unknown flags. *)

val append :
  t -> Paged_store.P.t -> Compact_store.side_table -> int -> int -> unit
(** The store's side-table hook ({!Compact_store.Core.set_side_hook}):
    append the change, or, when the log's half is full, compact the log
    from the store's tables, which already hold the change.
    @raise Spine_error.Error ([Region_full], region "side") once the
    live entries alone fill a half past seven eighths. *)

val compact_if_long : t -> Paged_store.P.t -> unit
(** Compact the log when it holds more than twice as many records as
    the store has live side entries (and more than 16,384): a flush
    calls it first, which bounds the replay. *)

val records : t -> int
val half : t -> int

val commit : t -> unit
(** The log as it stands is committed: a later compaction goes into
    the other half. *)
