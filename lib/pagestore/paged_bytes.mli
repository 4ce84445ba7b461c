(** A growable byte table laid over consecutive pages of a
    {!Buffer_pool}: the byte-table provider that makes SPINE's Section 5
    layout (Link Table entries, Rib Table rows, the packed sequence)
    disk-resident.

    Byte [off] of the table lives at offset [off mod page_size] of
    device page [base_page + off / page_size].  Integer fields are
    little-endian and unsigned.  A field that lies inside one page costs
    exactly one {!Buffer_pool.with_page} and is read or written as a
    word; only a field that straddles a page boundary is assembled byte
    by byte, one pool access per byte.  Either way the sequence of
    distinct pages touched is the same, so misses, evictions and device
    I/O do not depend on which path a field takes.  A record read
    ({!read_record}) that lies inside one page takes one latch for all
    of its fields; a record that straddles a page boundary is declined
    ({!in_one_page} is false) and its owner keeps reading it field by
    field, so again only the number of latches, never the sequence of
    distinct pages touched, depends on the path.
    A Link Table scan ({!scan_lt}) takes one latch per page for all of
    the page's entries, not one per field. *)

type t

val make :
  ?used:int -> Buffer_pool.t -> region:string -> base_page:int ->
  capacity:int -> t
(** [make pool ~region ~base_page ~capacity] starts a table at device
    page [base_page] that may grow to [capacity] bytes, with [used]
    bytes (default 0) already allocated — a reopened region passes its
    recorded length.  [region] names the table in errors.  Several
    tables share one pool by using disjoint page ranges. *)

val used : t -> int
(** Bytes allocated so far. *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] more bytes, returning their offset.  No
    page is touched: pages materialise on first access.
    @raise Spine_error.Error ([Region_full]) when the table would
    outgrow its capacity; nothing is allocated then. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
(** [set_u8 t off v] stores [v land 0xFF]. *)

val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
(** [set_u16 t off v] stores [v land 0xFFFF]. *)

val get_u32 : t -> int -> int
(** The unsigned 32-bit field at [off], in [0, 2^32). *)

val set_u32 : t -> int -> int -> unit
(** [set_u32 t off v] stores the low 32 bits of [v]. *)

(** {2 The Link Table entry}

    Figure 5's 6-byte entry, which {!scan_lt} walks and
    {!Spine.Compact_store} lays out: a u32 payload, then a u16 LEL. *)

val lt_entry_bytes : int
(** [6]. *)

val overflow_sentinel : int
(** [0xFFFF]: a numeric label stored as this value holds a larger one,
    kept in a side table. *)

(** A payload with bit 31 clear is the link destination itself.  With
    bit 31 set it is a PTR naming the node's Rib Table row (Figure 5's
    PTR case), whose first u32, its LD field, holds the destination;
    these two decode the row. *)

val ptr_table : int -> int
(** The Rib Table a PTR names, [0 .. 3] for RT1..RT4: bits 29-30. *)

val ptr_row : int -> int
(** The row a PTR names in its table: bits 0-22.  Its LD field lies at
    byte [ptr_row p * row_bytes] of the table. *)

val scan_lt :
  t -> off:int -> count:int -> min_lel:int -> overflow:(int -> int) ->
  rts:t array -> row_bytes:int array -> marks:Bytes.t ->
  (int -> int -> int -> unit) -> unit
(** [scan_lt t ~off ~count ~min_lel ~overflow ~rts ~row_bytes ~marks f]
    walks [count] Link Table entries from [off] (entry [i] at
    [off + 6 * i]) and calls [f i lel dest], in ascending [i], for each
    entry whose LEL is at least [min_lel] (a stored {!overflow_sentinel}
    read as [overflow i]) and whose link destination [dest] has its bit
    set in [marks] ({!Xutil.Node_bits}) when the walk reaches the entry.
    [dest] is the payload, or for a PTR (bit 31 set) the LD field of row
    {!ptr_row} of table [rts.(ptr_table p)], whose rows are
    [row_bytes.(ptr_table p)] bytes wide.  That is
    {!Spine.Compact_store.BYTES.scan_lt}'s contract.

    The entries whose LEL lies inside one page are filtered and their
    payloads collected under a single {!Buffer_pool.with_page}; the
    PTR rows are read, the bits tested and [f] called after that latch
    is released, in entry order, so [f] may itself touch other pages
    (of this or another table) and a bit it sets counts for the later
    entries of the same page.  A payload that starts on the previous
    page, an entry whose LEL straddles a page boundary and every LD
    field cost what {!get_u32} and {!get_u16} do.  The distinct pages
    touched, in order and with [f]'s accesses, are those of latching
    each page for its LELs and reading every passing entry's payload
    with {!get_u32}, then a PTR's LD field with {!get_u32}, before
    calling [f]: a payload read that follows an LD read or a call of
    [f] is replayed as one more latch of the page.  So misses,
    evictions and device I/O are those of that order and only the hit
    count falls.  [f] must not write the scanned entries or rows. *)

val in_one_page : t -> off:int -> len:int -> bool
(** [in_one_page t ~off ~len] holds when bytes [\[off, off + len)] lie
    inside one page, so that {!read_record} serves them. *)

val read_record : t -> off:int -> len:int -> (Bytes.t -> int -> 'a) -> 'a
(** [read_record t ~off ~len f] latches the page holding bytes
    [\[off, off + len)] once and returns [f b pos], where [b] is the
    page buffer and [pos] the position of byte [off] in it.  [f] reads
    the record's fields straight from [b] ([Bytes.get_uint16_le b
    (pos + 4)] is what {!get_u16}[ t (off + 4)] returns) and must not
    write [b] or keep it past its return.  It may touch other pages,
    as the pool is reentrant.
    @raise Invalid_argument when the range straddles a page boundary. *)
