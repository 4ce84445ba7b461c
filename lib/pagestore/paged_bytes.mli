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
    A column scan ({!scan_u16}) takes one latch per page for all of the
    column's in-page fields, not one per field. *)

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

val scan_u16 :
  t -> off:int -> stride:int -> count:int -> min:int ->
  (int -> int -> unit) -> unit
(** [scan_u16 t ~off ~stride ~count ~min f] calls [f i raw], in
    ascending [i], for every u16 field at [off + i * stride]
    ([0 <= i < count], [stride > 0]) whose value [raw] is at least
    [min].  The fields
    lying inside one page are read under a single
    {!Buffer_pool.with_page} and reported after that latch is released,
    so [f] may itself touch other pages (of this or another table); a
    field that straddles a page boundary costs what {!get_u16} does.
    [f] must not write the scanned fields. *)

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
