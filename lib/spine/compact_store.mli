(** The paper's Section 5 node layout: Link Table + Rib Tables.

    Every node owns one 6-byte Link Table (LT) entry — exactly the
    {LD/PTR, LEL} columns of the paper's Figure 5; only nodes with
    downstream edges own a row in one of the Rib Tables (RTs),
    segregated by fanout so that space is paid per edge actually
    present.  Numeric labels are 2 bytes with an overflow side table
    for the rare values above 65534, and character labels are
    bit-packed.  See the implementation header for the exact byte
    layouts.

    The storage logic is written once, in {!Core}, over the {!BYTES}
    byte-table abstraction: this module instantiates it with in-memory
    growable byte buffers, while {!Paged_store} instantiates the same
    code over buffer-pool pages — the one paged store, which
    {!Persistent} keeps in a file and {!Disk} on the simulated device
    of the paper's disk experiments. *)

(** Byte-table abstraction the layout code is written against:
    little-endian fixed-width accessors over one growable region, one
    Link Table scan and one record read. *)
module type BYTES = sig
  type t

  val used : t -> int
  (** Bytes allocated so far. *)

  val alloc : t -> int -> int
  (** [alloc t n] reserves [n] more bytes, returning their offset. *)

  val get_u8 : t -> int -> int
  val set_u8 : t -> int -> int -> unit
  val get_u16 : t -> int -> int
  val set_u16 : t -> int -> int -> unit
  val get_u32 : t -> int -> int
  val set_u32 : t -> int -> int -> unit

  val scan_lt :
    t -> off:int -> count:int -> min_lel:int -> overflow:(int -> int) ->
    rts:t array -> row_bytes:int array -> marks:Bytes.t ->
    (int -> int -> int -> unit) -> unit
  (** [scan_lt t ~off ~count ~min_lel ~overflow ~rts ~row_bytes ~marks f]
      walks the [count] Link Table entries at [off + 6 * i]
      ({!lt_entry_bytes} each: a u32 payload, then a u16 LEL) and calls
      [f i lel dest], in ascending [i], for each entry whose LEL is at
      least [min_lel] and whose link destination [dest] has its bit set
      in [marks] ({!Xutil.Node_bits}).  The table resolves [dest]
      itself:
      - a payload with bit 31 clear is the link destination;
      - a payload with bit 31 set names the node's RT row (Figure 5's
        PTR case, decoded by {!Pagestore.Paged_bytes.ptr_table} and
        {!Pagestore.Paged_bytes.ptr_row}), and the destination is that
        row's LD field: the u32 at [row * row_bytes.(table)] of
        [rts.(table)].
      So [f] only ever sees true link destinations of candidates.

      An LEL stored as the overflow sentinel ([0xFFFF]) is compared at
      its true value [overflow i]; [f] receives the true value.  The
      bitmap is live: each entry's bit is tested when the walk reaches
      it, after [f] has run for every earlier candidate, so a bit [f]
      sets counts for every later entry.  [f] must not write the
      tables.

      It is the occurrence scan's inner loop behind
      {!Store_sig.S.scan_links}, the one column-scan primitive: the
      in-memory table runs it as one loop of direct reads of the LT
      and RT buffers, with the bit test written out, and calls out
      only for an overflowed LEL and for candidates.  A paged table
      takes one pool latch per page, filters that page's entries by
      LEL and collects their payloads under it, then reads PTR rows
      and tests the bits in entry order after releasing it, so [f] may
      latch other pages.  The sequence of distinct pages it touches,
      [f]'s reads included, is that of latching each page for its LELs
      and then reading every passing entry's payload, and a PTR's LD
      field after it, with {!get_u32}; only the pool's hit count is
      lower. *)

  val in_one_page : t -> off:int -> len:int -> bool
  (** [in_one_page t ~off ~len] holds when a record read of bytes
      [\[off, off + len)] takes one latch in place of one per field:
      the range lies inside one page of a paged table.  The in-memory
      table answers [false]: it has no latch to save, and its fields
      are cheaper to read directly than through a callback. *)

  val read_record : t -> off:int -> len:int -> (Bytes.t -> int -> 'a) -> 'a
  (** [read_record t ~off ~len f] is [f b pos], with [b] a buffer that
      holds byte [off] of the table at [pos] (a page under one latch,
      for a paged table), so that [f] reads the record's fields from
      [b] directly.  [f] must not write [b].  A paged table serves only
      ranges for which {!in_one_page} holds; the in-memory table serves
      any.

      The record rule of {!Core}: [find_rib], [find_extrib] and
      [fold_ribs] read an RT row that lies inside one page under one
      latch, field by field in the order the per-field path uses (a
      node with no rib leaves its row untouched, as before); a row
      that straddles a page boundary keeps the per-field path, one
      latch per field.  So the sequence of distinct pages touched, and
      with it every miss, eviction, writeback and device I/O, is the
      same either way; only the pool's hit count falls.  Writes stay
      field by field. *)
end

(** The in-memory instantiation's byte table. *)
module Btab : sig
  include BYTES

  val create : int -> t
  (** [create capacity] allocates an empty table (capacity is a size
      hint). *)

  val of_bytes : Bytes.t -> t
  (** [of_bytes b] is a table whose used bytes are [b], taken over
      without a copy: how {!Persistent.load} loads a region. *)
end

val lt_entry_bytes : int

(** Layout constants derived from the alphabet, shared by every
    instantiation. *)
type layout = {
  slot_capacity : int array;
  row_bytes : int array;
  cl_area_off : int array;
  prt_off : int array;
  cl_bits : int;
  top_code : int;
  (** The largest code a rib label can hold: [size - 1], or the
      separator [size] with [~separator:true]. *)
}

(** The two side tables of {!Core}: overflowed numeric labels (and
    saturated fanouts), and extrib anchors. *)
type side_table = Overflow | Anchors

type space = {
  lt_bytes : int;
  rt_bytes : int;         (** live rows only *)
  rt_slack_bytes : int;   (** freelisted rows still occupying storage *)
  overflow_bytes : int;   (** overflow labels + extrib anchors *)
  string_bytes : int;     (** the bit-packed vertebra labels *)
  migrations : int;
}

(** The store logic, written once over {!BYTES}.  The state record is
    exposed so {!Persistent} can log the side tables, record the
    per-table counters and copy the tables to and from its file; treat
    the fields as read-only outside this module and {!Persistent}. *)
module Core (B : BYTES) : sig
  type t = {
    seq : Bioseq.Packed_seq.t;
    lo : layout;
    lt : B.t;
    rts : B.t array;                 (** index 0..3 = RT1..RT4 *)
    freelist : int array;            (** per RT, head row + 1, 0 = none *)
    live_rows : int array;
    overflow : int Xutil.Int_tbl.t;  (** label-field key -> true value *)
    mutable overflow_count : int;
    anchors : int Xutil.Int_tbl.t;   (** row key -> extrib anchor *)
    mutable migrations : int;
    mutable side_hook : (side_table -> int -> int -> unit) option;
        (** set by {!set_side_hook} *)
  }

  val make :
    ?freelist:int array ->
    ?live_rows:int array ->
    ?overflow:int Xutil.Int_tbl.t ->
    ?anchors:int Xutil.Int_tbl.t ->
    ?migrations:int ->
    ?separator:bool ->
    seq:Bioseq.Packed_seq.t ->
    lt:B.t ->
    rts:B.t array ->
    Bioseq.Alphabet.t ->
    t
  (** Wire up an instance over existing tables; restoring a persisted
      instance passes the saved side tables and counters back in. *)

  val init_root : t -> unit
  (** Allocate the root's LT entry (fresh instances only). *)

  val set_side_hook : t -> (side_table -> int -> int -> unit) -> unit
  (** [set_side_hook t f]: from now on every insert, update and removal
      in the side tables calls [f table key value], in the order the
      changes happen, with [value = -1] for a removal.  Replaying the
      calls in order onto the tables as they stood rebuilds them
      exactly.  {!Persistent} logs them; an instance without a hook
      pays one test per change. *)

  (* the {!Store_sig.S} surface *)
  val alphabet : t -> Bioseq.Alphabet.t
  val length : t -> int
  val sequence : t -> Bioseq.Packed_seq.t
  val char_at : t -> int -> int
  val append_char : t -> int -> unit
  val link_dest : t -> int -> int
  val link_lel : t -> int -> int
  val scan_links :
    t -> from:int -> min_lel:int -> marks:Bytes.t ->
    (int -> int -> int -> unit) -> unit
  val set_link : t -> int -> dest:int -> lel:int -> unit
  val find_rib : t -> int -> int -> (int * int) option
  val add_rib : t -> int -> code:int -> dest:int -> pt:int -> unit
  val find_extrib : t -> int -> (int * int * int * int) option
  val add_extrib :
    t -> int -> dest:int -> pt:int -> prt:int -> anchor:int -> unit
  val fold_ribs :
    t -> int -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a

  (* accounting *)
  val space : t -> space

  val bytes_per_char : t -> float
  (** Total live bytes per indexed character; the paper's headline
      "less than 12 bytes" metric. *)

  val overflow_count : t -> int

  val space_components : t -> (string * int) list
  (** {!space} re-attributed to the shared component vocabulary
      ([vertebrae]/[links]/[ribs]/[rib_slack]/[extribs]); see
      {!Store_sig.S}. *)
end

include module type of Core (Btab)

val carries_separator : Bioseq.Packed_seq.t -> bool
(** Whether a text holds the separator code, and so needs the
    [separator] layout. *)

val create : ?capacity:int -> ?separator:bool -> Bioseq.Alphabet.t -> t
(** An empty store with the root allocated.  [separator] (default
    [false]) widens the rib character labels and the widest table to
    also hold the alphabet's separator code, which a multi-string
    index ({!Generalized}) puts on ribs. *)
