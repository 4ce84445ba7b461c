(** The paper's Section 5 node layout: Link Table + Rib Tables.

    Every node owns one 6-byte Link Table (LT) entry — exactly the
    {LD/PTR, LEL} columns of the paper's Figure 5; only nodes with
    downstream edges (around 30 % of them, Table 4) own a row in one of
    the Rib Tables (RTs), segregated by fanout so that space is paid per
    edge actually present.  Numeric labels are 2 bytes with an overflow
    side table for the rare values above 65534 (Table 3 shows real
    genomes stay far below), and character labels are bit-packed
    ([payload_bits] per rib, 2 bits for DNA — the same coding as the
    vertebra labels).

    Layouts (little-endian):

    - LT entry (6 bytes): [payload u32][LEL u16].  When the node has no
      downstream edges the payload is the link destination (bit 31
      clear).  Otherwise bit 31 is set and the payload packs
      [table:2][fanout:5][extrib:1][row:23], and the link destination
      moves into the row's LD field — Figure 5's PTR case.
    - RT_k row: [LD u32] then k slots of [RD u32][PT u16], then
      [ceil(k * clbits / 8)] bytes of packed rib character labels, then
      [PRT u16].  Ribs occupy slots [0 .. ribs-1]; the extrib, which
      needs no character label (the paper: "a character label is not
      required for an extrib"), always occupies the LAST slot [k - 1].
      For DNA this gives 13/19/25/31-byte rows for RT1..RT4.
    - Numeric labels with value >= 0xFFFF store the sentinel 0xFFFF and
      the true value in the overflow side table, the robustness
      mechanism of Section 5.1.  A fanout above 31 (only the RT4 rows
      of a large alphabet reach it) saturates the 5-bit field the same
      way.
    - Extrib anchors (the chain-attribution correction, see
      {!Store_sig.S.find_extrib}) live in a side table keyed per row.

    When a node's fanout outgrows its table the row migrates to the next
    table and the old row goes on a freelist — the node-movement cost
    the paper measured as negligible (reported via [space]).

    The storage logic is written once, in {!Core}, over the {!BYTES}
    byte-table abstraction: this module instantiates it with in-memory
    growable byte buffers, while {!Paged_store} instantiates the same
    code over buffer-pool pages — the store {!Persistent} keeps in a
    file and {!Disk} on the simulated device of the paper's disk
    experiments. *)

(** Byte-table abstraction the layout code is written against. *)
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
  (** [f i lel dest] for each LT entry at [off + 6 * i], [i < count],
      with [lel >= min_lel] (a stored 0xFFFF read as [overflow i]) and
      [dest]'s bit in [marks], [dest] being the payload or a PTR's
      row LD field in [rts]. *)

  val in_one_page : t -> off:int -> len:int -> bool
  (** Whether [\[off, off + len)] lies inside one page, so a record
      read saves the per-field latches.  In memory there is nothing to
      save: [false], and the store reads fields directly. *)

  val read_record : t -> off:int -> len:int -> (Bytes.t -> int -> 'a) -> 'a
  (** [f b pos] with byte [off] at [pos] of buffer [b], under one
      latch. *)
end

module Pb = Pagestore.Paged_bytes

let lt_entry_bytes = Pb.lt_entry_bytes
let overflow_sentinel = Pb.overflow_sentinel

(* growable in-memory little-endian byte table *)
module Btab = struct
  type t = {
    mutable data : Bytes.t;
    mutable len : int;         (* bytes in use *)
  }

  let create capacity =
    { data = Bytes.make (Int.max capacity 8) '\000'; len = 0 }
  let of_bytes data = { data; len = Bytes.length data }

  let used t = t.len

  let ensure t extra =
    let needed = t.len + extra in
    if needed > Bytes.length t.data then begin
      let cap = ref (Int.max 8 (Bytes.length t.data)) in
      while !cap < needed do cap := !cap * 2 done;
      let ndata = Bytes.make !cap '\000' in
      Bytes.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end

  let alloc t bytes =
    ensure t bytes;
    let off = t.len in
    t.len <- t.len + bytes;
    off

  let get_u8 t off = Char.code (Bytes.get t.data off)
  let set_u8 t off v = Bytes.set t.data off (Char.chr (v land 0xFF))
  let get_u16 t off = Bytes.get_uint16_le t.data off
  let set_u16 t off v = Bytes.set_uint16_le t.data off (v land 0xFFFF)
  let get_u32 t off = Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFF_FFFF
  let set_u32 t off v = Bytes.set_int32_le t.data off (Int32.of_int v)

  (* The occurrence scan's inner loop: LEL filter, payload read, a
     PTR's row LD read and the bitmap test, calling out only for an
     overflowed LEL, a PTR's decode and a candidate.  The constants
     are bound outside the loop: read inside it, each would be a
     load from another module's block per entry. *)
  let scan_lt t ~off ~count ~min_lel ~overflow ~rts ~row_bytes ~marks f =
    let data = t.data and sentinel = overflow_sentinel
    and stride = lt_entry_bytes in
    let min_raw = Int.min min_lel sentinel in
    let o = ref off in
    for i = 0 to count - 1 do
      let raw = Bytes.get_uint16_le data (!o + 4) in
      if raw >= min_raw then begin
        let lel = if raw = sentinel then overflow i else raw in
        if lel >= min_lel then begin
          let p = Int32.to_int (Bytes.get_int32_le data !o) land 0xFFFF_FFFF in
          let dest =
            if p land 0x8000_0000 = 0 then p
            else
              let table = Pb.ptr_table p in
              Int32.to_int
                (Bytes.get_int32_le rts.(table).data
                   (Pb.ptr_row p * row_bytes.(table)))
              land 0xFFFF_FFFF
          in
          (* [Xutil.Node_bits.mem] written out: dune's default profile
             compiles every library [-opaque], so that call is never
             inlined, and it would be a call per passing entry *)
          if Bytes.get_uint8 marks (dest lsr 3) land (1 lsl (dest land 7)) <> 0
          then f i lel dest
        end
      end;
      o := !o + stride
    done

  (* one buffer serves any range, but a callback costs more than the
     direct field reads it would replace *)
  let in_one_page _ ~off:_ ~len:_ = false
  let read_record t ~off ~len:_ f = f t.data off
end

(* layout constants derived from the alphabet, shared by every
   instantiation *)
type layout = {
  slot_capacity : int array;
  row_bytes : int array;
  cl_area_off : int array;
  prt_off : int array;
  cl_bits : int;
  top_code : int;
}

let layout_of ?(separator = false) alphabet =
  (* σ - 1 ribs plus one extrib is the maximum fanout; a multi-string
     index also labels ribs with the separator code σ *)
  let size = Bioseq.Alphabet.size alphabet in
  let top_code = if separator then size else size - 1 in
  let mf = Int.max 4 (top_code + 1) in
  let slot_capacity = [| 1; 2; 3; mf |] in
  let cl_bits =
    (* the bits [top_code] needs; 3 stays 3 (a label may straddle two
       bytes), anything above 4 takes a whole byte *)
    let rec bits b = if top_code lsr b = 0 then b else bits (b + 1) in
    match Int.max 1 (bits 0) with b when b <= 4 -> b | _ -> 8
  in
  let cl_area_off = Array.map (fun k -> 4 + (6 * k)) slot_capacity in
  let prt_off =
    Array.mapi
      (fun i k -> cl_area_off.(i) + (((k * cl_bits) + 7) / 8))
      slot_capacity
  in
  let row_bytes = Array.map (fun off -> off + 2) prt_off in
  { slot_capacity; row_bytes; cl_area_off; prt_off; cl_bits; top_code }

type side_table = Overflow | Anchors

type space = {
  lt_bytes : int;
  rt_bytes : int;         (** live rows only *)
  rt_slack_bytes : int;   (** freelisted rows still occupying storage *)
  overflow_bytes : int;   (** overflow labels + extrib anchors *)
  string_bytes : int;     (** the bit-packed vertebra labels *)
  migrations : int;
}

module Core (B : BYTES) = struct
  type t = {
    seq : Bioseq.Packed_seq.t;
    lo : layout;
    lt : B.t;
    rts : B.t array;                 (* index 0..3 = RT1..RT4 *)
    freelist : int array;            (* per RT, head row + 1, 0 = none *)
    live_rows : int array;
    overflow : int Xutil.Int_tbl.t;  (* label-field key -> true value *)
    mutable overflow_count : int;
    anchors : int Xutil.Int_tbl.t;   (* row key -> extrib anchor *)
    mutable migrations : int;
    mutable side_hook : (side_table -> int -> int -> unit) option;
        (* the owner's change feed for the two side tables *)
  }

  (* [make] wires up an instance over existing tables; [fresh] also
     allocates the root's LT entry. Restoring a persisted instance
     passes the saved side tables and counters back in. *)
  let make ?(freelist = [| 0; 0; 0; 0 |]) ?(live_rows = [| 0; 0; 0; 0 |])
      ?(overflow = Xutil.Int_tbl.create 16) ?(anchors = Xutil.Int_tbl.create 16)
      ?(migrations = 0) ?separator ~seq ~lt ~rts alphabet =
    { seq; lo = layout_of ?separator alphabet; lt; rts;
      freelist; live_rows; overflow;
      overflow_count = Xutil.Int_tbl.length overflow;
      anchors; migrations; side_hook = None }

  let set_side_hook t f = t.side_hook <- Some f

  let init_root t = ignore (B.alloc t.lt lt_entry_bytes)

  let alphabet t = Bioseq.Packed_seq.alphabet t.seq
  let length t = Bioseq.Packed_seq.length t.seq
  let sequence t = t.seq
  let char_at t i = Bioseq.Packed_seq.get t.seq i

  let append_char t c =
    (* a rib label must fit the layout; the separator needs
       [~separator:true] *)
    if c > t.lo.top_code then
      invalid_arg "Compact_store.append_char: code outside the layout";
    Bioseq.Packed_seq.append t.seq c;
    let node = length t in
    let off = B.alloc t.lt lt_entry_bytes in
    assert (off = node * lt_entry_bytes)

  (* --- LT payload packing ---
     bit 31: has-row; if set: bits 30-29 table, 28-24 fanout,
     23 extrib-present, 22-0 row index. Otherwise bits 30-0 = dest.
     The table and row fields decode in {!Pagestore.Paged_bytes}, whose
     Link Table scan reads them too. *)

  let lt_off node = node * lt_entry_bytes
  let lt_payload t node = B.get_u32 t.lt (lt_off node)
  let set_lt_payload t node v = B.set_u32 t.lt (lt_off node) v

  let ptr_table = Pb.ptr_table
  let ptr_fanout p = (p lsr 24) land 0x1F
  let ptr_extrib p = (p lsr 23) land 1 = 1
  let ptr_row = Pb.ptr_row

  let pack_ptr ~table ~fanout ~extrib ~row =
    assert (row < 0x80_0000);
    0x8000_0000 lor (table lsl 29) lor (fanout lsl 24)
    lor ((if extrib then 1 else 0) lsl 23) lor row

  (* --- side tables ---
     Every insert, update and removal in the overflow and anchor tables
     is reported to the owner's hook through [side_changed] (a removal
     as value -1); without a hook the report is one test. *)

  let[@inline] side_changed t table key v =
    match t.side_hook with None -> () | Some f -> f table key v

  let set_overflow t key v =
    if not (Xutil.Int_tbl.mem t.overflow key) then
      t.overflow_count <- t.overflow_count + 1;
    Xutil.Int_tbl.replace t.overflow key v;
    side_changed t Overflow key v

  let drop_overflow t key =
    if Xutil.Int_tbl.mem t.overflow key then begin
      Xutil.Int_tbl.remove t.overflow key;
      t.overflow_count <- t.overflow_count - 1;
      side_changed t Overflow key (-1)
    end

  (* --- numeric labels with overflow --- *)

  let read_label t raw key =
    if raw = overflow_sentinel then Xutil.Int_tbl.find t.overflow key
    else raw

  (* the u16 field at [off] of [tab]; the table and offset are passed
     apart, not as a partially applied setter, which would allocate a
     closure per write *)
  let write_label t tab off key v =
    if v >= overflow_sentinel then begin
      B.set_u16 tab off overflow_sentinel;
      set_overflow t key v
    end
    else begin
      drop_overflow t key;
      B.set_u16 tab off v
    end

  (* Unique keys per logical label field: LT LELs even, RT fields odd.
     A row owns 64 keys: slots 0..59 are rib/extrib PTs, 61 the fanout,
     62 the anchor (in the anchor table) and 63 the PRT, all below 2^32
     since rows have 23 bits.  The PTs of slots 60 and up, which only
     the RT4 rows of an alphabet of more than 60 codes have, take keys
     from 2^40 up. *)
  let lt_lel_key node = node * 2
  let row_key ~table ~row ~slot =
    ((((row * 64) + slot) * 4) + table) * 2 + 1
  let[@inline] rt_label_key ~table ~row ~slot =
    if slot < 60 then row_key ~table ~row ~slot
    else (1 lsl 40) lor (row lsl 10) lor (slot lsl 2) lor table
  let fanout_key ~table ~row = row_key ~table ~row ~slot:61
  let anchor_key ~table ~row = row_key ~table ~row ~slot:62
  let prt_key ~table ~row = row_key ~table ~row ~slot:63

  let lt_lel t node =
    read_label t (B.get_u16 t.lt (lt_off node + 4)) (lt_lel_key node)

  let set_lt_lel t node v =
    write_label t t.lt (lt_off node + 4) (lt_lel_key node) v

  (* --- RT rows --- *)

  let row_off t table row = row * t.lo.row_bytes.(table)
  let slot_off t table row slot = row_off t table row + 4 + (6 * slot)

  let row_ld t table row = B.get_u32 t.rts.(table) (row_off t table row)
  let set_row_ld t table row v =
    B.set_u32 t.rts.(table) (row_off t table row) v

  let slot_rd t table row slot =
    B.get_u32 t.rts.(table) (slot_off t table row slot)

  let set_slot_rd t table row slot v =
    B.set_u32 t.rts.(table) (slot_off t table row slot) v

  let slot_pt t table row slot =
    read_label t
      (B.get_u16 t.rts.(table) (slot_off t table row slot + 4))
      (rt_label_key ~table ~row ~slot)

  let set_slot_pt t table row slot v =
    write_label t t.rts.(table) (slot_off t table row slot + 4)
      (rt_label_key ~table ~row ~slot) v

  (* packed rib character labels; a 3-bit label may straddle two
     bytes, both inside the row's label area *)
  let slot_cl t table row slot =
    let bits = t.lo.cl_bits in
    let base_bit = slot * bits in
    let off =
      row_off t table row + t.lo.cl_area_off.(table) + (base_bit / 8)
    in
    let shift = base_bit mod 8 in
    let v =
      if shift + bits <= 8 then B.get_u8 t.rts.(table) off
      else B.get_u16 t.rts.(table) off
    in
    (v lsr shift) land ((1 lsl bits) - 1)

  let set_slot_cl t table row slot cl =
    let bits = t.lo.cl_bits in
    let base_bit = slot * bits in
    let off =
      row_off t table row + t.lo.cl_area_off.(table) + (base_bit / 8)
    in
    let shift = base_bit mod 8 in
    let mask = ((1 lsl bits) - 1) lsl shift in
    let label = (cl lsl shift) land mask and tab = t.rts.(table) in
    if shift + bits <= 8 then
      B.set_u8 tab off ((B.get_u8 tab off land lnot mask) lor label)
    else B.set_u16 tab off ((B.get_u16 tab off land lnot mask) lor label)

  let row_prt t table row =
    read_label t
      (B.get_u16 t.rts.(table) (row_off t table row + t.lo.prt_off.(table)))
      (prt_key ~table ~row)

  let set_row_prt t table row v =
    write_label t t.rts.(table) (row_off t table row + t.lo.prt_off.(table))
      (prt_key ~table ~row) v

  (* --- RT rows under one latch ---
     The same fields again, in a buffer [b] that holds the row at
     [base]: the page [B.read_record] latched once for the whole row.
     Callers read the fields in the order the field-by-field path
     does, so only the number of latches differs between the two. *)

  let rec_rd b base slot =
    Int32.to_int (Bytes.get_int32_le b (base + 4 + (6 * slot))) land 0xFFFF_FFFF

  let rec_pt t b base table row slot =
    read_label t
      (Bytes.get_uint16_le b (base + 8 + (6 * slot)))
      (rt_label_key ~table ~row ~slot)

  let rec_prt t b base table row =
    read_label t
      (Bytes.get_uint16_le b (base + t.lo.prt_off.(table)))
      (prt_key ~table ~row)

  let rec_cl t b base table slot =
    let bits = t.lo.cl_bits in
    let base_bit = slot * bits in
    let pos = base + t.lo.cl_area_off.(table) + (base_bit / 8) in
    let shift = base_bit mod 8 in
    let v =
      if shift + bits <= 8 then Bytes.get_uint8 b pos
      else Bytes.get_uint16_le b pos
    in
    (v lsr shift) land ((1 lsl bits) - 1)

  (* [f] on row [row] of [table] under one latch, when the row lies
     inside one page *)
  let row_in_page t table row =
    B.in_one_page t.rts.(table) ~off:(row_off t table row)
      ~len:t.lo.row_bytes.(table)

  let read_row t table row f =
    B.read_record t.rts.(table) ~off:(row_off t table row)
      ~len:t.lo.row_bytes.(table) f

  (* The LT payload's 5-bit fanout field saturates at [fanout_sentinel]:
     a row with a larger fanout (an RT4 row of an alphabet of 32 or more
     symbols) keeps it in the overflow table.  A saturated field with
     no entry is the fanout itself. *)
  let fanout_sentinel = 0x1F

  let wide_fanout t p =
    match
      Xutil.Int_tbl.find_opt t.overflow
        (fanout_key ~table:(ptr_table p) ~row:(ptr_row p))
    with
    | Some wide -> wide
    | None -> fanout_sentinel

  let[@inline] fanout t p =
    let f = ptr_fanout p in
    if f < fanout_sentinel then f else wide_fanout t p

  (* a row's fanout only grows (a migrating node gets a new row), so
     an overflow entry is only ever added or updated *)
  let set_ptr t node ~table ~fanout ~extrib ~row =
    if fanout > fanout_sentinel then
      set_overflow t (fanout_key ~table ~row) fanout;
    set_lt_payload t node
      (pack_ptr ~table ~fanout:(Int.min fanout fanout_sentinel) ~extrib ~row)

  let row_anchor t table row =
    Xutil.Int_tbl.find t.anchors (anchor_key ~table ~row)

  let set_row_anchor t table row v =
    let key = anchor_key ~table ~row in
    Xutil.Int_tbl.replace t.anchors key v;
    side_changed t Anchors key v

  let alloc_row t table =
    t.live_rows.(table) <- t.live_rows.(table) + 1;
    if t.freelist.(table) > 0 then begin
      let row = t.freelist.(table) - 1 in
      t.freelist.(table) <- B.get_u32 t.rts.(table) (row_off t table row);
      row
    end
    else begin
      let off = B.alloc t.rts.(table) t.lo.row_bytes.(table) in
      off / t.lo.row_bytes.(table)
    end

  let free_row t table row =
    t.live_rows.(table) <- t.live_rows.(table) - 1;
    (* drop side-table entries still keyed to this row *)
    for slot = 0 to t.lo.slot_capacity.(table) - 1 do
      drop_overflow t (rt_label_key ~table ~row ~slot)
    done;
    drop_overflow t (prt_key ~table ~row);
    drop_overflow t (fanout_key ~table ~row);
    let anchor = anchor_key ~table ~row in
    if Xutil.Int_tbl.mem t.anchors anchor then begin
      Xutil.Int_tbl.remove t.anchors anchor;
      side_changed t Anchors anchor (-1)
    end;
    B.set_u32 t.rts.(table) (row_off t table row) t.freelist.(table);
    t.freelist.(table) <- row + 1

  (* --- links --- *)

  let link_dest t node =
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 then p else row_ld t (ptr_table p) (ptr_row p)

  let link_lel = lt_lel

  (* The Link Table walk: the byte table filters on LEL (an overflowed
     one resolved through the overflow table), reads the link
     destination, a row-holding node's from its row's LD field, and
     tests its bit, all itself. *)
  let scan_links t ~from ~min_lel ~marks f =
    B.scan_lt t.lt ~off:(lt_off from) ~count:(length t + 1 - from) ~min_lel
      ~overflow:(fun i -> Xutil.Int_tbl.find t.overflow (lt_lel_key (from + i)))
      ~rts:t.rts ~row_bytes:t.lo.row_bytes ~marks
      (fun i lel dest -> f (from + i) lel dest)

  let set_link t node ~dest ~lel =
    set_lt_lel t node lel;
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 then set_lt_payload t node dest
    else set_row_ld t (ptr_table p) (ptr_row p) dest

  (* --- ribs and extribs --- *)

  (* ribs occupy slots 0 .. ribs-1; the extrib, if present, slot k-1 *)
  let rib_count t p = fanout t p - (if ptr_extrib p then 1 else 0)

  (* The rib slot of [table]'s row [row] labelled [code], from [slot]
     up to [ribs], by the record path ([rec_slot], the row at [base] of
     [b]) or field by field ([field_slot]).  Top-level functions, not
     local ones: a local recursive function is a closure allocated per
     lookup. *)
  let rec rec_slot t b base table row ribs code slot =
    if slot >= ribs then None
    else if rec_cl t b base table slot = code then
      Some (rec_rd b base slot, rec_pt t b base table row slot)
    else rec_slot t b base table row ribs code (slot + 1)

  let rec field_slot t table row ribs code slot =
    if slot >= ribs then None
    else if slot_cl t table row slot = code then
      Some (slot_rd t table row slot, slot_pt t table row slot)
    else field_slot t table row ribs code (slot + 1)

  let find_rib t node code =
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 then None
    else begin
      let table = ptr_table p and row = ptr_row p in
      let ribs = rib_count t p in
      (* no rib, no row access: the extrib-only row stays untouched *)
      if ribs = 0 then None
      else if row_in_page t table row then
        read_row t table row (fun b base ->
            rec_slot t b base table row ribs code 0)
      else field_slot t table row ribs code 0
    end

  let find_extrib t node =
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 || not (ptr_extrib p) then None
    else begin
      let table = ptr_table p and row = ptr_row p in
      let slot = t.lo.slot_capacity.(table) - 1 in
      if row_in_page t table row then
        read_row t table row (fun b base ->
            Some (rec_rd b base slot, rec_pt t b base table row slot,
                  rec_prt t b base table row, row_anchor t table row))
      else
        Some (slot_rd t table row slot, slot_pt t table row slot,
              row_prt t table row, row_anchor t table row)
    end

  let table_for_fanout t f =
    let rec go table =
      if table >= 3 || t.lo.slot_capacity.(table) >= f then table
      else go (table + 1)
    in
    go 0

  (* Materialise a row for [node] (or migrate its current one) able to
     hold one more edge; returns (table, row) of the destination row
     with the LT payload already updated. *)
  let grow_row t node ~adding_extrib =
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 then begin
      let table = table_for_fanout t 1 in
      let row = alloc_row t table in
      set_row_ld t table row p;   (* the link destination moves here *)
      set_ptr t node ~table ~fanout:1 ~extrib:adding_extrib ~row;
      (table, row)
    end
    else begin
      let table = ptr_table p and row = ptr_row p in
      let fanout = fanout t p in
      let extrib = ptr_extrib p in
      assert (not (extrib && adding_extrib));
      if fanout < t.lo.slot_capacity.(table) then begin
        set_ptr t node ~table ~fanout:(fanout + 1)
          ~extrib:(extrib || adding_extrib) ~row;
        (table, row)
      end
      else begin
        (* migrate to the table serving fanout + 1 *)
        let ntable = table_for_fanout t (fanout + 1) in
        assert (ntable > table);
        let nrow = alloc_row t ntable in
        t.migrations <- t.migrations + 1;
        set_row_ld t ntable nrow (row_ld t table row);
        let ribs = rib_count t p in
        for slot = 0 to ribs - 1 do
          set_slot_rd t ntable nrow slot (slot_rd t table row slot);
          set_slot_pt t ntable nrow slot (slot_pt t table row slot);
          set_slot_cl t ntable nrow slot (slot_cl t table row slot)
        done;
        if extrib then begin
          let oslot = t.lo.slot_capacity.(table) - 1 in
          let nslot = t.lo.slot_capacity.(ntable) - 1 in
          set_slot_rd t ntable nrow nslot (slot_rd t table row oslot);
          set_slot_pt t ntable nrow nslot (slot_pt t table row oslot);
          set_row_prt t ntable nrow (row_prt t table row);
          set_row_anchor t ntable nrow (row_anchor t table row)
        end;
        free_row t table row;
        set_ptr t node ~table:ntable ~fanout:(fanout + 1)
          ~extrib:(extrib || adding_extrib) ~row:nrow;
        (ntable, nrow)
      end
    end

  let add_rib t node ~code ~dest ~pt =
    let table, row = grow_row t node ~adding_extrib:false in
    (* the new rib takes the next free rib slot *)
    let slot = rib_count t (lt_payload t node) - 1 in
    set_slot_rd t table row slot dest;
    set_slot_pt t table row slot pt;
    set_slot_cl t table row slot code

  let add_extrib t node ~dest ~pt ~prt ~anchor =
    let table, row = grow_row t node ~adding_extrib:true in
    let slot = t.lo.slot_capacity.(table) - 1 in
    set_slot_rd t table row slot dest;
    set_slot_pt t table row slot pt;
    set_row_prt t table row prt;
    set_row_anchor t table row anchor

  (* [f] runs under the row's latch on the record path: it must not
     write the store *)
  let fold_ribs t node ~init ~f =
    let p = lt_payload t node in
    if p land 0x8000_0000 = 0 then init
    else begin
      let table = ptr_table p and row = ptr_row p in
      let ribs = rib_count t p in
      let acc = ref init in
      if ribs > 0 && row_in_page t table row then
        read_row t table row (fun b base ->
            for slot = 0 to ribs - 1 do
              acc :=
                f !acc (rec_cl t b base table slot) (rec_rd b base slot)
                  (rec_pt t b base table row slot)
            done)
      else
        for slot = 0 to ribs - 1 do
          acc :=
            f !acc (slot_cl t table row slot) (slot_rd t table row slot)
              (slot_pt t table row slot)
        done;
      !acc
    end

  (* --- accounting --- *)

  let space t =
    let live = ref 0 and total = ref 0 in
    Array.iteri
      (fun table rows ->
        live := !live + (rows * t.lo.row_bytes.(table));
        total := !total + B.used t.rts.(table))
      t.live_rows;
    { lt_bytes = B.used t.lt;
      rt_bytes = !live;
      rt_slack_bytes = !total - !live;
      (* 8 bytes per overflow entry and per extrib anchor *)
      overflow_bytes = (t.overflow_count + Xutil.Int_tbl.length t.anchors) * 8;
      string_bytes = Bioseq.Packed_seq.packed_byte_length t.seq;
      migrations = t.migrations }

  let bytes_per_char t =
    let s = space t in
    if length t = 0 then 0.0
    else
      float_of_int
        (s.lt_bytes + s.rt_bytes + s.overflow_bytes + s.string_bytes)
      /. float_of_int (length t)

  let overflow_count t = t.overflow_count

  (* The Section 5 layout maps cleanly onto the component vocabulary:
     the bit-packed character labels are the vertebrae (destinations
     are implicit), the LT is the links, the RT live rows are the ribs
     (their PRT area carries the extrib fields), and the overflow /
     anchor side tables are extrib bookkeeping. *)
  let space_components t =
    let s = space t in
    [ ("vertebrae", s.string_bytes);
      ("links", s.lt_bytes);
      ("ribs", s.rt_bytes);
      ("rib_slack", s.rt_slack_bytes);
      ("extribs", s.overflow_bytes) ]
end

include Core (Btab)

let carries_separator seq =
  let sep = Bioseq.Alphabet.separator (Bioseq.Packed_seq.alphabet seq) in
  let n = Bioseq.Packed_seq.length seq in
  let rec scan i =
    i < n && (Bioseq.Packed_seq.get seq i = sep || scan (i + 1))
  in
  (* cells too narrow for the separator code cannot hold it *)
  1 lsl Bioseq.Packed_seq.width seq > sep && scan 0

let create ?(capacity = 1024) ?separator alphabet =
  let lo = layout_of ?separator alphabet in
  let t =
    make ?separator
      ~seq:(Bioseq.Packed_seq.create ~capacity alphabet)
      (* one entry per node: the root and [capacity] appended ones *)
      ~lt:(Btab.create ((capacity + 1) * lt_entry_bytes))
      ~rts:(Array.map (fun b -> Btab.create (64 * b)) lo.row_bytes)
      alphabet
  in
  init_root t;
  t
