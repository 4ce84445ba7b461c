(* Byte tables over buffer-pool pages (see paged_bytes.mli). *)

type t = {
  pool : Buffer_pool.t;
  region : string;
  base_page : int;
  capacity : int;
  page_size : int;
  mutable used : int;
}

let make ?(used = 0) pool ~region ~base_page ~capacity =
  { pool; region; base_page; capacity;
    page_size = Device.page_size (Buffer_pool.device pool);
    used }

let used t = t.used

let alloc t n =
  let off = t.used in
  if off + n > t.capacity then
    Spine_error.raise_error
      (Spine_error.Region_full { region = t.region; capacity = t.capacity });
  t.used <- off + n;
  off

let page t off = t.base_page + (off / t.page_size)

let get_u8 t off =
  let pos = off mod t.page_size in
  Buffer_pool.with_page t.pool (page t off) ~dirty:false (fun b ->
      Bytes.get_uint8 b pos)

let set_u8 t off v =
  let pos = off mod t.page_size in
  Buffer_pool.with_page t.pool (page t off) ~dirty:true (fun b ->
      Bytes.set_uint8 b pos (v land 0xFF))

(* A field inside one page is one latch and one word access; a field
   that straddles a page boundary goes byte by byte. *)
let get_u16 t off =
  let pos = off mod t.page_size in
  if pos + 2 <= t.page_size then
    Buffer_pool.with_page t.pool (page t off) ~dirty:false (fun b ->
        Bytes.get_uint16_le b pos)
  else get_u8 t off lor (get_u8 t (off + 1) lsl 8)

let set_u16 t off v =
  let pos = off mod t.page_size in
  if pos + 2 <= t.page_size then
    Buffer_pool.with_page t.pool (page t off) ~dirty:true (fun b ->
        Bytes.set_uint16_le b pos (v land 0xFFFF))
  else begin
    set_u8 t off v;
    set_u8 t (off + 1) (v lsr 8)
  end

let get_u32 t off =
  let pos = off mod t.page_size in
  if pos + 4 <= t.page_size then
    Buffer_pool.with_page t.pool (page t off) ~dirty:false (fun b ->
        Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFF_FFFF)
  else
    get_u8 t off
    lor (get_u8 t (off + 1) lsl 8)
    lor (get_u8 t (off + 2) lsl 16)
    lor (get_u8 t (off + 3) lsl 24)

let set_u32 t off v =
  let pos = off mod t.page_size in
  if pos + 4 <= t.page_size then
    Buffer_pool.with_page t.pool (page t off) ~dirty:true (fun b ->
        Bytes.set_int32_le b pos (Int32.of_int v))
  else begin
    set_u8 t off v;
    set_u8 t (off + 1) (v lsr 8);
    set_u8 t (off + 2) (v lsr 16);
    set_u8 t (off + 3) (v lsr 24)
  end

(* A record inside one page is one latch for all of its fields. *)
let in_one_page t ~off ~len = (off mod t.page_size) + len <= t.page_size

let read_record t ~off ~len f =
  if not (in_one_page t ~off ~len) then
    invalid_arg "Paged_bytes: record straddles a page boundary";
  let pos = off mod t.page_size in
  Buffer_pool.with_page t.pool (page t off) ~dirty:false (fun b -> f b pos)

(* --- the Link Table entry ---
   Figure 5's 6-byte entry: a u32 payload, then a u16 LEL whose value
   0xFFFF is the overflow sentinel.  A payload with bit 31 clear is the
   link destination; with bit 31 set it is a PTR naming the node's Rib
   Table row, the table in bits 29-30 and the row in bits 0-22, and the
   row's first u32 (its LD field) holds the destination. *)
let lt_entry_bytes = 6
let overflow_sentinel = 0xFFFF

let[@inline] is_ptr p = p land 0x8000_0000 <> 0
let[@inline] ptr_table p = (p lsr 29) land 3
let[@inline] ptr_row p = p land 0x7F_FFFF

(* The Link Table scan takes one latch per page.  Under it, every
   entry whose LEL lies inside the page is filtered on its stored LEL
   (an overflow sentinel always passes: its true value comes from
   [overflow] later) and the passing ones are collected, with their
   payload when it lies in the page too.  Once the latch is released
   the collected entries are resolved in order: true LEL, then the
   payload (read with [get_u32] when it lies on the previous page),
   then a PTR's LD field, then the bitmap test, so the bits [f] set for
   later entries of the page count.

   The pages touched, collapsed to runs of one page, stay those of
   latching the page for its LELs and then reading each passing
   entry's payload with [get_u32], and a PTR's LD field after it: a
   payload read that would repeat the page just latched is skipped,
   and one that follows an LD read or a call of [f], which may have
   latched other pages, is replayed by latching this page again.  So
   misses and evictions are those of that field-by-field order.  An
   entry whose LEL straddles a page boundary is read field by field. *)
let scan_lt t ~off ~count ~min_lel ~overflow ~rts ~row_bytes ~marks f =
  let ps = t.page_size in
  let min_raw = Int.min min_lel overflow_sentinel in
  (* per collected entry: [i lsl 16 lor raw], and the payload or -1
     when it starts on the previous page *)
  let hits = Array.make ((ps / lt_entry_bytes) + 1) 0 in
  let payloads = Array.make ((ps / lt_entry_bytes) + 1) 0 in
  let resolve i raw payload here pg =
    (* [here]: the last page touched is [pg], the page of the entry's
       LEL; the result is the same after this entry *)
    let lel = if raw = overflow_sentinel then overflow i else raw in
    if lel < min_lel then here
    else begin
      let p, here =
        if payload >= 0 then begin
          if not here then
            Buffer_pool.with_page t.pool pg ~dirty:false ignore;
          (payload, true)
        end
        else
          let o = off + (i * lt_entry_bytes) in
          (get_u32 t o, page t (o + 3) = pg)
      in
      if is_ptr p then begin
        let table = ptr_table p in
        let dest = get_u32 rts.(table) (ptr_row p * row_bytes.(table)) in
        if Xutil.Node_bits.mem marks dest then f i lel dest;
        false
      end
      else if Xutil.Node_bits.mem marks p then begin
        f i lel p;
        false
      end
      else here
    end
  in
  let i = ref 0 in
  while !i < count do
    let o = off + (!i * lt_entry_bytes) + 4 in
    let pos = o mod ps in
    if pos + 2 > ps then begin
      let raw = get_u16 t o in
      if raw >= min_raw then ignore (resolve !i raw (-1) false (page t o));
      incr i
    end
    else begin
      let first = !i and start = o - pos and pg = page t o in
      let last =
        Int.min (count - 1) ((start + ps - 2 - off - 4) / lt_entry_bytes)
      in
      let n =
        Buffer_pool.with_page t.pool pg ~dirty:false (fun b ->
            let n = ref 0 in
            for j = first to last do
              let at = off + (j * lt_entry_bytes) - start in
              let raw = Bytes.get_uint16_le b (at + 4) in
              if raw >= min_raw then begin
                hits.(!n) <- (j lsl 16) lor raw;
                payloads.(!n) <-
                  (if at >= 0 then
                     Int32.to_int (Bytes.get_int32_le b at) land 0xFFFF_FFFF
                   else -1);
                incr n
              end
            done;
            !n)
      in
      let here = ref true in
      for h = 0 to n - 1 do
        here :=
          resolve (hits.(h) lsr 16) (hits.(h) land 0xFFFF) payloads.(h)
            !here pg
      done;
      i := last + 1
    end
  done
