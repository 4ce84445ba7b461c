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

(* A column scan takes one latch per page: every field lying wholly
   inside the page is tested under that latch, and the hits, packed as
   [i lsl 16 lor raw], are reported once it is released, so [f] may
   latch other pages itself.  A field that straddles a page boundary
   falls back to [get_u16]. *)
let scan_u16 t ~off ~stride ~count ~min f =
  let ps = t.page_size in
  let hits = Array.make ((ps / stride) + 1) 0 in
  let i = ref 0 in
  while !i < count do
    let o = off + (!i * stride) in
    let pos = o mod ps in
    if pos + 2 > ps then begin
      let raw = get_u16 t o in
      if raw >= min then f !i raw;
      incr i
    end
    else begin
      let first = !i and start = o - pos in
      let last = Int.min (count - 1) ((start + ps - 2 - off) / stride) in
      let n =
        Buffer_pool.with_page t.pool (page t o) ~dirty:false (fun b ->
            let n = ref 0 in
            for j = first to last do
              let raw = Bytes.get_uint16_le b (off + (j * stride) - start) in
              if raw >= min then begin
                hits.(!n) <- (j lsl 16) lor raw;
                incr n
              end
            done;
            !n)
      in
      for h = 0 to n - 1 do
        f (hits.(h) lsr 16) (hits.(h) land 0xFFFF)
      done;
      i := last + 1
    end
  done
