let get_u32 = Pagestore.Device.get_u32
let set_u32 = Pagestore.Device.set_u32

(* Slot layout (spanning whole pages from the slot base):
     +0   magic "SPNM"
     +4   u32 format version (5)
     +8   u32 generation
     +12  u32 commit epoch: every data page of this generation is
              stamped with an epoch <= this
     +16  u32 flags (bit 0 = written by a clean close, bit 1 = the
              store has the separator layout of a multi-string index)
     +20  u32 payload length
     +24  u32 CRC-32C of the payload
     +28  u32 page size
     +32  payload

   [write_page_size_stamp] stamps slot A's first page with a
   generation-0 header that is no slot at all but records the page
   size: slot A starts at byte 0 whatever the page size, so
   [recorded_page_size] finds it there before anything else about the
   file is known.

   The payload CRC guards the blob as a whole; each page additionally
   carries the device trailer, so a torn slot write is caught either
   way and reopen falls back to the other slot. *)

let magic = "SPNM"

(* The only version read: a slot of any other version does not
   validate.  Versions 3 and 4 (side tables in the payload, no page
   size) are upgraded by one open and close under a release that still
   reads them. *)
let version = 5
let header_bytes = 32

(* --- the payload --- *)

type payload = {
  alphabet : Bioseq.Alphabet.t;
  length : int;
  width : int;
  rt_used : int array;
  freelist : int array;
  live_rows : int array;
  migrations : int;
  side_records : int;
  side_half : int;
}

let symbols alphabet =
  String.init (Bioseq.Alphabet.size alphabet) (Bioseq.Alphabet.decode alphabet)

(* The payload's fields, in order: the symbols (a u32 count, then one
   byte each), then u32s. *)
let counters p =
  [ p.length; p.width ]
  @ List.concat
      (List.init 4 (fun table ->
           [ p.rt_used.(table); p.freelist.(table); p.live_rows.(table) ]))
  @ [ p.migrations; p.side_records; p.side_half ]

let encode_payload p =
  let syms = symbols p.alphabet in
  let n = String.length syms in
  let cs = counters p in
  let b = Bytes.create (4 + n + (4 * List.length cs)) in
  set_u32 b 0 n;
  Bytes.blit_string syms 0 b 4 n;
  List.iteri (fun k v -> set_u32 b (4 + n + (4 * k)) v) cs;
  b

type slot = {
  generation : int;
  commit_epoch : int;
  clean : bool;
  separator : bool;
  payload : Bytes.t;
}

let decode_payload ~page_size s =
  let data = s.payload in
  let len = Bytes.length data in
  let page = (Region_map.slot (s.generation land 1)).first in
  let corrupt fmt = Spine_error.corrupt ~region:"meta" ~page fmt in
  (* the u32 at [off]; the fields before it were read, so [off <= len]
     and the first byte missing is byte [len] *)
  let u32 off =
    if off + 4 > len then corrupt "metadata payload truncated at byte %d" len;
    get_u32 data off
  in
  let n = u32 0 in
  if n > len - 4 then corrupt "metadata payload truncated at byte %d" 4;
  let syms = Bytes.sub_string data 4 n in
  let alphabet =
    match
      List.find_opt
        (fun a -> String.equal (symbols a) syms)
        [ Bioseq.Alphabet.dna; Bioseq.Alphabet.protein; Bioseq.Alphabet.byte ]
    with
    | Some a -> a
    | None -> Bioseq.Alphabet.make syms
  in
  let field k = u32 (4 + n + (4 * k)) in
  let length = field 0 in
  let width = field 1 in
  if width <> 2 && width <> 4 && width <> 8 then
    corrupt "implausible sequence cell width %d" width;
  let per_table j = Array.init 4 (fun table -> field (2 + (3 * table) + j)) in
  let rt_used = per_table 0 in
  let freelist = per_table 1 in
  let live_rows = per_table 2 in
  let migrations = field 14 in
  let side_records = field 15 in
  let side_half = field 16 in
  if
    side_half > 1
    || side_records * Side_log.record_bytes
       > (Region_map.side 0).span * page_size
  then
    corrupt "implausible side log (%d records in half %d)" side_records
      side_half;
  { alphabet; length; width; rt_used; freelist; live_rows; migrations;
    side_records; side_half }

let committed_bytes p = function
  | Region_map.Lt -> (p.length + 1) * Compact_store.lt_entry_bytes
  | Rt i -> p.rt_used.(i)
  | Seq -> Bioseq.Packed_seq.byte_length ~width:p.width p.length
  | Side half ->
    if half = p.side_half then p.side_records * Side_log.record_bytes else 0

(* --- the slot --- *)

let image device ~generation ~commit_epoch ~flags payload =
  let page_size = Pagestore.Device.page_size device in
  let capacity = ((Region_map.slot 0).span * page_size) - header_bytes in
  let len = Bytes.length payload in
  if len > capacity then
    Spine_error.raise_error
      (Spine_error.Region_full { region = "meta"; capacity });
  let padded = (header_bytes + len + page_size - 1) / page_size * page_size in
  let all = Bytes.make padded '\000' in
  Bytes.blit_string magic 0 all 0 4;
  List.iteri
    (fun k v -> set_u32 all (4 + (4 * k)) v)
    [ version; generation; commit_epoch; flags; len; Xutil.Crc32c.bytes payload;
      page_size ];
  Bytes.blit payload 0 all header_bytes len;
  all

let write device ~generation ~commit_epoch ~clean ~separator p =
  let flags = (if clean then 1 else 0) lor if separator then 2 else 0 in
  Pagestore.Buffer_pool.write_pages device
    (Region_map.slot (generation land 1)).first
    (image device ~generation ~commit_epoch ~flags (encode_payload p))

let write_page_size_stamp device =
  Pagestore.Buffer_pool.write_pages device (Region_map.slot 0).first
    (image device ~generation:0 ~commit_epoch:0 ~flags:0 Bytes.empty)

(* why the first 8 bytes of a slot hold no slot of this version, if so *)
let check_version head =
  let m = Bytes.sub_string head 0 4 in
  if String.equal m "\000\000\000\000" then Error "slot never written"
  else if not (String.equal m magic) then Error "bad metadata magic"
  else
    let v = get_u32 head 4 in
    if v <> version then
      Error (Printf.sprintf "unsupported metadata version %d" v)
    else Ok ()

let read device i =
  let page_size = Pagestore.Device.page_size device in
  let base = (Region_map.slot i).first in
  (* the slot's first [n] bytes, each page read once *)
  let buf = ref Bytes.empty in
  let upto n =
    while Bytes.length !buf < n do
      let page = base + (Bytes.length !buf / page_size) in
      buf := Bytes.cat !buf (Pagestore.Device.read device page)
    done;
    !buf
  in
  try
    match check_version (upto 8) with
    | Error _ as e -> e
    | Ok () ->
      let h = upto header_bytes in
      let generation = get_u32 h 8 in
      let flags = get_u32 h 16 in
      let len = get_u32 h 20 in
      let recorded = get_u32 h 28 in
      if generation = 0 then Error "slot never written"
      else if recorded <> page_size then
        Error
          (Printf.sprintf "written at %d-byte pages, read at %d" recorded
             page_size)
      else if len > ((Region_map.slot i).span * page_size) - header_bytes then
        Error (Printf.sprintf "implausible metadata length %d" len)
      else begin
        let payload = Bytes.sub (upto (header_bytes + len)) header_bytes len in
        if Xutil.Crc32c.bytes payload <> get_u32 h 24 then
          Error "metadata payload checksum mismatch"
        else
          Ok { generation; commit_epoch = get_u32 h 12;
               clean = flags land 1 = 1; separator = flags land 2 = 2;
               payload }
      end
  with Spine_error.Error e -> Error (Spine_error.to_string e)

(* --- the page size the file records ---

   Slot A's first page starts at byte 0 whatever the page size, and its
   trailer (magic "SPCK", epoch, CRC-32C over data, magic and epoch)
   follows its data, so the page size is the [ps] for which bytes [ps ..
   ps + 12] seal bytes [0 .. ps - 1] — and the header, read at that
   size, must record [ps] itself.  Every slot write records it, so when
   that page is torn or damaged, slot B's first page, at byte [4096 *
   (ps + 16)], is tried the same way for each [ps].  [None] when neither
   first page yields a size. *)
let max_probed_page_size = 1 lsl 16

(* up to [len] bytes of the file at byte [pos], fewer at its end *)
let file_bytes fd pos len =
  let buf = Bytes.create len in
  let rec fill got =
    if got = len then got
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> got
      | k -> fill (got + k)
  in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  Bytes.sub buf 0 (fill 0)

(* [raw] starts with a slot's first page at page size [ps]: sealed, and
   the header there records [ps] *)
let first_slot_page raw ps =
  let len = Bytes.length raw in
  (* where logical byte [b] of the slot is stored at page size [ps] *)
  let at b = (b / ps * (ps + 16)) + (b mod ps) in
  ps + 12 <= len
  && String.equal (Bytes.sub_string raw ps 4) "SPCK"
  && Xutil.Crc32c.digest raw ~pos:0 ~len:(ps + 8) = get_u32 raw (ps + 8)
  && at (header_bytes - 1) < len
  &&
  let h = Bytes.init header_bytes (fun b -> Bytes.get raw (at b)) in
  Result.is_ok (check_version h) && get_u32 h 28 = ps

let recorded_page_size path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let head = file_bytes fd 0 (max_probed_page_size + 16) in
    let rec scan ps found =
      if ps > max_probed_page_size then None
      else if found ps then Some ps
      else scan (ps + 1) found
    in
    (* slot B's header spans pages below 32-byte pages: read enough of
       them for byte 31 *)
    let slot_b ps =
      let base = (Region_map.slot 1).first * (ps + 16) in
      Bytes.equal (file_bytes fd base 1) (Bytes.of_string "S")
      && first_slot_page (file_bytes fd base (Int.max (ps + 16) (32 * 17))) ps
    in
    match scan 1 (first_slot_page head) with
    | Some ps -> Some ps
    | None -> scan 1 slot_b

(* --- the epoch-declaration page --- *)

let decl_magic = "SPNG"

let write_epoch_decl device epoch =
  let b = Bytes.make (Pagestore.Device.page_size device) '\000' in
  Bytes.blit_string decl_magic 0 b 0 4;
  set_u32 b 4 epoch;
  Pagestore.Buffer_pool.write_pages device Region_map.epoch.first b

let read_epoch_decl device =
  match Pagestore.Device.read device Region_map.epoch.first with
  | exception Spine_error.Error _ -> None
  | b ->
    if String.equal (Bytes.sub_string b 0 4) decl_magic then Some (get_u32 b 4)
    else None
