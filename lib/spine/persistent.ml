module Paged_bytes = Pagestore.Paged_bytes
module P = Paged_store.P

(* Build-phase spans over the disk-resident index lifecycle. *)
let s_build = Telemetry.span "persistent.build"
let s_flush = Telemetry.span "persistent.flush"
let s_open = Telemetry.span "persistent.open"
let s_scrub = Telemetry.span "persistent.scrub"

(* Page regions within the file: the metadata area (the two shadow
   slots and the epoch-declaration page, see below) below
   [Paged_store.meta_span], then the store's LT and RT regions, then
   the sequence mirror and the side log sharing one region, then the
   preimage journal. *)
let data_span = Paged_store.data_span
let region_base = Paged_store.region_base

(* Metadata is double-buffered: generation [g] goes to slot [g land 1],
   so a crash while writing the new generation always leaves the
   previous one intact.  The epoch-declaration page records the epoch
   the next session of writes will use — written ahead of any data
   write of that epoch, so epochs are never reused across crashes. *)
let slot_pages = 4096
let slot_base slot = slot * slot_pages
let epoch_page = 2 * slot_pages

(* The sequence mirror takes the first quarter of its region: at 2
   bits a code that is 32M characters at 128-byte pages, and even 8-bit
   codes (8 bytes per 7) fill it after the LT fills at 6 bytes a
   character.  The side log (overflow labels and extrib anchors, see
   below) takes the other three quarters, as two halves: the log lives
   in one, and a compaction rewrites it into the other. *)
let seq_span = data_span / 4
let side_half_span = (data_span - seq_span) / 2

(* The region table: every page region of the file, in page order,
   declared once (docs/ROBUSTNESS.md shows it).  Region names, the
   scrub walk, the debris erase on reopen and the journal's committed
   bounds all derive from it.  A region that stores a [table] is
   journaled: the preimage journal protects the table's committed
   prefix, the pages below its used bytes at the last commit.  Pages
   stamped beyond the committed ceiling are expected where [stale_ok]
   holds — the declaration page runs one epoch ahead, and journal
   entries only count while their epoch exceeds the ceiling; anywhere
   else such a page is debris from a crashed session. *)
type table = Lt | Rt of int | Seq | Side of int  (* the side log's half *)

type region = {
  name : string;
  first : int;  (* first page *)
  span : int;   (* in pages *)
  table : table option;
  stale_ok : bool;
}

let row ?table ?(stale_ok = false) name first span =
  { name; first; span; table; stale_ok }

let seq_row = row ~table:Seq "seq" (region_base 5) seq_span

let side_row half =
  row ~table:(Side half)
    (if half = 0 then "side/a" else "side/b")
    (seq_row.first + seq_span + (half * side_half_span))
    side_half_span

let journal_row = row ~stale_ok:true "journal" (region_base 6) data_span

let regions =
  [ row "meta/slot-a" (slot_base 0) slot_pages;
    row "meta/slot-b" (slot_base 1) slot_pages;
    row ~stale_ok:true "meta/epoch" epoch_page 1;
    row ~table:Lt "lt" (region_base Paged_store.lt_region) data_span ]
  @ List.init 4 (fun i ->
        row ~table:(Rt i) (Printf.sprintf "rt%d" i)
          (region_base (Paged_store.rt_region i)) data_span)
  @ [ seq_row; side_row 0; side_row 1; journal_row ]

(* the index in [regions] of the region holding [page], or -1 *)
let region_index page =
  let rec go i = function
    | [] -> -1
    | r :: rest ->
      if page >= r.first && page < r.first + r.span then i else go (i + 1) rest
  in
  go 0 regions

let region_name page =
  match region_index page with
  | -1 -> if page < Paged_store.meta_span then "meta" else "data"
  | i -> (List.nth regions i).name

(* Preimage-journal bookkeeping (the machinery itself lives further
   down, after the device-write helpers it needs). *)
let c_journal_captures = Telemetry.counter "persistent.journal.captures"
let c_journal_restored = Telemetry.counter "persistent.journal.restored"

let journal_magic = "SPNJ"
let journal_base = journal_row.first

(* An entry's header is [journal_header_bytes] long: one page at any
   page size of 36 bytes or more, so an entry is two pages, and as many
   pages as it takes below that. *)
let journal_header_bytes = 36
let journal_header_pages device =
  let ps = Pagestore.Device.page_size device in
  (journal_header_bytes + ps - 1) / ps

let entry_pages device = journal_header_pages device + 1
let journal_entries device = journal_row.span / entry_pages device

type journal = {
  j_device : Pagestore.Device.t;
  j_committed : int array;
      (* per region: its committed prefix in pages (0 unless journaled) *)
  j_journaled : unit Xutil.Int_tbl.t;  (* captured since the last commit *)
  mutable j_next : int;
}

let journal_make device =
  { j_device = device;
    j_committed = Array.make (List.length regions) 0;
    j_journaled = Xutil.Int_tbl.create 256;
    j_next = 0 }

(* The side log: every change to the store's overflow and anchor side
   tables, as a fixed-size record appended through the pool.
     +0   u32 key, bits 0..31
     +4   u16 key, bits 32..47 (keys stay below 2^43)
     +6   u16 flags: bit 0 = anchor table (else overflow), bit 1 = removal
     +8   u32 value (0 for a removal)
   The metadata records which half of the region holds the log and how
   many records are committed; reopening replays them in order, the
   last write to a key winning. *)
let side_record_bytes = 12

(* Replaying stays within twice the live entries: a flush that finds
   the log longer than that (and than this floor) rewrites it from the
   tables first. *)
let side_compact_floor = 1 lsl 14

type t = {
  core : P.t;
  seq_tab : Paged_bytes.t;
      (* vertebra codes in the packed-row layout of [Packed_seq]:
         8-byte little-endian words, [62 / width] codes each — the
         on-disk region is byte-for-byte the row's [packed_bits] *)
  mutable side_tab : Paged_bytes.t;
  mutable side_half : int;  (* the half [side_tab] lies in *)
  mutable committed_half : int;  (* the half the committed log lies in *)
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
  journal : journal;
  file_path : string;
  mutable disk_width : int;  (* cell width the region is written at *)
  mutable generation : int;
  mutable closed : bool;
}

let check_open t =
  if t.closed then Spine_error.raise_error (Spine_error.Closed "persistent index")

let make_pool ?(frames = 256) ?(page_size = 4096) ?read_only ~path
    ~truncate () =
  if truncate && Sys.file_exists path then Sys.remove path;
  let device =
    Pagestore.Device.create_file ~checksums:true ?read_only ~page_size ~path ()
  in
  Pagestore.Device.set_region_namer device region_name;
  (match Pagestore.Fault_device.of_env () with
   | Some plan -> Pagestore.Fault_device.attach plan device
   | None -> ());
  (device, Pagestore.Buffer_pool.create ~frames device)

(* The sequence mirror and the side log, each a byte table over its
   region.  Both halves of the side log report a full table under one
   name. *)
let side_log_name = "side"

let region_table pool r ~name ~used =
  let ps = Pagestore.Device.page_size (Pagestore.Buffer_pool.device pool) in
  Paged_bytes.make pool ~region:name ~base_page:r.first
    ~capacity:(r.span * ps) ~used

let seq_table pool ~used = region_table pool seq_row ~name:seq_row.name ~used

let side_table pool ~half ~used =
  region_table pool (side_row half) ~name:side_log_name ~used

(* The used bytes of a paged table, copied a page at a time: one latch,
   and on a miss one checked device read, per page. *)
let table_bytes ~page_size tab =
  let used = Paged_bytes.used tab in
  let out = Bytes.create used in
  let off = ref 0 in
  while !off < used do
    let len = Int.min page_size (used - !off) in
    Paged_bytes.read_record tab ~off:!off ~len (fun b pos ->
        Bytes.blit b pos out !off len);
    off := !off + len
  done;
  out

(* Whether a layout is the separator one of {!Compact_store.layout_of}. *)
let separator_layout lo alphabet =
  lo.Compact_store.top_code = Bioseq.Alphabet.size alphabet

(* --- byte helpers over raw pages --- *)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* Direct device writes (metadata, journal and {!of_compact}'s tables
   bypass the pool): [len] bytes of [src] from [pos] on as consecutive
   pages from [page] on, the last page's tail zeroed as a fresh page
   is, in device runs under the pool's own transient-I/O retry loop —
   same attempts, same deadline checks, same [pool.io_retries]
   accounting.  Only one run's pages are copied at a time. *)
let dev_write_pages ?(pos = 0) ?len device page src =
  let len = Option.value len ~default:(Bytes.length src - pos) in
  let ps = Pagestore.Device.page_size device in
  Pagestore.Buffer_pool.iter_runs ((len + ps - 1) / ps)
    ~page:(fun k -> page + k)
    (fun i n ->
      Pagestore.Buffer_pool.write_run device (page + i)
        (Array.init n (fun k ->
             let off = (i + k) * ps in
             let b = Bytes.make ps '\000' in
             Bytes.blit src (pos + off) b 0 (Int.min ps (len - off));
             b)))

(* --- preimage journal ---

   Data pages are overwritten in place, so after a commit the buffer
   pool may write a dirty tail page (or a mutated rib-table page) over
   its committed image — and a crash then leaves the committed
   generation unrecoverable.  The journal closes that hole: before the
   first post-commit overwrite of a committed page, its exact physical
   slot (data + trailer, whatever its state) is copied into the journal
   region; [open_] rolls every live entry back before recovery, so the
   last flushed state is restored byte for byte.

   Entry [i] occupies [entry_pages] pages at [journal_base + i *
   entry_pages] (two at page sizes of 36 bytes and up):

     header (+0 ..): magic "SPNJ", u32 entry index, u64 target page,
                     the preimage's raw 16-byte trailer, and a CRC-32C
                     over the preimage data page;
     data page (last): the preimage's data bytes.

   An entry's pages go to the device in page order as one run.  The
   header's CRC binds the data page to it, and every page of an entry
   carries the same epoch (one session writes entry [i] once per
   window): a crash part way through an entry, or a journal slot
   holding pages from different crashed sessions, reads as an invalid
   entry.  The pages of a capture batch all reach the device before
   the caller overwrites any of its targets, so an invalid entry's
   target, and every later entry's, was never overwritten.

   Entries are sealed at the session's write epoch, which a commit
   moves past — so the commit that makes the window's overwrites
   permanent also invalidates its journal (entry epoch <= new ceiling)
   with no extra write.  Recovery applies exactly the prefix of
   entries whose epochs exceed the recovered commit epoch; every such
   entry holds a committed-generation preimage (a crashed session only
   captures pages while the disk is in committed-or-journaled state),
   so rollback is idempotent across repeated crashes. *)

(* whether [page] lies in its region's committed prefix, [prefix]
   giving each region's in pages *)
let in_prefix prefix page =
  let i = region_index page in
  i >= 0 && page - (List.nth regions i).first < prefix.(i)

(* per region, the pages under [used table] bytes (0 unless journaled) *)
let prefix_pages ~page_size used =
  Array.of_list
    (List.map
       (fun r ->
         match r.table with
         | Some table -> (used table + page_size - 1) / page_size
         | None -> 0)
       regions)

let needs_capture j page =
  in_prefix j.j_committed page && not (Xutil.Int_tbl.mem j.j_journaled page)

(* Capture the preimages of [pages] (ascending; those that need it) as
   the next journal entries: one raw read per stretch of consecutive
   targets, then the entries' pages in runs.  Clean-path builds (no
   flush before close) capture nothing — nothing is committed. *)
let journal_capture j pages =
  let pages =
    Array.of_list (List.filter (needs_capture j) (Array.to_list pages))
  in
  let device = j.j_device in
  let capacity = journal_entries device in
  let m = Int.min (Array.length pages) (capacity - j.j_next) in
  if m > 0 then begin
    let ps = Pagestore.Device.page_size device in
    let phys = Pagestore.Device.phys_size device in
    let hdr = journal_header_pages device * ps in
    let entries = Bytes.make (m * (hdr + ps)) '\000' in
    Pagestore.Buffer_pool.iter_runs m ~page:(fun k -> pages.(k)) (fun i n ->
      let raw = Pagestore.Device.raw_run device pages.(i) n in
      for k = i to i + n - 1 do
        let src = (k - i) * phys and dst = k * (hdr + ps) in
        Bytes.blit_string journal_magic 0 entries dst 4;
        set_u32 entries (dst + 4) (j.j_next + k);
        set_u32 entries (dst + 8) (pages.(k) land 0xFFFFFFFF);
        set_u32 entries (dst + 12) (pages.(k) lsr 32);
        Bytes.blit raw (src + ps) entries (dst + 16) (phys - ps);
        set_u32 entries (dst + 32) (Xutil.Crc32c.digest raw ~pos:src ~len:ps);
        Bytes.blit raw src entries (dst + hdr) ps
      done);
    dev_write_pages device
      (journal_base + (j.j_next * entry_pages device))
      entries;
    for k = 0 to m - 1 do Xutil.Int_tbl.replace j.j_journaled pages.(k) () done;
    j.j_next <- j.j_next + m;
    Telemetry.add c_journal_captures m
  end;
  if m < Array.length pages then
    Spine_error.io_failed ~op:Spine_error.Write ~page:pages.(m)
      "preimage journal full (%d entries since the last flush); flush to \
       commit and reset it"
      capacity

(* Roll back every live journal entry (epoch beyond [ceiling], the
   recovered generation's commit epoch): put each preimage slot back
   exactly as captured, original trailer included, so the restored
   pages re-validate under the recovered ceiling.  Stops at the first
   invalid or obsolete entry — a capture batch is on disk before any of
   its targets is overwritten, so nothing past that point ever
   clobbered a committed page that is not also covered earlier. *)
(* Entry [i] when it is live (every page at one epoch beyond
   [ceiling]) and whole: its target page and the preimage slot. *)
let journal_entry device ~ceiling i =
  let page_size = Pagestore.Device.page_size device in
  let hdr_pages = journal_header_pages device in
  let base = journal_base + (i * entry_pages device) in
  let pages =
    List.init (hdr_pages + 1) (fun k ->
        Pagestore.Device.read_slot_any device (base + k))
  in
  match pages with
  | `Valid (_, e) :: _
    when e > ceiling
         && List.for_all
              (function `Valid (_, e') -> e' = e | `Invalid -> false)
              pages ->
    let b =
      Bytes.concat Bytes.empty
        (List.map (function `Valid (b, _) -> b | `Invalid -> Bytes.empty)
           pages)
    in
    if
      String.equal (Bytes.sub_string b 0 4) journal_magic
      && get_u32 b 4 = i
      && Xutil.Crc32c.digest b ~pos:(hdr_pages * page_size) ~len:page_size
         = get_u32 b 32
    then begin
      let phys = Bytes.make (Pagestore.Device.phys_size device) '\000' in
      Bytes.blit b (hdr_pages * page_size) phys 0 page_size;
      Bytes.blit b 16 phys page_size
        (Pagestore.Device.phys_size device - page_size);
      Some (get_u32 b 8 lor (get_u32 b 12 lsl 32), phys)
    end
    else None
  | _ -> None

let journal_rollback device ~ceiling =
  let rec go i =
    if i >= journal_entries device then i
    else
      match journal_entry device ~ceiling i with
      | Some (target, phys) ->
        Pagestore.Device.write_raw_slot device target phys;
        Telemetry.incr c_journal_restored;
        go (i + 1)
      | None -> i
  in
  go 0

(* --- epoch-declaration page --- *)

let decl_magic = "SPNG"

let write_epoch_decl device epoch =
  let b = Bytes.make (Pagestore.Device.page_size device) '\000' in
  Bytes.blit_string decl_magic 0 b 0 4;
  set_u32 b 4 epoch;
  dev_write_pages device epoch_page b

let read_epoch_decl device =
  match Pagestore.Device.read device epoch_page with
  | exception Spine_error.Error _ -> None
  | b ->
    if String.equal (Bytes.sub_string b 0 4) decl_magic then Some (get_u32 b 4)
    else None

(* --- metadata slots ---

   Slot layout (spanning whole pages from the slot base):
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

   The payload is the alphabet and the counters: symbols, length, cell
   width, each RT's used bytes, freelist head and live rows, the
   migration count, the side log's committed record count and the half
   it lies in.

   [create] stamps slot A's first page with a generation-0 header that
   is no slot at all but records the page size: slot A starts at byte
   0 whatever the page size, so {!recorded_page_size} finds it there
   before anything else about the file is known.

   The payload CRC guards the blob as a whole; each page additionally
   carries the device trailer, so a torn slot write is caught either
   way and reopen falls back to the other slot. *)

let meta_magic = "SPNM"

(* The only version read: a slot of any other version does not
   validate.  Versions 3 and 4 (side tables in the payload, no page
   size) are upgraded by one open and close under a release that still
   reads them. *)
let meta_version = 5
let header_bytes = 32

type slot_meta = {
  sm_generation : int;
  sm_commit_epoch : int;
  sm_clean : bool;
  sm_separator : bool;
  sm_payload : Bytes.t;
}

let slot_image device ~generation ~commit_epoch ~flags payload =
  let page_size = Pagestore.Device.page_size device in
  let total = header_bytes + Bytes.length payload in
  if total > slot_pages * page_size then
    Spine_error.raise_error
      (Spine_error.Region_full
         { region = "meta";
           capacity = (slot_pages * page_size) - header_bytes });
  let padded = (total + page_size - 1) / page_size * page_size in
  let all = Bytes.make padded '\000' in
  Bytes.blit_string meta_magic 0 all 0 4;
  set_u32 all 4 meta_version;
  set_u32 all 8 generation;
  set_u32 all 12 commit_epoch;
  set_u32 all 16 flags;
  set_u32 all 20 (Bytes.length payload);
  set_u32 all 24 (Xutil.Crc32c.bytes payload);
  set_u32 all 28 page_size;
  Bytes.blit payload 0 all header_bytes (Bytes.length payload);
  all

let write_slot device ~generation ~commit_epoch ~flags payload =
  dev_write_pages device
    (slot_base (generation land 1))
    (slot_image device ~generation ~commit_epoch ~flags payload)

(* the page-size stamp in slot A (see the slot layout above) *)
let write_page_size_stamp device =
  dev_write_pages device (slot_base 0)
    (slot_image device ~generation:0 ~commit_epoch:0 ~flags:0 Bytes.empty)

(* the first [n] bytes of slot [slot], read page by page *)
let slot_bytes device slot n =
  let page_size = Pagestore.Device.page_size device in
  let out = Bytes.create n in
  let pos = ref 0 in
  let page = ref (slot_base slot) in
  while !pos < n do
    let b = Pagestore.Device.read device !page in
    let chunk = Int.min page_size (n - !pos) in
    Bytes.blit b 0 out !pos chunk;
    pos := !pos + chunk;
    incr page
  done;
  out

let read_slot device slot =
  let page_size = Pagestore.Device.page_size device in
  try
    let head = slot_bytes device slot 8 in
    let magic = Bytes.sub_string head 0 4 in
    let version = get_u32 head 4 in
    if String.equal magic "\000\000\000\000" then Error "slot never written"
    else if not (String.equal magic meta_magic) then
      Error "bad metadata magic"
    else if version <> meta_version then
      Error (Printf.sprintf "unsupported metadata version %d" version)
    else begin
      let first = slot_bytes device slot header_bytes in
      let generation = get_u32 first 8 in
      let commit_epoch = get_u32 first 12 in
      let flags = get_u32 first 16 in
      let len = get_u32 first 20 in
      let crc = get_u32 first 24 in
      let recorded = get_u32 first 28 in
      if generation = 0 then Error "slot never written"
      else if recorded <> page_size then
        Error
          (Printf.sprintf "written at %d-byte pages, read at %d" recorded
             page_size)
      else if len < 0 || len > (slot_pages * page_size) - header_bytes then
        Error (Printf.sprintf "implausible metadata length %d" len)
      else begin
        let payload =
          Bytes.sub
            (slot_bytes device slot (header_bytes + len))
            header_bytes len
        in
        if Xutil.Crc32c.bytes payload <> crc then
          Error "metadata payload checksum mismatch"
        else
          Ok { sm_generation = generation; sm_commit_epoch = commit_epoch;
               sm_clean = flags land 1 = 1;
               sm_separator = flags land 2 = 2; sm_payload = payload }
      end
    end
  with Spine_error.Error e -> Error (Spine_error.to_string e)

(* The page size the file records, read from the raw file.
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
  (* logical byte [b] of the slot, stored at page size [ps] *)
  let byte b =
    let off = (b / ps * (ps + 16)) + (b mod ps) in
    if off < len then Char.code (Bytes.get raw off) else -1
  in
  let u32 b =
    let v = List.init 4 (fun k -> byte (b + k)) in
    if List.mem (-1) v then -1
    else List.fold_left (fun acc x -> (acc lsl 8) lor x) 0 (List.rev v)
  in
  ps + 12 <= len
  && String.equal (Bytes.sub_string raw ps 4) "SPCK"
  && Xutil.Crc32c.digest raw ~pos:0 ~len:(ps + 8) = get_u32 raw (ps + 8)
  && String.init 4 (fun k -> Char.chr (Int.max 0 (byte k))) = meta_magic
  && u32 4 = meta_version
  && u32 28 = ps

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
      let base = slot_base 1 * (ps + 16) in
      Bytes.equal (file_bytes fd base 1) (Bytes.of_string "S")
      && first_slot_page (file_bytes fd base (Int.max (ps + 16) (32 * 17))) ps
    in
    match scan 1 (first_slot_page head) with
    | Some ps -> Some ps
    | None -> scan 1 slot_b

(* --- metadata payload --- *)

let side_records t = Paged_bytes.used t.side_tab / side_record_bytes

let payload_bytes t =
  let buf = Buffer.create 128 in
  let u32 v = for k = 0 to 3 do Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF)) done in
  let alphabet = P.alphabet t.core in
  let symbols =
    String.init (Bioseq.Alphabet.size alphabet)
      (fun c -> Bioseq.Alphabet.decode alphabet c)
  in
  u32 (String.length symbols);
  Buffer.add_string buf symbols;
  u32 (P.length t.core);
  u32 t.disk_width;
  for table = 0 to 3 do
    u32 (Paged_bytes.used t.core.P.rts.(table));
    u32 t.core.P.freelist.(table);
    u32 t.core.P.live_rows.(table)
  done;
  u32 t.core.P.migrations;
  u32 (side_records t);
  u32 t.side_half;
  Buffer.to_bytes buf

(* the bytes [table] uses; the side log's other half uses none *)
let used_bytes t = function
  | Lt -> (P.length t.core + 1) * Compact_store.lt_entry_bytes
  | Rt i -> Paged_bytes.used t.core.P.rts.(i)
  | Seq -> Bioseq.Packed_seq.packed_byte_length (P.sequence t.core)
  | Side half -> if half = t.side_half then Paged_bytes.used t.side_tab else 0

(* Reset the capture window at a commit point (and on reopen): nothing
   is journaled yet, and the committed pages of each table are its used
   prefix.  Data regions are append-only byte tables whose rows are
   mutated in place, so an in-place overwrite can only ever target a
   page inside a used prefix — these bounds are exact. *)
let journal_commit_window t =
  let j = t.journal in
  Xutil.Int_tbl.reset j.j_journaled;
  j.j_next <- 0;
  let page_size = Pagestore.Device.page_size t.device in
  let prefix = prefix_pages ~page_size (used_bytes t) in
  Array.blit prefix 0 j.j_committed 0 (Array.length prefix);
  t.committed_half <- t.side_half

(* --- the side log --- *)

let put_side_record tab table key v =
  let off = Paged_bytes.alloc tab side_record_bytes in
  let flags =
    (match table with Compact_store.Overflow -> 0 | Compact_store.Anchors -> 1)
    lor (if v < 0 then 2 else 0)
  in
  Paged_bytes.set_u32 tab off (key land 0xFFFF_FFFF);
  Paged_bytes.set_u16 tab (off + 4) (key lsr 32);
  Paged_bytes.set_u16 tab (off + 6) flags;
  Paged_bytes.set_u32 tab (off + 8) (Int.max v 0)

(* Rewrite the log from the tables as they stand, one record per live
   entry, into the half the committed records are not in.  Nothing
   there is committed, so the rewrite needs no journal entries however
   large the tables are, and a crash before the next commit leaves the
   committed log as it was.  A second compaction before that commit
   rewrites the same half again.  Tables larger than a half fail typed
   ([Region_full] naming "side"). *)
let write_side_log t ~half =
  let tab = side_table t.pool ~half ~used:0 in
  t.side_tab <- tab;
  t.side_half <- half;
  Xutil.Int_tbl.iter
    (fun k v -> put_side_record tab Compact_store.Overflow k v)
    t.core.P.overflow;
  Xutil.Int_tbl.iter
    (fun k v -> put_side_record tab Compact_store.Anchors k v)
    t.core.P.anchors

let compact_side t = write_side_log t ~half:(1 - t.committed_half)

(* The store's side-table hook: append the change, or, when the log's
   half is full, compact it (the tables already hold the change).  A
   half the live entries alone nearly fill would compact at every
   change, so past seven eighths it fails typed instead. *)
let log_side t table key v =
  let capacity = side_half_span * Pagestore.Device.page_size t.device in
  if Paged_bytes.used t.side_tab + side_record_bytes <= capacity then
    put_side_record t.side_tab table key v
  else begin
    compact_side t;
    if Paged_bytes.used t.side_tab > capacity / 8 * 7 then
      Spine_error.raise_error
        (Spine_error.Region_full { region = side_log_name; capacity })
  end

(* Replay the first [records] records of the log in half [half] onto
   empty tables. *)
let replay_side tab ~half ~page_size ~records =
  let overflow = Xutil.Int_tbl.create 16 in
  let anchors = Xutil.Int_tbl.create 16 in
  for r = 0 to records - 1 do
    let off = r * side_record_bytes in
    let key =
      Paged_bytes.get_u32 tab off lor (Paged_bytes.get_u16 tab (off + 4) lsl 32)
    in
    let flags = Paged_bytes.get_u16 tab (off + 6) in
    let v = Paged_bytes.get_u32 tab (off + 8) in
    if flags land lnot 3 <> 0 then
      Spine_error.corrupt ~region:side_log_name
        ~page:((side_row half).first + (off / page_size))
        "side-log record %d has flags 0x%x" r flags;
    let table = if flags land 1 = 1 then anchors else overflow in
    if flags land 2 <> 0 then Xutil.Int_tbl.remove table key
    else Xutil.Int_tbl.replace table key v
  done;
  (overflow, anchors)

(* --- the committed state a metadata slot records --- *)

type payload = {
  alphabet : Bioseq.Alphabet.t;
  length : int;
  width : int;  (* the sequence region's cell width *)
  rt_used : int array;
  freelist : int array;
  live_rows : int array;
  migrations : int;
  side_log : int;  (* committed side-log records *)
  side_half : int;
}

let parse_payload ~page_size m =
  let data = m.sm_payload in
  let page = slot_base (m.sm_generation land 1) in
  let pos = ref 0 in
  let truncated () =
    Spine_error.corrupt ~region:"meta" ~page
      "metadata payload truncated at byte %d" !pos
  in
  let u8 () =
    if !pos >= Bytes.length data then truncated ();
    let v = Char.code (Bytes.get data !pos) in
    incr pos;
    v
  in
  let u32 () =
    let v = ref 0 in
    for k = 0 to 3 do v := !v lor (u8 () lsl (8 * k)) done;
    !v
  in
  let str n =
    if n < 0 || !pos + n > Bytes.length data then truncated ();
    let s = Bytes.sub_string data !pos n in
    pos := !pos + n;
    s
  in
  let symbols = str (u32 ()) in
  let alphabet =
    match
      List.find_opt
        (fun a ->
          String.equal
            (String.init (Bioseq.Alphabet.size a)
               (fun c -> Bioseq.Alphabet.decode a c))
            symbols)
        [ Bioseq.Alphabet.dna; Bioseq.Alphabet.protein; Bioseq.Alphabet.byte ]
    with
    | Some a -> a
    | None -> Bioseq.Alphabet.make symbols
  in
  let length = u32 () in
  let width = u32 () in
  if width <> 2 && width <> 4 && width <> 8 then
    Spine_error.corrupt ~region:"meta" ~page
      "implausible sequence cell width %d" width;
  let rt_used = Array.make 4 0 in
  let freelist = Array.make 4 0 in
  let live_rows = Array.make 4 0 in
  for table = 0 to 3 do
    rt_used.(table) <- u32 ();
    freelist.(table) <- u32 ();
    live_rows.(table) <- u32 ()
  done;
  let migrations = u32 () in
  let side_log = u32 () in
  let side_half = u32 () in
  if side_half > 1 || side_log * side_record_bytes > side_half_span * page_size
  then
    Spine_error.corrupt ~region:"meta" ~page
      "implausible side log (%d records in half %d)" side_log side_half;
  { alphabet; length; width; rt_used; freelist; live_rows; migrations;
    side_log; side_half }

let seq_bytes p =
  let cpw = 62 / p.width in
  (p.length + cpw - 1) / cpw * 8

(* the bytes [table] uses at the commit [p] records *)
let committed_bytes p = function
  | Lt -> (p.length + 1) * Compact_store.lt_entry_bytes
  | Rt i -> p.rt_used.(i)
  | Seq -> seq_bytes p
  | Side half ->
    if half = p.side_half then p.side_log * side_record_bytes else 0

(* --- recovery and the region walk --- *)

(* The one recovery step, shared by [open_] and the scrub: read both
   shadow slots and pick the newest valid one.  With [retune], restore
   its commit epoch as the device's ceiling and move the device to an
   epoch no crashed session can have stamped a page with: every epoch
   one may have used is bounded by what the declaration page and the
   slots record, and +2 clears both the recovered ceiling and a torn
   declaration; so no page is exempt from the scrub walk's ceiling
   check.  The slots and the declaration are read before the
   ceiling is set: all three may carry epochs from sessions later than
   the one recovered to.  A live [verify] does not retune: its
   session's uncommitted pages carry the current epoch and must stay
   valid. *)
let recover ?(retune = true) device =
  let slots = [| read_slot device 0; read_slot device 1 |] in
  let valid = List.filter_map Result.to_option (Array.to_list slots) in
  let newest =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some b when b.sm_generation >= c.sm_generation -> acc
        | _ -> Some c)
      None valid
  in
  (if retune then
     match newest with
     | Some m ->
       let hints =
         Option.to_list (read_epoch_decl device)
         @ List.map (fun c -> c.sm_commit_epoch) valid
       in
       Pagestore.Device.set_max_valid_epoch device m.sm_commit_epoch;
       Pagestore.Device.set_epoch device (List.fold_left Int.max 0 hints + 2)
     | None -> ());
  (slots, newest)

type region_report = {
  region : string;
  scanned : int;
  ok : int;
  unwritten : int;
  damaged : (int * string) list;  (* page, diagnosis *)
  stale : (int * int) list;       (* page, epoch beyond the ceiling *)
}

(* Data regions are append-only byte tables, so written pages form a
   dense prefix of each region; scanning stops after a run of holes
   instead of walking a gigabyte of sparse address space per region. *)
let hole_run_limit = 64

(* Classify the pages of region [r] from its page [from] on: those the
   file covers, and the first [committed] pages of the region even when
   the file is cut short. *)
let scan_region ?(from = 0) ?(committed = 0) device r =
  let base = r.first + from in
  let cap = Pagestore.Device.physical_pages device in
  let limit =
    Int.min (r.span - from) (Int.max (cap - base) (committed - from))
  in
  let ok = ref 0 and unwritten = ref 0 in
  let damaged = ref [] and stale = ref [] in
  let holes = ref 0 in
  let page = ref 0 in
  while !page < limit && !holes <= hole_run_limit do
    (match Pagestore.Device.verify_page device (base + !page) with
     | `Ok _ -> incr ok; holes := 0
     | `Unwritten -> incr unwritten; incr holes
     | `Stale e ->
       holes := 0;
       if r.stale_ok then incr ok
       else stale := (base + !page, e) :: !stale
     | `Damaged d ->
       holes := 0;
       damaged := (base + !page, d) :: !damaged);
    incr page
  done;
  { region = r.name; scanned = !page; ok = !ok; unwritten = !unwritten;
    damaged = List.rev !damaged; stale = List.rev !stale }

(* A crashed session may have extended a table past the committed
   prefix.  Those pages hold no committed data (the journal only
   protects the prefix) but are stamped beyond the recovered ceiling,
   so a later append extending the table into one would fault its
   read-modify-write with a misleading [Corrupt].  The walk from each
   journaled region's committed end finds them (allocation is
   sequential, so debris forms a dense run just above the prefix) —
   from the first page of the side log's other half, which a crashed
   session may have compacted the log into; reset them to sealed zero
   pages at the session's fresh epoch. *)
let erase_debris device committed_pages =
  let zero = Bytes.make (Pagestore.Device.page_size device) '\000' in
  List.iteri
    (fun i r ->
      if Option.is_some r.table then begin
        let report = scan_region ~from:committed_pages.(i) device r in
        List.iter
          (fun page -> dev_write_pages device page zero)
          (List.sort Int.compare
             (List.map fst report.stale @ List.map fst report.damaged))
      end)
    regions

(* --- lifecycle --- *)

let make_t ~core ~seq_tab ~side_tab ~side_half ~device ~pool ~path ~width
    ~generation =
  let journal = journal_make device in
  let t =
    { core; seq_tab; side_tab; side_half; committed_half = side_half; device;
      pool; journal; file_path = path;
      disk_width = width; generation; closed = false }
  in
  Pagestore.Buffer_pool.set_writeback_hook pool
    (Some (fun page -> journal_capture journal [| page |]));
  (* every committed page was written: a hole among them is damage *)
  Pagestore.Device.set_committed device (in_prefix journal.j_committed);
  P.set_side_hook core (log_side t);
  t

(* A new file holding no generation yet: the page-size stamp, and
   epoch 1 declared before any data write carries it. *)
let new_file ?frames ?page_size ~path () =
  let device, pool = make_pool ?frames ?page_size ~path ~truncate:true () in
  (* the stamp is sealed at epoch 0, which no ceiling rejects *)
  Pagestore.Device.set_epoch device 0;
  write_page_size_stamp device;
  Pagestore.Device.set_epoch device 1;
  Pagestore.Device.set_max_valid_epoch device 0;
  write_epoch_decl device 1;
  (device, pool)

let create ?frames ?page_size ~path alphabet =
  let device, pool = new_file ?frames ?page_size ~path () in
  let core = Paged_store.create pool alphabet in
  make_t ~core ~seq_tab:(seq_table pool ~used:0)
    ~side_tab:(side_table pool ~half:0 ~used:0) ~side_half:0 ~device ~pool
    ~path
    ~width:(Bioseq.Packed_seq.width (P.sequence core)) ~generation:0

(* The Section 5 tables of an in-memory index go to the device as
   sequential page runs, bypassing the pool, which holds none of their
   pages; the side log goes through the pool into half 0.  Nothing is
   committed yet, so nothing is journaled, and the first flush or close
   writes generation 1. *)
let of_compact ~path (c : Compact.t) =
  let module C = Compact_store in
  let device, pool = new_file ~path () in
  let ps = Pagestore.Device.page_size device in
  let seq = Bioseq.Packed_seq.copy c.C.seq in
  let used tab = C.Btab.used tab in
  let write r src ~pos ~len =
    if len > r.span * ps then
      Spine_error.raise_error
        (Spine_error.Region_full { region = r.name; capacity = r.span * ps });
    dev_write_pages device r.first src ~pos ~len
  in
  let write_tab r tab =
    C.Btab.read_record tab ~off:0 ~len:(used tab) (fun b pos ->
        write r b ~pos ~len:(used tab))
  in
  List.iter
    (fun r ->
      match r.table with
      | Some Lt -> write_tab r c.C.lt
      | Some (Rt i) -> write_tab r c.C.rts.(i)
      | Some Seq ->
        let bits = Bioseq.Packed_seq.packed_bits seq in
        write r bits ~pos:0 ~len:(Bytes.length bits)
      | Some (Side _) | None -> ())
    regions;
  let lt, rts =
    Paged_store.tables pool ~lt_used:(used c.C.lt)
      ~rt_used:(Array.map used c.C.rts)
  in
  let core =
    P.make ~freelist:(Array.copy c.C.freelist)
      ~live_rows:(Array.copy c.C.live_rows)
      ~overflow:(Xutil.Int_tbl.copy c.C.overflow)
      ~anchors:(Xutil.Int_tbl.copy c.C.anchors) ~migrations:c.C.migrations
      ~separator:(separator_layout c.C.lo (C.alphabet c))
      ~seq ~lt ~rts (C.alphabet c)
  in
  let t =
    make_t ~core
      ~seq_tab:(seq_table pool ~used:(Bioseq.Packed_seq.packed_byte_length seq))
      ~side_tab:(side_table pool ~half:0 ~used:0) ~side_half:0 ~device ~pool
      ~path ~width:(Bioseq.Packed_seq.width seq) ~generation:0
  in
  write_side_log t ~half:0;
  t

(* Every page a commit takes into a table's committed prefix must be
   on the file, so that a hole there reads as damage.  A page no write
   reached (the untouched tail of a table's last row) goes out as a
   sealed zero page, which it reads as.  Pages of the old prefix are
   on the file already, and those above it that are, this session
   wrote: a crashed session's debris there was erased on reopen. *)
let fill_prefix t =
  let page_size = Pagestore.Device.page_size t.device in
  let fresh = prefix_pages ~page_size (used_bytes t) in
  let zero = Bytes.make page_size '\000' in
  List.iteri
    (fun i r ->
      for k = t.journal.j_committed.(i) to fresh.(i) - 1 do
        if not (Pagestore.Device.written t.device (r.first + k)) then
          dev_write_pages t.device (r.first + k) zero
      done)
    regions

(* Commit protocol: data pages first, then the new metadata generation
   into the inactive slot, then raise the committed-epoch ceiling and
   move to a fresh (pre-declared) epoch.  The data pages go out in two
   batches: first the journal entries for every committed page among
   them, then the pages themselves, in runs.  A crash at ANY point
   leaves either the old generation recoverable (its slot untouched,
   its ceiling unchanged, its overwritten pages restorable from the
   journal) or the new one fully written. *)
let flush_internal t ~clean =
  Telemetry.with_span s_flush (fun () ->
      if
        side_records t
        > Int.max side_compact_floor
            (2 * (Xutil.Int_tbl.length t.core.P.overflow
                  + Xutil.Int_tbl.length t.core.P.anchors))
      then compact_side t;
      journal_capture t.journal (Pagestore.Buffer_pool.dirty_pages t.pool);
      Pagestore.Buffer_pool.flush t.pool;
      fill_prefix t;
      let e = Pagestore.Device.epoch t.device in
      let gen = t.generation + 1 in
      let flags =
        (if clean then 1 else 0)
        lor if separator_layout t.core.P.lo (P.alphabet t.core) then 2 else 0
      in
      write_slot t.device ~generation:gen ~commit_epoch:e ~flags
        (payload_bytes t);
      (* the slot write is the commit point; bump the in-memory
         generation only once it is durable, so a failed attempt leaves
         it unchanged and a retried flush rewrites the same inactive
         slot instead of clobbering the last valid generation's *)
      t.generation <- gen;
      Pagestore.Device.set_max_valid_epoch t.device e;
      Pagestore.Device.set_epoch t.device (e + 1);
      (* moving past epoch [e] just invalidated every journal entry
         (entry epoch <= new ceiling): open a fresh capture window over
         the newly committed prefix before any further write *)
      journal_commit_window t;
      write_epoch_decl t.device (e + 1))

let flush t =
  check_open t;
  flush_internal t ~clean:false

let close t =
  check_open t;
  flush_internal t ~clean:true;
  t.closed <- true;
  Pagestore.Device.close t.device

(* Reopen [path] at its newest committed generation.  A [read_only]
   open writes nothing: no epoch declaration, no journal rollback (a
   file that needs one is refused) and no debris erase; it serves
   {!load}, which closes it without a commit. *)
let attach ~read_only ?frames ~path () =
  Telemetry.with_span s_open @@ fun () ->
  if not (Sys.file_exists path) then
    Spine_error.io_failed ~op:Spine_error.Read "Persistent.open_: %s does not exist"
      path;
  let page_size = recorded_page_size path in
  let device, pool =
    make_pool ?frames ?page_size ~read_only ~path ~truncate:false ()
  in
  let page_size = Pagestore.Device.page_size device in
  try
    let slots, newest = recover device in
    let m =
      match newest with
      | Some m -> m
      | None ->
        let reason = function Error e -> e | Ok _ -> "valid" in
        Spine_error.raise_error
          (Spine_error.Corrupt
             { region = "meta"; page = 0;
               detail =
                 Printf.sprintf "no recoverable metadata (slot A: %s; slot B: %s)"
                   (reason slots.(0)) (reason slots.(1)) })
    in
    let ceiling = m.sm_commit_epoch in
    if read_only then begin
      if Option.is_some (journal_entry device ~ceiling 0) then
        Spine_error.io_failed ~op:Spine_error.Read
          "%s: a crashed session's overwrites must be rolled back first; \
           open the file for writing (spine scrub --deep) to recover it"
          path
    end
    else begin
      (* declare the fresh epoch before any write carries it *)
      write_epoch_decl device (Pagestore.Device.epoch device);
      (* undo the in-place overwrites a crashed session performed on
         committed pages after its last commit: every journal entry
         stamped beyond the recovered commit epoch holds the committed
         preimage of its target, so restoring them puts the flushed
         generation back on disk byte for byte *)
      ignore (journal_rollback device ~ceiling : int)
    end;
    let p = parse_payload ~page_size m in
    (* every committed page was written: a hole among them is damage *)
    Pagestore.Device.set_committed device
      (in_prefix (prefix_pages ~page_size (committed_bytes p)));
    (* rebuild the in-memory sequence mirror from the packed region —
       the raw words, no per-code re-decoding; with the ceiling
       restored above, any crash debris page this touches surfaces as a
       typed Corrupt instead of phantom characters *)
    let seq_tab = seq_table pool ~used:(seq_bytes p) in
    let seq =
      try
        Bioseq.Packed_seq.of_packed_bits p.alphabet ~len:p.length ~width:p.width
          (table_bytes ~page_size seq_tab)
      with Invalid_argument _ ->
        Spine_error.corrupt ~region:seq_row.name ~page:seq_row.first
          "packed sequence region decodes outside the alphabet"
    in
    let side_tab =
      side_table pool ~half:p.side_half
        ~used:(committed_bytes p (Side p.side_half))
    in
    let overflow, anchors =
      replay_side side_tab ~half:p.side_half ~page_size ~records:p.side_log
    in
    let lt, rts =
      Paged_store.tables pool ~lt_used:(committed_bytes p Lt) ~rt_used:p.rt_used
    in
    let core =
      P.make ~freelist:p.freelist ~live_rows:p.live_rows ~overflow ~anchors
        ~migrations:p.migrations ~separator:m.sm_separator ~seq ~lt ~rts
        p.alphabet
    in
    let t =
      make_t ~core ~seq_tab ~side_tab ~side_half:p.side_half ~device ~pool ~path
        ~width:p.width ~generation:m.sm_generation
    in
    (* the recovered prefix is the committed state the journal must now
       protect against this session's own in-place overwrites; clear
       crash debris beyond it so this session's own appends can extend
       the tables into those pages *)
    journal_commit_window t;
    if not read_only then erase_debris device t.journal.j_committed;
    t
  with e ->
    Pagestore.Device.close device;
    raise e

let open_ ?frames ~path () = attach ~read_only:false ?frames ~path ()

let path t = t.file_path
let generation t = t.generation

(* Re-mirror the whole packed row into the sequence region, used when
   an appended code forces a wider cell (the row re-packs in memory, so
   every on-disk byte moves).  At most twice over an index's whole
   life (2 -> 4 -> 8). *)
let rewrite_seq_region t =
  let packed = Bioseq.Packed_seq.packed_bits (P.sequence t.core) in
  for off = 0 to Bytes.length packed - 1 do
    Paged_bytes.set_u8 t.seq_tab off (Char.code (Bytes.get packed off))
  done;
  t.disk_width <- Bioseq.Packed_seq.width (P.sequence t.core)

let append t code =
  check_open t;
  let seq = P.sequence t.core in
  let i = Bioseq.Packed_seq.length seq in  (* position of the new code *)
  Paged_store.append t.core code;
  let w = Bioseq.Packed_seq.width seq in
  if w <> t.disk_width then rewrite_seq_region t
  else begin
    (* mirror the one new code into the packed on-disk region.  The
       width divides 8, so a code's bits always fall within one byte:
       read-modify-write that byte alone.  A byte whose low bits are
       free ([shift = 0]) is untouched so far — its region pages start
       zeroed — and can be written without the read. *)
    let cpw = 62 / w in
    let wi = i / cpw in
    let bit = (i - (wi * cpw)) * w in
    let off = (wi * 8) + (bit / 8) in
    let shift = bit land 7 in
    let v =
      if shift = 0 then code
      else Paged_bytes.get_u8 t.seq_tab off lor (code lsl shift)
    in
    Paged_bytes.set_u8 t.seq_tab off v
  end

let append_string t s =
  Telemetry.with_span s_build (fun () ->
      let alphabet = P.alphabet t.core in
      String.iter (fun ch -> append t (Bioseq.Alphabet.encode alphabet ch)) s)

let append_seq t seq =
  Telemetry.with_span s_build (fun () ->
      Bioseq.Packed_seq.iteri seq ~f:(fun _ c -> append t c))

(* Every table is copied a page at a time.  The read-only handle is
   released, never committed, so the in-memory index takes over the
   side tables, counters and sequence it recovered. *)
let load ~path =
  let t = attach ~read_only:true ~path () in
  Fun.protect ~finally:(fun () -> Pagestore.Device.close t.device)
  @@ fun () ->
  let c = t.core in
  let page_size = Pagestore.Device.page_size t.device in
  let btab tab = Compact_store.Btab.of_bytes (table_bytes ~page_size tab) in
  let alphabet = P.alphabet c in
  Compact_store.make ~freelist:c.P.freelist ~live_rows:c.P.live_rows
    ~overflow:c.P.overflow ~anchors:c.P.anchors ~migrations:c.P.migrations
    ~separator:(separator_layout c.P.lo alphabet) ~seq:c.P.seq
    ~lt:(btab c.P.lt) ~rts:(Array.map btab c.P.rts) alphabet

let bytes_per_char t = check_open t; P.bytes_per_char t.core
let sequence t = check_open t; P.sequence t.core

(* The file footprint (physical slots: pages + checksum trailers) and
   the pool's frame memory; the paged byte tables themselves are
   already attributed through the store's space_components. *)
let space_extra t () =
  [ ("pagestore_pages",
     Pagestore.Device.pages_allocated t.device
     * Pagestore.Device.phys_size t.device);
    ("bufferpool_frames",
     Pagestore.Buffer_pool.frames t.pool
     * Pagestore.Device.page_size t.device) ]

let engine t =
  Engine.pack ~guard:(fun () -> check_open t) ~space_extra:(space_extra t)
    ~backend:Persistent
    (module P : Store_sig.S with type t = P.t)
    t.core

let store t = t.core
let device t = t.device
let pool t = t.pool

(* --- scrub: integrity walk and damage report --- *)

type slot_state =
  | Slot_valid of { generation : int; commit_epoch : int; clean : bool }
  | Slot_invalid of string

type report = {
  report_path : string;
  report_generation : int;   (* -1 when no metadata was recoverable *)
  report_commit_epoch : int;
  report_clean : bool;
  slots : (int * slot_state) list;
  regions : region_report list;
  damaged_pages : int;
  stale_pages : int;
}

(* Offline scrub tunes the epoch check and names the committed pages
   from the recovered metadata; a live [verify] keeps the session's own
   settings. *)
let run_scrub ~live device path =
  Telemetry.with_span s_scrub @@ fun () ->
  let slots, newest = recover ~retune:(not live) device in
  let state = function
    | Ok m ->
      Slot_valid
        { generation = m.sm_generation; commit_epoch = m.sm_commit_epoch;
          clean = m.sm_clean }
    | Error e -> Slot_invalid e
  in
  (* a committed page is scanned even past the file's end *)
  let committed =
    match newest with
    | Some m -> (
      let page_size = Pagestore.Device.page_size device in
      match parse_payload ~page_size m with
      | p -> prefix_pages ~page_size (committed_bytes p)
      | exception Spine_error.Error _ -> Array.make (List.length regions) 0)
    | None -> Array.make (List.length regions) 0
  in
  if not live then
    Pagestore.Device.set_committed device (in_prefix committed);
  let regions =
    List.mapi (fun i r -> scan_region ~committed:committed.(i) device r) regions
  in
  let count pages =
    List.fold_left (fun acc r -> acc + List.length (pages r)) 0 regions
  in
  { report_path = path;
    report_generation =
      (match newest with Some m -> m.sm_generation | None -> -1);
    report_commit_epoch =
      (match newest with Some m -> m.sm_commit_epoch | None -> -1);
    report_clean = (match newest with Some m -> m.sm_clean | None -> false);
    slots = List.mapi (fun i s -> (i, state s)) (Array.to_list slots);
    regions;
    damaged_pages = count (fun r -> r.damaged);
    stale_pages = count (fun r -> r.stale) }

let verify t =
  check_open t;
  run_scrub ~live:true t.device t.file_path

let scrub ~path () =
  if not (Sys.file_exists path) then
    Spine_error.io_failed ~op:Spine_error.Read "Persistent.scrub: %s does not exist"
      path;
  let page_size = Option.value (recorded_page_size path) ~default:4096 in
  let device =
    Pagestore.Device.create_file ~checksums:true ~read_only:true ~page_size
      ~path ()
  in
  Pagestore.Device.set_region_namer device region_name;
  let result =
    try run_scrub ~live:false device path
    with e -> Pagestore.Device.close device; raise e
  in
  Pagestore.Device.close device;
  result
