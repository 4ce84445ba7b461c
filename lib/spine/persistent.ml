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
   the sequence mirror and the preimage journal. *)
let meta_span = Paged_store.meta_span
let data_span = Paged_store.data_span
let region_base = Paged_store.region_base
let lt_region = Paged_store.lt_region
let rt_region = Paged_store.rt_region
let seq_region = 5
let journal_region = 6

(* Metadata is double-buffered: generation [g] goes to slot [g land 1],
   so a crash while writing the new generation always leaves the
   previous one intact.  The epoch-declaration page records the epoch
   the next session of writes will use — written ahead of any data
   write of that epoch, so epochs are never reused across crashes. *)
let slot_pages = 4096
let slot_base slot = slot * slot_pages
let epoch_page = 2 * slot_pages

let region_name page =
  if page < meta_span then
    if page = epoch_page then "meta/epoch"
    else if page < slot_pages then "meta/slot-a"
    else if page < 2 * slot_pages then "meta/slot-b"
    else "meta"
  else
    match (page - meta_span) / data_span with
    | 0 -> "lt"
    | 1 -> "rt0"
    | 2 -> "rt1"
    | 3 -> "rt2"
    | 4 -> "rt3"
    | 5 -> "seq"
    | 6 -> "journal"
    | _ -> "data"

(* Preimage-journal bookkeeping (the machinery itself lives further
   down, after the device-write helpers it needs). *)
let c_journal_captures = Telemetry.counter "persistent.journal.captures"
let c_journal_restored = Telemetry.counter "persistent.journal.restored"

let journal_magic = "SPNJ"
let journal_base = region_base journal_region
let journal_entries = data_span / 2

(* pages the journal protects: everything in the data regions *)
let is_data_page page = page >= meta_span && page < journal_base

type journal = {
  j_device : Pagestore.Device.t;
  j_committed : unit Xutil.Int_tbl.t;
      (* pages whose on-disk image belongs to the committed generation *)
  j_journaled : unit Xutil.Int_tbl.t;  (* captured since the last commit *)
  mutable j_next : int;
}

let journal_make device =
  { j_device = device;
    j_committed = Xutil.Int_tbl.create 1024;
    j_journaled = Xutil.Int_tbl.create 256;
    j_next = 0 }

type t = {
  core : P.t;
  seq_tab : Paged_bytes.t;
      (* vertebra codes in the packed-row layout of [Packed_seq]:
         8-byte little-endian words, [62 / width] codes each — the
         on-disk region is byte-for-byte the row's [packed_bits] *)
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

let make_pool ?(frames = 256) ?(page_size = 4096) ?(pin_top_lt_pages = 0)
    ~path ~truncate () =
  if truncate && Sys.file_exists path then Sys.remove path;
  let device =
    Pagestore.Device.create_file ~checksums:true ~page_size ~path ()
  in
  Pagestore.Device.set_region_namer device region_name;
  (match Pagestore.Fault_device.of_env () with
   | Some plan -> Pagestore.Fault_device.attach plan device
   | None -> ());
  let pool =
    Pagestore.Buffer_pool.create
      ~pin:(Paged_store.pin_top_lt pin_top_lt_pages) ~frames device
  in
  (device, pool)

(* --- byte helpers over raw pages --- *)

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let set_u32 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

(* Direct device writes (metadata and journal bypass the pool) go
   through the pool's own transient-I/O retry loop: same attempts, same
   deadline checks, same [pool.io_retries] accounting. *)
let dev_write device page data =
  Pagestore.Buffer_pool.with_io_retries page (fun () ->
      Pagestore.Device.write device page data)

(* --- preimage journal ---

   Data pages are overwritten in place, so after a commit the buffer
   pool may write a dirty tail page (or a mutated rib-table page) over
   its committed image — and a crash then leaves the committed
   generation unrecoverable.  The journal closes that hole: before the
   first post-commit overwrite of a committed page, its exact physical
   slot (data + trailer, whatever its state) is copied into the journal
   region; [open_] rolls every live entry back before recovery, so the
   last flushed state is restored byte for byte.

   Entry [i] occupies two pages at [journal_base + 2i]:

     data page  (+1): the preimage's data bytes;
     header page (+0): magic "SPNJ", u32 entry index, u64 target page,
                       the preimage's raw 16-byte trailer, and a
                       CRC-32C over the preimage data page.

   The data page is written first; the header commits the entry.  The
   header's own CRC binds header and data together: a crash between
   the two (or a journal slot holding pages from different crashed
   sessions) reads as an invalid entry, and an invalid entry's target
   was by construction never overwritten.

   Entries are sealed at the session's write epoch, which a commit
   moves past — so the commit that makes the window's overwrites
   permanent also invalidates its journal (entry epoch <= new ceiling)
   with no extra write.  Recovery applies exactly the prefix of
   entries whose epochs exceed the recovered commit epoch; every such
   entry holds a committed-generation preimage (a crashed session only
   captures pages while the disk is in committed-or-journaled state),
   so rollback is idempotent across repeated crashes. *)

(* Called by the buffer pool before every dirty writeback: first
   overwrite of a committed page in this window copies its slot into
   the journal.  Clean-path builds (no flush before close) never enter
   the branch — the committed set is empty. *)
let journal_capture j page =
  if
    is_data_page page
    && Xutil.Int_tbl.mem j.j_committed page
    && not (Xutil.Int_tbl.mem j.j_journaled page)
  then begin
    if j.j_next >= journal_entries then
      Spine_error.io_failed ~op:Spine_error.Write ~page
        "preimage journal full (%d entries since the last flush); flush to \
         commit and reset it"
        journal_entries;
    let device = j.j_device in
    let page_size = Pagestore.Device.page_size device in
    let trailer = Pagestore.Device.phys_size device - page_size in
    let phys = Pagestore.Device.raw_slot device page in
    let data = Bytes.sub phys 0 page_size in
    let hdr = Bytes.make page_size '\000' in
    Bytes.blit_string journal_magic 0 hdr 0 4;
    set_u32 hdr 4 j.j_next;
    set_u32 hdr 8 (page land 0xFFFFFFFF);
    set_u32 hdr 12 (page lsr 32);
    Bytes.blit phys page_size hdr 16 trailer;
    set_u32 hdr 32 (Xutil.Crc32c.bytes data);
    let base = journal_base + (2 * j.j_next) in
    dev_write device (base + 1) data;
    dev_write device base hdr;  (* the header commits the entry *)
    Xutil.Int_tbl.replace j.j_journaled page ();
    j.j_next <- j.j_next + 1;
    Telemetry.incr c_journal_captures
  end

(* Roll back every live journal entry (epoch beyond [ceiling], the
   recovered generation's commit epoch): put each preimage slot back
   exactly as captured, original trailer included, so the restored
   pages re-validate under the recovered ceiling.  Stops at the first
   invalid or obsolete entry — entries are written in order and each
   precedes its target's overwrite, so nothing past that point ever
   clobbered a committed page that is not also covered earlier. *)
let journal_rollback device ~ceiling =
  let page_size = Pagestore.Device.page_size device in
  let restored = ref 0 in
  (try
     for i = 0 to journal_entries - 1 do
       let base = journal_base + (2 * i) in
       match Pagestore.Device.read_slot_any device base with
       | `Valid (hdr, e)
         when e > ceiling
              && String.equal (Bytes.sub_string hdr 0 4) journal_magic
              && get_u32 hdr 4 = i -> begin
           let target = get_u32 hdr 8 lor (get_u32 hdr 12 lsl 32) in
           match Pagestore.Device.read_slot_any device (base + 1) with
           | `Valid (data, e')
             when e' > ceiling && Xutil.Crc32c.bytes data = get_u32 hdr 32 ->
             let phys =
               Bytes.make (Pagestore.Device.phys_size device) '\000'
             in
             Bytes.blit data 0 phys 0 page_size;
             Bytes.blit hdr 16 phys page_size
               (Pagestore.Device.phys_size device - page_size);
             Pagestore.Device.write_raw_slot device target phys;
             incr restored;
             Telemetry.incr c_journal_restored
           | _ -> raise Exit
         end
       | _ -> raise Exit
     done
   with Exit -> ());
  !restored

(* --- epoch-declaration page --- *)

let decl_magic = "SPNG"

let write_epoch_decl device epoch =
  let b = Bytes.make (Pagestore.Device.page_size device) '\000' in
  Bytes.blit_string decl_magic 0 b 0 4;
  set_u32 b 4 epoch;
  dev_write device epoch_page b

let read_epoch_decl device =
  match Pagestore.Device.read device epoch_page with
  | exception Spine_error.Error _ -> None
  | b ->
    if String.equal (Bytes.sub_string b 0 4) decl_magic then Some (get_u32 b 4)
    else None

(* --- metadata slots ---

   Slot layout (spanning whole pages from the slot base):
     +0   magic "SPNM"
     +4   u32 format version (3 or 4)
     +8   u32 generation
     +12  u32 commit epoch: every data page of this generation is
              stamped with an epoch <= this
     +16  u32 flags (bit 0 = written by a clean close)
     +20  u32 payload length
     +24  u32 CRC-32C of the payload
     +28  payload (symbols, length, table state, side tables; version 4
              appends the overflow labels whose keys need more than
              32 bits)

   The payload CRC guards the blob as a whole; each page additionally
   carries the device trailer, so a torn slot write is caught either
   way and reopen falls back to the other slot. *)

let meta_magic = "SPNM"

(* version 3: the sequence region switched from one byte per character
   to the packed-row word layout, and the payload gained the cell
   width.  Version 4 appends a section of overflow labels with keys of
   2^32 and up (the wide RT4 rows of {!Compact_store}); a version 3
   file has none and opens unchanged. *)
let meta_version = 4
let slot_header_bytes = 28

type slot_meta = {
  sm_generation : int;
  sm_commit_epoch : int;
  sm_clean : bool;
  sm_version : int;
  sm_payload : Bytes.t;
}

let write_slot device ~generation ~commit_epoch ~clean payload =
  let page_size = Pagestore.Device.page_size device in
  let total = slot_header_bytes + Bytes.length payload in
  if total > slot_pages * page_size then
    invalid_arg "Persistent: metadata exceeds slot capacity";
  let padded = (total + page_size - 1) / page_size * page_size in
  let all = Bytes.make padded '\000' in
  Bytes.blit_string meta_magic 0 all 0 4;
  set_u32 all 4 meta_version;
  set_u32 all 8 generation;
  set_u32 all 12 commit_epoch;
  set_u32 all 16 (if clean then 1 else 0);
  set_u32 all 20 (Bytes.length payload);
  set_u32 all 24 (Xutil.Crc32c.bytes payload);
  Bytes.blit payload 0 all slot_header_bytes (Bytes.length payload);
  let base = slot_base (generation land 1) in
  for k = 0 to (padded / page_size) - 1 do
    dev_write device (base + k) (Bytes.sub all (k * page_size) page_size)
  done

let read_slot device slot =
  let page_size = Pagestore.Device.page_size device in
  try
    let first = Pagestore.Device.read device (slot_base slot) in
    let magic = Bytes.sub_string first 0 4 in
    if String.equal magic "\000\000\000\000" then Error "slot never written"
    else if not (String.equal magic meta_magic) then
      Error "bad metadata magic"
    else begin
      let version = get_u32 first 4 in
      if version <> 3 && version <> meta_version then
        Error (Printf.sprintf "unsupported metadata version %d" version)
      else begin
        let generation = get_u32 first 8 in
        let commit_epoch = get_u32 first 12 in
        let flags = get_u32 first 16 in
        let len = get_u32 first 20 in
        let crc = get_u32 first 24 in
        if len < 0 || len > (slot_pages * page_size) - slot_header_bytes then
          Error (Printf.sprintf "implausible metadata length %d" len)
        else begin
          let payload = Bytes.create len in
          let copied = min len (page_size - slot_header_bytes) in
          Bytes.blit first slot_header_bytes payload 0 copied;
          let pos = ref copied in
          let page = ref (slot_base slot + 1) in
          while !pos < len do
            let b = Pagestore.Device.read device !page in
            let chunk = min page_size (len - !pos) in
            Bytes.blit b 0 payload !pos chunk;
            pos := !pos + chunk;
            incr page
          done;
          if Xutil.Crc32c.bytes payload <> crc then
            Error "metadata payload checksum mismatch"
          else
            Ok { sm_generation = generation; sm_commit_epoch = commit_epoch;
                 sm_clean = flags land 1 = 1; sm_version = version;
                 sm_payload = payload }
        end
      end
    end
  with Spine_error.Error e -> Error (Spine_error.to_string e)

(* --- metadata payload --- *)

let payload_bytes t =
  let buf = Buffer.create 1024 in
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
  (* overflow keys of 2^32 and up go to the version 4 section *)
  let wide k = k lsr 32 <> 0 in
  let overflow = t.core.P.overflow in
  let count p =
    Xutil.Int_tbl.fold (fun k _ n -> if p k then n + 1 else n) overflow 0
  in
  u32 (count (fun k -> not (wide k)));
  Xutil.Int_tbl.iter
    (fun k v -> if not (wide k) then begin u32 k; u32 v end)
    overflow;
  u32 (Xutil.Int_tbl.length t.core.P.anchors);
  Xutil.Int_tbl.iter (fun k v -> u32 k; u32 v) t.core.P.anchors;
  u32 (count wide);
  Xutil.Int_tbl.iter
    (fun k v -> if wide k then begin u32 k; u32 (k lsr 32); u32 v end)
    overflow;
  Buffer.to_bytes buf

(* Reset the capture window at a commit point (and on reopen): nothing
   is journaled yet, and the committed set becomes the used prefix of
   every data region.  Data regions are append-only byte tables whose
   rows are mutated in place, so an in-place overwrite can only ever
   target a page inside a used prefix — this set is exact. *)
let journal_commit_window t =
  let j = t.journal in
  Xutil.Int_tbl.reset j.j_journaled;
  j.j_next <- 0;
  Xutil.Int_tbl.reset j.j_committed;
  let page_size = Pagestore.Device.page_size t.device in
  let add base used =
    for k = 0 to ((used + page_size - 1) / page_size) - 1 do
      Xutil.Int_tbl.replace j.j_committed (base + k) ()
    done
  in
  let n = P.length t.core in
  add (region_base lt_region) ((n + 1) * Compact_store.lt_entry_bytes);
  for table = 0 to 3 do
    add (region_base (rt_region table)) (Paged_bytes.used t.core.P.rts.(table))
  done;
  add (region_base seq_region)
    (Bioseq.Packed_seq.packed_byte_length (P.sequence t.core))

(* A crashed session may have extended a region past the committed
   prefix.  Those pages hold no committed data (the journal only
   protects the prefix) but are stamped beyond the recovered ceiling,
   so a later append extending the table into one would fault its
   read-modify-write with a misleading [Corrupt].  Reset them to sealed
   zero pages at the session's fresh epoch.  Allocation is sequential,
   so debris forms a dense run just above the prefix: stop after
   [erase_hole_limit] consecutive holes, mirroring the scrub walk. *)
let erase_hole_limit = 64

let erase_stale_tail device ~base ~used_bytes =
  let page_size = Pagestore.Device.page_size device in
  let zero = Bytes.make page_size '\000' in
  let first = base + ((used_bytes + page_size - 1) / page_size) in
  let limit =
    min (base + data_span) (Pagestore.Device.physical_pages device)
  in
  let holes = ref 0 in
  let page = ref first in
  while !holes < erase_hole_limit && !page < limit do
    (match Pagestore.Device.verify_page device !page with
     | `Unwritten -> incr holes
     | `Ok _ -> holes := 0
     | `Stale _ | `Damaged _ ->
       holes := 0;
       Pagestore.Device.write device !page zero);
    incr page
  done

(* --- lifecycle --- *)

let create ?frames ?page_size ?pin_top_lt_pages ~path alphabet =
  let device, pool =
    make_pool ?frames ?page_size ?pin_top_lt_pages ~path ~truncate:true ()
  in
  let journal = journal_make device in
  Pagestore.Buffer_pool.set_writeback_hook pool
    (Some (journal_capture journal));
  Pagestore.Device.set_epoch device 1;
  Pagestore.Device.set_max_valid_epoch device 0;
  (* declare epoch 1 before any data write carries it *)
  write_epoch_decl device 1;
  let core = Paged_store.create pool alphabet in
  let seq_tab = Paged_store.table pool ~name:"seq" ~region:seq_region ~used:0 in
  { core; seq_tab; device; pool; journal; file_path = path;
    disk_width = Bioseq.Packed_seq.width (P.sequence core); generation = 0;
    closed = false }

(* Commit protocol: data pages first (journaling the preimage of any
   committed page they overwrite), then the new metadata generation
   into the inactive slot, then raise the committed-epoch ceiling and
   move to a fresh (pre-declared) epoch.  A crash at ANY point leaves
   either the old generation recoverable (its slot untouched, its
   ceiling unchanged, its overwritten pages restorable from the
   journal) or the new one fully written. *)
let flush_internal t ~clean =
  Telemetry.with_span s_flush (fun () ->
      Pagestore.Buffer_pool.flush t.pool;
      let e = Pagestore.Device.epoch t.device in
      let gen = t.generation + 1 in
      write_slot t.device ~generation:gen ~commit_epoch:e ~clean
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

let open_ ?frames ?pin_top_lt_pages ~path () =
  Telemetry.with_span s_open @@ fun () ->
  if not (Sys.file_exists path) then
    Spine_error.io_failed ~op:Spine_error.Read "Persistent.open_: %s does not exist"
      path;
  let device, pool =
    make_pool ?frames ?pin_top_lt_pages ~path ~truncate:false ()
  in
  let journal = journal_make device in
  Pagestore.Buffer_pool.set_writeback_hook pool
    (Some (journal_capture journal));
  try
    (* read both shadow slots and the epoch declaration while epoch
       validation is still disabled: all three may carry epochs from
       sessions later than the one we will recover to *)
    let slot_a = read_slot device 0 in
    let slot_b = read_slot device 1 in
    let candidates =
      List.filter_map (function Ok m -> Some m | Error _ -> None)
        [ slot_a; slot_b ]
    in
    let m =
      match candidates with
      | [] ->
        let reason = function Error e -> e | Ok _ -> "valid" in
        Spine_error.raise_error
          (Spine_error.Corrupt
             { region = "meta"; page = 0;
               detail =
                 Printf.sprintf "no recoverable metadata (slot A: %s; slot B: %s)"
                   (reason slot_a) (reason slot_b) })
      | first :: rest ->
        List.fold_left
          (fun best c ->
            if c.sm_generation > best.sm_generation then c else best)
          first rest
    in
    (* undo the in-place overwrites a crashed session performed on
       committed pages after its last commit: every journal entry
       stamped beyond the recovered commit epoch holds the committed
       preimage of its target, so restoring them puts the flushed
       generation back on disk byte for byte *)
    let (_restored : int) =
      journal_rollback device ~ceiling:m.sm_commit_epoch
    in
    (* every epoch any crashed session may have stamped pages with is
       bounded by what the declaration page and the slots record; +2
       clears both the recovered ceiling and a torn declaration *)
    let hints =
      (match read_epoch_decl device with Some e -> [ e ] | None -> [])
      @ List.map (fun c -> c.sm_commit_epoch) candidates
    in
    let current = List.fold_left max 0 hints + 2 in
    Pagestore.Device.set_max_valid_epoch device m.sm_commit_epoch;
    Pagestore.Device.set_epoch device current;
    write_epoch_decl device current;
    (* parse the payload *)
    let data = m.sm_payload in
    let pos = ref 0 in
    let u8 () =
      if !pos >= Bytes.length data then
        Spine_error.corrupt ~region:"meta" ~page:(slot_base (m.sm_generation land 1))
          "metadata payload truncated at byte %d" !pos;
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
      if n < 0 || !pos + n > Bytes.length data then
        Spine_error.corrupt ~region:"meta" ~page:(slot_base (m.sm_generation land 1))
          "metadata payload truncated at byte %d" !pos;
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
    let n = u32 () in
    let width = u32 () in
    if width <> 2 && width <> 4 && width <> 8 then
      Spine_error.corrupt ~region:"meta"
        ~page:(slot_base (m.sm_generation land 1))
        "implausible sequence cell width %d" width;
    let seq_bytes =
      let cpw = 62 / width in
      (n + cpw - 1) / cpw * 8
    in
    let rt_used = Array.make 4 0 in
    let freelist = Array.make 4 0 in
    let live_rows = Array.make 4 0 in
    for table = 0 to 3 do
      rt_used.(table) <- u32 ();
      freelist.(table) <- u32 ();
      live_rows.(table) <- u32 ()
    done;
    let migrations = u32 () in
    let overflow = Xutil.Int_tbl.create 16 in
    let n_ov = u32 () in
    for _ = 1 to n_ov do
      let k = u32 () in
      Xutil.Int_tbl.replace overflow k (u32 ())
    done;
    let anchors = Xutil.Int_tbl.create 16 in
    let n_an = u32 () in
    for _ = 1 to n_an do
      let k = u32 () in
      Xutil.Int_tbl.replace anchors k (u32 ())
    done;
    if m.sm_version >= 4 then
      for _ = 1 to u32 () do
        let lo = u32 () in
        let k = lo lor (u32 () lsl 32) in
        Xutil.Int_tbl.replace overflow k (u32 ())
      done;
    (* clear crash debris beyond each region's committed prefix so this
       session's own appends can extend the tables into those pages *)
    if Pagestore.Device.checksums device then begin
      erase_stale_tail device ~base:(region_base lt_region)
        ~used_bytes:((n + 1) * Compact_store.lt_entry_bytes);
      for table = 0 to 3 do
        erase_stale_tail device ~base:(region_base (rt_region table))
          ~used_bytes:rt_used.(table)
      done;
      erase_stale_tail device ~base:(region_base seq_region)
        ~used_bytes:seq_bytes
    end;
    (* rebuild the in-memory sequence mirror from the packed region —
       the raw words, no per-code re-decoding; with the ceiling
       restored above, any crash debris page this touches surfaces as a
       typed Corrupt instead of phantom characters *)
    let seq_tab =
      Paged_store.table pool ~name:"seq" ~region:seq_region ~used:seq_bytes
    in
    let packed = Bytes.create seq_bytes in
    for off = 0 to seq_bytes - 1 do
      Bytes.set packed off (Char.chr (Paged_bytes.get_u8 seq_tab off))
    done;
    let seq =
      try Bioseq.Packed_seq.of_packed_bits alphabet ~len:n ~width packed
      with Invalid_argument _ ->
        Spine_error.corrupt ~region:"seq" ~page:(region_base seq_region)
          "packed sequence region decodes outside the alphabet"
    in
    let lt, rts =
      Paged_store.tables pool
        ~lt_used:((n + 1) * Compact_store.lt_entry_bytes) ~rt_used
    in
    let core =
      P.make ~freelist ~live_rows ~overflow ~anchors ~migrations ~seq ~lt ~rts
        alphabet
    in
    let t =
      { core; seq_tab; device; pool; journal; file_path = path;
        disk_width = width; generation = m.sm_generation; closed = false }
    in
    (* the recovered prefix is the committed state the journal must now
       protect against this session's own in-place overwrites *)
    journal_commit_window t;
    t
  with e ->
    Pagestore.Device.close device;
    raise e

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
    ~caps:{ Engine.backend = Persistent; persistent = true; paged = true }
    (module P : Store_sig.S with type t = P.t)
    t.core

let store t = t.core
let device t = t.device
let pool t = t.pool

(* --- scrub: integrity walk and damage report --- *)

type slot_state =
  | Slot_valid of { generation : int; commit_epoch : int; clean : bool }
  | Slot_invalid of string

type region_report = {
  region : string;
  scanned : int;
  ok : int;
  unwritten : int;
  damaged : (int * string) list;  (* page, diagnosis *)
  stale : (int * int) list;       (* page, epoch beyond the ceiling *)
}

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

(* Data regions are append-only byte tables, so written pages form a
   dense prefix of each region; scanning stops after a run of holes
   instead of walking a gigabyte of sparse address space per region. *)
let hole_run_limit = 64

let scan_region ?(stale_ok = false) device ~name ~base ~span =
  let cap = Pagestore.Device.physical_pages device in
  let limit = min span (max 0 (cap - base)) in
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
       (* [stale_ok] regions live beyond the ceiling BY DESIGN: the
          declaration page is one epoch ahead, and journal entries are
          only meaningful while their epoch exceeds it; everywhere else
          a beyond-ceiling epoch is debris from a crashed session *)
       if stale_ok then incr ok
       else stale := (base + !page, e) :: !stale
     | `Damaged d ->
       holes := 0;
       damaged := (base + !page, d) :: !damaged);
    incr page
  done;
  { region = name; scanned = !page; ok = !ok; unwritten = !unwritten;
    damaged = List.rev !damaged; stale = List.rev !stale }

let run_scrub ?(retune = true) device path =
  Telemetry.with_span s_scrub @@ fun () ->
  let slot_a = read_slot device 0 in
  let slot_b = read_slot device 1 in
  let state = function
    | Ok m ->
      Slot_valid
        { generation = m.sm_generation; commit_epoch = m.sm_commit_epoch;
          clean = m.sm_clean }
    | Error e -> Slot_invalid e
  in
  let candidates =
    List.filter_map (function Ok m -> Some m | Error _ -> None)
      [ slot_a; slot_b ]
  in
  let best =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some b when b.sm_generation >= c.sm_generation -> acc
        | _ -> Some c)
      None candidates
  in
  (* Offline scrub tunes the epoch check from the recovered metadata; a
     live [verify] keeps the session's own settings (its uncommitted
     pages carry the current epoch and must stay valid). *)
  (if retune then
     match best with
     | Some m ->
       let hints =
         (match read_epoch_decl device with Some e -> [ e ] | None -> [])
         @ List.map (fun c -> c.sm_commit_epoch) candidates
       in
       Pagestore.Device.set_max_valid_epoch device m.sm_commit_epoch;
       (* an epoch no page can carry: pure ceiling check, nothing exempt *)
       Pagestore.Device.set_epoch device (List.fold_left max 0 hints + 2)
     | None -> ());
  let regions =
    [ scan_region device ~name:"meta/slot-a" ~base:(slot_base 0)
        ~span:slot_pages;
      scan_region device ~name:"meta/slot-b" ~base:(slot_base 1)
        ~span:slot_pages;
      scan_region ~stale_ok:true device ~name:"meta/epoch" ~base:epoch_page
        ~span:1;
      scan_region device ~name:"lt" ~base:(region_base lt_region)
        ~span:data_span;
      scan_region device ~name:"rt0" ~base:(region_base (rt_region 0))
        ~span:data_span;
      scan_region device ~name:"rt1" ~base:(region_base (rt_region 1))
        ~span:data_span;
      scan_region device ~name:"rt2" ~base:(region_base (rt_region 2))
        ~span:data_span;
      scan_region device ~name:"rt3" ~base:(region_base (rt_region 3))
        ~span:data_span;
      scan_region device ~name:"seq" ~base:(region_base seq_region)
        ~span:data_span;
      scan_region ~stale_ok:true device ~name:"journal" ~base:journal_base
        ~span:data_span ]
  in
  let damaged_pages =
    List.fold_left (fun acc r -> acc + List.length r.damaged) 0 regions
  in
  let stale_pages =
    List.fold_left (fun acc r -> acc + List.length r.stale) 0 regions
  in
  { report_path = path;
    report_generation =
      (match best with Some m -> m.sm_generation | None -> -1);
    report_commit_epoch =
      (match best with Some m -> m.sm_commit_epoch | None -> -1);
    report_clean = (match best with Some m -> m.sm_clean | None -> false);
    slots = [ (0, state slot_a); (1, state slot_b) ];
    regions; damaged_pages; stale_pages }

let verify t =
  check_open t;
  run_scrub ~retune:false t.device t.file_path

let scrub ?(page_size = 4096) ~path () =
  if not (Sys.file_exists path) then
    Spine_error.io_failed ~op:Spine_error.Read "Persistent.scrub: %s does not exist"
      path;
  let device =
    Pagestore.Device.create_file ~checksums:true ~page_size ~path ()
  in
  Pagestore.Device.set_region_namer device region_name;
  let result =
    try run_scrub device path
    with e -> Pagestore.Device.close device; raise e
  in
  Pagestore.Device.close device;
  result
