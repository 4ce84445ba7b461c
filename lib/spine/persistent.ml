module Paged_bytes = Pagestore.Paged_bytes
module P = Paged_store.P

(* Build-phase spans over the disk-resident index lifecycle. *)
let s_build = Telemetry.span "persistent.build"
let s_flush = Telemetry.span "persistent.flush"
let s_open = Telemetry.span "persistent.open"
let s_scrub = Telemetry.span "persistent.scrub"

type t = {
  core : P.t;
  seq_tab : Paged_bytes.t;
      (* the vertebra codes: byte for byte the row's [packed_bits],
         whose layout [Packed_seq] alone knows *)
  side : Side_log.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
  journal : Preimage_journal.t;
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
  Pagestore.Device.set_region_namer device Region_map.region_name;
  (match Pagestore.Fault_device.of_env () with
   | Some plan -> Pagestore.Fault_device.attach plan device
   | None -> ());
  (device, Pagestore.Buffer_pool.create ~frames device)

let seq_table pool ~used = Region_map.table pool Region_map.seq ~used

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

(* The state a commit of the live handle records. *)
let payload t =
  let c = t.core in
  { Meta_slot.alphabet = P.alphabet c;
    length = P.length c;
    width = t.disk_width;
    rt_used = Array.map Paged_bytes.used c.P.rts;
    freelist = c.P.freelist;
    live_rows = c.P.live_rows;
    migrations = c.P.migrations;
    side_records = Side_log.records t.side;
    side_half = Side_log.half t.side }

let committed_pages ~page_size p =
  Region_map.prefix_pages ~page_size (Meta_slot.committed_bytes p)

(* Reset the capture window at a commit point (and on reopen): nothing
   is journaled yet, and the committed pages of each table are its used
   prefix.  Data regions are append-only byte tables whose rows are
   mutated in place, so an in-place overwrite can only ever target a
   page inside a used prefix — these bounds are exact. *)
let commit_window t =
  let page_size = Pagestore.Device.page_size t.device in
  Preimage_journal.reset t.journal (committed_pages ~page_size (payload t));
  Side_log.commit t.side

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
  let slots = [| Meta_slot.read device 0; Meta_slot.read device 1 |] in
  let valid = List.filter_map Result.to_option (Array.to_list slots) in
  let newest =
    List.fold_left
      (fun acc (c : Meta_slot.slot) ->
        match acc with
        | Some (b : Meta_slot.slot) when b.generation >= c.generation -> acc
        | _ -> Some c)
      None valid
  in
  (if retune then
     match newest with
     | Some m ->
       let hints =
         Option.to_list (Meta_slot.read_epoch_decl device)
         @ List.map (fun (c : Meta_slot.slot) -> c.commit_epoch) valid
       in
       Pagestore.Device.set_max_valid_epoch device m.commit_epoch;
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
let scan_region ?(from = 0) ?(committed = 0) device (r : Region_map.region) =
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
   session may have compacted the log into — and so does a walk of the
   [spare] metadata slot, the one the recovered generation is not in,
   where a crash may have torn the next generation's write; reset them
   to sealed zero pages at the session's fresh epoch. *)
let erase_debris device ~spare committed =
  let zero = Bytes.make (Pagestore.Device.page_size device) '\000' in
  Array.iteri
    (fun i (r : Region_map.region) ->
      if Option.is_some r.table || r.first = spare.Region_map.first then begin
        let report = scan_region ~from:committed.(i) device r in
        List.iter
          (fun page -> Pagestore.Buffer_pool.write_pages device page zero)
          (List.sort Int.compare
             (List.map fst report.stale @ List.map fst report.damaged))
      end)
    Region_map.regions

(* --- lifecycle --- *)

let make_t ~core ~seq_tab ~side ~device ~pool ~path ~width ~generation =
  let journal = Preimage_journal.create device in
  let t =
    { core; seq_tab; side; device; pool; journal; file_path = path;
      disk_width = width; generation; closed = false }
  in
  Pagestore.Buffer_pool.set_writeback_hook pool
    (Some (fun page -> Preimage_journal.capture journal [| page |]));
  (* every committed page was written: a hole among them is damage *)
  Pagestore.Device.set_committed device
    (Region_map.in_prefix (Preimage_journal.committed journal));
  P.set_side_hook core (Side_log.append side core);
  t

(* A new file holding no generation yet: the page-size stamp, and
   epoch 1 declared before any data write carries it. *)
let new_file ?frames ?page_size ~path () =
  let device, pool = make_pool ?frames ?page_size ~path ~truncate:true () in
  (* the stamp is sealed at epoch 0, which no ceiling rejects *)
  Pagestore.Device.set_epoch device 0;
  Meta_slot.write_page_size_stamp device;
  Pagestore.Device.set_epoch device 1;
  Pagestore.Device.set_max_valid_epoch device 0;
  Meta_slot.write_epoch_decl device 1;
  (device, pool)

let create ?frames ?page_size ~path alphabet =
  let device, pool = new_file ?frames ?page_size ~path () in
  let core = Paged_store.create pool alphabet in
  make_t ~core ~seq_tab:(seq_table pool ~used:0) ~side:(Side_log.create pool)
    ~device ~pool ~path
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
  let write (r : Region_map.region) src ~pos ~len =
    if len > r.span * ps then
      Spine_error.raise_error
        (Spine_error.Region_full { region = r.name; capacity = r.span * ps });
    Pagestore.Buffer_pool.write_pages device r.first src ~pos ~len
  in
  let write_tab r tab =
    C.Btab.read_record tab ~off:0 ~len:(used tab) (fun b pos ->
        write r b ~pos ~len:(used tab))
  in
  Array.iter
    (fun (r : Region_map.region) ->
      match r.table with
      | Some Lt -> write_tab r c.C.lt
      | Some (Rt i) -> write_tab r c.C.rts.(i)
      | Some Seq ->
        let bits = Bioseq.Packed_seq.packed_bits seq in
        write r bits ~pos:0 ~len:(Bytes.length bits)
      | Some (Side _) | None -> ())
    Region_map.regions;
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
      ~side:(Side_log.create pool) ~device ~pool ~path
      ~width:(Bioseq.Packed_seq.width seq) ~generation:0
  in
  Side_log.fill t.side t.core;
  t

(* Every page a commit takes into a table's committed prefix must be
   on the file, so that a hole there reads as damage.  A page no write
   reached (the untouched tail of a table's last row) goes out as a
   sealed zero page, which it reads as.  Pages of the old prefix are
   on the file already, and those above it that are, this session
   wrote: a crashed session's debris there was erased on reopen. *)
let fill_prefix t =
  let page_size = Pagestore.Device.page_size t.device in
  let fresh = committed_pages ~page_size (payload t) in
  let committed = Preimage_journal.committed t.journal in
  let zero = Bytes.make page_size '\000' in
  Array.iteri
    (fun i (r : Region_map.region) ->
      for k = committed.(i) to fresh.(i) - 1 do
        if not (Pagestore.Device.written t.device (r.first + k)) then
          Pagestore.Buffer_pool.write_pages t.device (r.first + k) zero
      done)
    Region_map.regions

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
      Side_log.compact_if_long t.side t.core;
      Preimage_journal.capture t.journal
        (Pagestore.Buffer_pool.dirty_pages t.pool);
      Pagestore.Buffer_pool.flush t.pool;
      fill_prefix t;
      let e = Pagestore.Device.epoch t.device in
      let gen = t.generation + 1 in
      Meta_slot.write t.device ~generation:gen ~commit_epoch:e ~clean
        ~separator:(separator_layout t.core.P.lo (P.alphabet t.core))
        (payload t);
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
      commit_window t;
      Meta_slot.write_epoch_decl t.device (e + 1))

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
  let page_size = Meta_slot.recorded_page_size path in
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
    let ceiling = m.commit_epoch in
    if read_only then begin
      if Option.is_some (Preimage_journal.entry device ~ceiling 0) then
        Spine_error.io_failed ~op:Spine_error.Read
          "%s: a crashed session's overwrites must be rolled back first; \
           open the file for writing (spine scrub --deep) to recover it"
          path
    end
    else begin
      (* declare the fresh epoch before any write carries it *)
      Meta_slot.write_epoch_decl device (Pagestore.Device.epoch device);
      (* undo the in-place overwrites a crashed session performed on
         committed pages after its last commit: every journal entry
         stamped beyond the recovered commit epoch holds the committed
         preimage of its target, so restoring them puts the flushed
         generation back on disk byte for byte *)
      ignore (Preimage_journal.rollback device ~ceiling : int)
    end;
    let p = Meta_slot.decode_payload ~page_size m in
    (* every committed page was written: a hole among them is damage *)
    Pagestore.Device.set_committed device
      (Region_map.in_prefix (committed_pages ~page_size p));
    (* rebuild the in-memory sequence mirror from the packed region —
       the raw words, no per-code re-decoding; with the ceiling
       restored above, any crash debris page this touches surfaces as a
       typed Corrupt instead of phantom characters *)
    let seq_tab =
      seq_table pool ~used:(Meta_slot.committed_bytes p Region_map.Seq)
    in
    let seq =
      try
        Bioseq.Packed_seq.of_packed_bits p.alphabet ~len:p.length ~width:p.width
          (table_bytes ~page_size seq_tab)
      with Invalid_argument _ ->
        Spine_error.corrupt ~region:Region_map.seq.name
          ~page:Region_map.seq.first
          "packed sequence region decodes outside the alphabet"
    in
    let side, overflow, anchors =
      Side_log.replay pool ~half:p.side_half ~records:p.side_records
    in
    let lt, rts =
      Paged_store.tables pool
        ~lt_used:(Meta_slot.committed_bytes p Region_map.Lt) ~rt_used:p.rt_used
    in
    let core =
      P.make ~freelist:p.freelist ~live_rows:p.live_rows ~overflow ~anchors
        ~migrations:p.migrations ~separator:m.separator ~seq ~lt ~rts
        p.alphabet
    in
    let t =
      make_t ~core ~seq_tab ~side ~device ~pool ~path ~width:p.width
        ~generation:m.generation
    in
    (* the recovered prefix is the committed state the journal must now
       protect against this session's own in-place overwrites; clear
       crash debris beyond it so this session's own appends can extend
       the tables into those pages *)
    commit_window t;
    if not read_only then
      erase_debris device
        ~spare:(Region_map.slot (1 - (m.generation land 1)))
        (Preimage_journal.committed t.journal);
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
  Paged_store.append t.core code;
  if Bioseq.Packed_seq.width seq <> t.disk_width then rewrite_seq_region t
  else
    (* mirror the one byte the new code changed, as the row holds it *)
    let off, v = Bioseq.Packed_seq.last_code_byte seq in
    Paged_bytes.set_u8 t.seq_tab off v

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
    | Ok (m : Meta_slot.slot) ->
      Slot_valid
        { generation = m.generation; commit_epoch = m.commit_epoch;
          clean = m.clean }
    | Error e -> Slot_invalid e
  in
  (* a committed page is scanned even past the file's end *)
  let none = Array.make (Array.length Region_map.regions) 0 in
  let committed =
    match newest with
    | Some m -> (
      let page_size = Pagestore.Device.page_size device in
      match Meta_slot.decode_payload ~page_size m with
      | p -> committed_pages ~page_size p
      | exception Spine_error.Error _ -> none)
    | None -> none
  in
  if not live then
    Pagestore.Device.set_committed device (Region_map.in_prefix committed);
  let regions =
    Array.to_list
      (Array.mapi
         (fun i r -> scan_region ~committed:committed.(i) device r)
         Region_map.regions)
  in
  let count pages =
    List.fold_left (fun acc r -> acc + List.length (pages r)) 0 regions
  in
  let newest_or default f = Option.fold ~none:default ~some:f newest in
  { report_path = path;
    report_generation = newest_or (-1) (fun m -> m.generation);
    report_commit_epoch = newest_or (-1) (fun m -> m.commit_epoch);
    report_clean = newest_or false (fun m -> m.clean);
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
  let page_size =
    Option.value (Meta_slot.recorded_page_size path) ~default:4096
  in
  let device =
    Pagestore.Device.create_file ~checksums:true ~read_only:true ~page_size
      ~path ()
  in
  Pagestore.Device.set_region_namer device Region_map.region_name;
  let result =
    try run_scrub ~live:false device path
    with e -> Pagestore.Device.close device; raise e
  in
  Pagestore.Device.close device;
  result
