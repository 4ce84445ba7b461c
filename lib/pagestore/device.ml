(* Device-level telemetry: page and byte traffic are [Probe] events,
   aggregated across every device a run creates (the per-device [stats]
   record stays the scoped view); integrity failures are rare and keep
   counters of their own. *)
let c_crc_errors = Telemetry.counter "device.crc_errors"
let c_stale_epochs = Telemetry.counter "device.stale_epochs"

type cost = {
  read_us : float;
  write_us : float;
  sequential_us : float;
  sync_us : float;
}

let default_cost =
  { read_us = 8000.0; write_us = 9000.0; sequential_us = 100.0; sync_us = 4000.0 }

type backend =
  | Mem of Bytes.t Xutil.Int_tbl.t
  | File of Unix.file_descr

(* Verdict a fault hook renders on an outgoing physical page image. *)
type write_fault =
  | Write_through
  | Tampered of Bytes.t
  | Torn of int
  | Dropped

type hooks = {
  on_read : page:int -> unit;
  on_write : page:int -> phys:Bytes.t -> write_fault;
}

(* Checksummed devices append a 16-byte trailer to every page:
     +0  u32  magic "SPCK"
     +4  u32  epoch the page was written under
     +8  u32  CRC-32C over data + magic + epoch
     +12 u32  reserved (zero)
   An all-zero trailer marks a never-written (hole) page. *)
let trailer_bytes = 16
let trailer_magic = 0x4B435053 (* "SPCK" little-endian *)

type t = {
  page_size : int;
  sync_writes : bool;
  checksums : bool;
  backend : backend;
  mutable epoch : int;            (* stamp applied to outgoing pages *)
  mutable max_valid_epoch : int;  (* committed ceiling; -1 = no check *)
  mutable region_of : int -> string;
  mutable committed : int -> bool;  (* pages that must have been written *)
  mutable hooks : hooks option;
  mutable allocated : int;      (* distinct pages written (file backend) *)
  written : unit Xutil.Int_tbl.t;
  mutable last_page : int;      (* previously accessed page, -2 = none *)
  mutable reads : int;
  mutable writes : int;
  mutable sequential : int;
  mutable elapsed_us : float;
}

let make ?(sync_writes = false) ?(checksums = false) ~page_size backend =
  if page_size <= 0 then invalid_arg "Device.create: page_size must be positive";
  { page_size; sync_writes; checksums; backend;
    epoch = 1; max_valid_epoch = -1;
    region_of = (fun _ -> "data");
    committed = (fun _ -> false);
    hooks = None;
    allocated = 0;
    written = Xutil.Int_tbl.create 1024;
    last_page = -2; reads = 0; writes = 0; sequential = 0; elapsed_us = 0.0 }

let create ?sync_writes ?checksums ~page_size () =
  make ?sync_writes ?checksums ~page_size (Mem (Xutil.Int_tbl.create 1024))

let create_file ?sync_writes ?checksums ?(read_only = false) ~page_size
    ~path () =
  let flags =
    if read_only then [ Unix.O_RDONLY ] else [ Unix.O_RDWR; Unix.O_CREAT ]
  in
  let fd =
    try Unix.openfile path flags 0o644
    with Unix.Unix_error (err, _, _) ->
      Spine_error.io_failed ~op:Spine_error.Read "%s: %s" path
        (Unix.error_message err)
  in
  make ?sync_writes ?checksums ~page_size (File fd)

let close t =
  match t.backend with
  | Mem _ -> ()
  | File fd -> Unix.close fd

let page_size t = t.page_size
let phys_size t = if t.checksums then t.page_size + trailer_bytes else t.page_size

let epoch t = t.epoch
let set_epoch t e = t.epoch <- e
let set_max_valid_epoch t e = t.max_valid_epoch <- e
let set_region_namer t f = t.region_of <- f
let set_committed t f = t.committed <- f
let set_hooks t h = t.hooks <- h
let hooks t = t.hooks

let charge t page full_cost =
  let sequential = page = t.last_page || page = t.last_page + 1 in
  if sequential then begin
    t.sequential <- t.sequential + 1;
    t.elapsed_us <- t.elapsed_us +. default_cost.sequential_us
  end
  else t.elapsed_us <- t.elapsed_us +. full_cost;
  t.last_page <- page

(* raw physical-slot transfer, below checksums and fault injection *)

(* the physical slots of pages [page .. page + n - 1], concatenated *)
let read_phys_run t page n =
  let size = phys_size t in
  match t.backend with
  | Mem pages ->
    let buf = Bytes.make (n * size) '\000' in
    for k = 0 to n - 1 do
      match Xutil.Int_tbl.find_opt pages (page + k) with
      | Some data -> Bytes.blit data 0 buf (k * size) size
      | None -> ()
    done;
    buf
  | File fd ->
    let buf = Bytes.make (n * size) '\000' in
    (try
       ignore (Unix.lseek fd (page * size) Unix.SEEK_SET);
       (* short reads (holes / EOF) leave the zero fill in place *)
       let rec fill off =
         if off < n * size then begin
           let k = Unix.read fd buf off ((n * size) - off) in
           if k > 0 then fill (off + k)
         end
       in
       fill 0
     with Unix.Unix_error (err, _, _) ->
       Spine_error.io_failed ~op:Spine_error.Read ~page "%s"
         (Unix.error_message err));
    buf

let read_phys t page = read_phys_run t page 1

(* [count] consecutive physical slots from [page] on, packed in [buf];
   only the slots with [keep.(k)] set are stored, one positioned write
   per contiguous stretch of them *)
let write_phys_run t page buf keep count =
  let size = phys_size t in
  let k = ref 0 in
  while !k < count do
    if not keep.(!k) then incr k
    else begin
      let first = !k in
      while !k < count && keep.(!k) do
        if not (Xutil.Int_tbl.mem t.written (page + !k)) then
          Xutil.Int_tbl.replace t.written (page + !k) ();
        incr k
      done;
      match t.backend with
      | Mem pages ->
        for j = first to !k - 1 do
          Xutil.Int_tbl.replace pages (page + j) (Bytes.sub buf (j * size) size)
        done
      | File fd ->
        (try
           ignore (Unix.lseek fd ((page + first) * size) Unix.SEEK_SET);
           let stop = !k * size in
           let rec drain off =
             if off < stop then drain (off + Unix.write fd buf off (stop - off))
           in
           drain (first * size)
         with Unix.Unix_error (err, _, _) ->
           Spine_error.io_failed ~op:Spine_error.Write ~page:(page + first)
             "%s" (Unix.error_message err))
    end
  done

let write_phys t page phys = write_phys_run t page phys [| true |] 1

(* trailer assembly / validation *)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* the sealed physical image of [data], at [off] in [buf] *)
let seal_into t data buf off =
  let ps = t.page_size in
  Bytes.blit data 0 buf off ps;
  set_u32 buf (off + ps) trailer_magic;
  set_u32 buf (off + ps + 4) t.epoch;
  set_u32 buf (off + ps + 8) (Xutil.Crc32c.digest buf ~pos:off ~len:(ps + 8));
  set_u32 buf (off + ps + 12) 0

let seal t data =
  let phys = Bytes.create (t.page_size + trailer_bytes) in
  seal_into t data phys 0;
  phys

let all_zero b lo hi =
  let rec go i = i >= hi || (Char.equal (Bytes.get b i) '\000' && go (i + 1)) in
  go lo

(* Classify a physical slot without raising: shared by [read] (which
   turns damage into typed errors) and the scrub walk (which reports). *)
let inspect t page phys =
  let ps = t.page_size in
  if all_zero phys ps (ps + trailer_bytes) then
    if not (all_zero phys 0 ps) then
      `Damaged "nonzero data in a page with no trailer"
    else if t.committed page then
      `Damaged "never written, inside committed data (a hole or a cut file)"
    else `Unwritten
  else begin
    let magic = get_u32 phys ps in
    let e = get_u32 phys (ps + 4) in
    let crc = get_u32 phys (ps + 8) in
    if magic <> trailer_magic then
      `Damaged (Printf.sprintf "bad trailer magic 0x%08x" magic)
    else if Xutil.Crc32c.digest phys ~pos:0 ~len:(ps + 8) <> crc then
      `Damaged "checksum mismatch"
    else if t.max_valid_epoch >= 0 && e > t.max_valid_epoch && e <> t.epoch
    then `Stale e
    else `Ok e
  end

let unseal t page phys =
  match inspect t page phys with
  | `Unwritten | `Ok _ -> Bytes.sub phys 0 t.page_size
  | `Damaged detail ->
    Telemetry.incr c_crc_errors;
    if Trace.on () then
      Trace.instant "device.crc_error" [ Trace.Int ("page", page) ];
    Spine_error.raise_error
      (Spine_error.Corrupt { region = t.region_of page; page; detail })
  | `Stale e ->
    Telemetry.incr c_stale_epochs;
    if Trace.on () then
      Trace.instant "device.stale_epoch"
        [ Trace.Int ("page", page); Trace.Int ("epoch", e) ];
    Spine_error.raise_error
      (Spine_error.Corrupt
         { region = t.region_of page; page;
           detail =
             Printf.sprintf
               "page written at epoch %d, beyond the committed ceiling %d \
                (debris from a crashed session)"
               e t.max_valid_epoch })

let read t page =
  t.reads <- t.reads + 1;
  Probe.add Probe.device_read 1;
  Probe.add Probe.device_read_bytes t.page_size;
  if Trace.on () then
    Trace.instant "device.read"
      [ Trace.Int ("page", page); Trace.Int ("bytes", t.page_size) ];
  charge t page default_cost.read_us;
  (match t.hooks with Some h -> h.on_read ~page | None -> ());
  let phys = read_phys t page in
  if t.checksums then unseal t page phys else phys

(* One outgoing page's accounting, identical for a single write and
   for each page of a run. *)
let count_write t page =
  t.writes <- t.writes + 1;
  Probe.add Probe.device_write 1;
  Probe.add Probe.device_write_bytes t.page_size;
  if Trace.on () then
    Trace.instant "device.write"
      [ Trace.Int ("page", page); Trace.Int ("bytes", t.page_size) ];
  charge t page default_cost.write_us;
  if t.sync_writes then t.elapsed_us <- t.elapsed_us +. default_cost.sync_us

(* What a write of the physical image [phys] leaves in page [page]'s
   slot once the fault hook has ruled on it; [None] when the write is
   lost.  A hook may also raise, failing the write. *)
let landed t page phys =
  match t.hooks with
  | None -> Some phys
  | Some h ->
    (match h.on_write ~page ~phys with
     | Write_through -> Some phys
     | Tampered b -> Some b
     | Dropped -> None
     | Torn keep ->
       (* first [keep] physical bytes land; the rest of the slot keeps
          its previous content — a torn sector write.  [keep] comes from
          user-controlled fault plans, so clamp it into the slot. *)
       let old = read_phys t page in
       let keep = Int.min (Int.max 0 keep) (Bytes.length old) in
       Bytes.blit phys 0 old 0 keep;
       Some old)

let check_page t data what =
  if Bytes.length data <> t.page_size then
    invalid_arg ("Device." ^ what ^ ": data is not exactly one page")

(* [what] names the caller in the one-page check's message *)
let write_pages what t page datas =
  let n = Array.length datas in
  let size = phys_size t in
  let buf = Bytes.create (n * size) in
  let keep = Array.make n false in
  let failure = ref None in
  let k = ref 0 in
  while Option.is_none !failure && !k < n do
    let data = datas.(!k) and p = page + !k in
    check_page t data what;
    count_write t p;
    let off = !k * size in
    (match t.hooks with
     | None ->
       if t.checksums then seal_into t data buf off
       else Bytes.blit data 0 buf off size;
       keep.(!k) <- true
     | Some _ ->
       let phys = if t.checksums then seal t data else Bytes.copy data in
       (match landed t p phys with
        | Some phys ->
          Bytes.blit phys 0 buf off size;
          keep.(!k) <- true
        | None -> ()
        | exception e -> failure := Some e));
    if Option.is_none !failure then incr k
  done;
  (* the pages before a failed one are stored, as single writes would
     have left them *)
  write_phys_run t page buf keep !k;
  match !failure with None -> Ok () | Some e -> Error (!k, e)

let write_run = write_pages "write_run"

(* a single page is a run of one *)
let write t page data =
  match write_pages "write" t page [| data |] with
  | Ok () -> ()
  | Error (_, e) -> raise e

(* raw physical-slot access: the preimage-journal primitives.  These
   bypass sealing, validation and fault hooks — they exist so a
   transaction layer can copy a slot exactly as it is on disk and later
   put those exact bytes back (restoring the original epoch stamp), and
   so recovery can read journal entries whose epochs are deliberately
   beyond the committed ceiling.  Cost accounting still applies: a
   capture or restore pays the same simulated latency as any other
   page transfer. *)

let count_raw_read t page =
  t.reads <- t.reads + 1;
  Probe.add Probe.device_read 1;
  Probe.add Probe.device_read_bytes t.page_size;
  charge t page default_cost.read_us

let raw_slot t page =
  count_raw_read t page;
  read_phys t page

let raw_run t page n =
  for k = 0 to n - 1 do count_raw_read t (page + k) done;
  read_phys_run t page n

let write_raw_slot t page phys =
  if Bytes.length phys <> phys_size t then
    invalid_arg "Device.write_raw_slot: not exactly one physical slot";
  t.writes <- t.writes + 1;
  Probe.add Probe.device_write 1;
  Probe.add Probe.device_write_bytes t.page_size;
  charge t page default_cost.write_us;
  if t.sync_writes then t.elapsed_us <- t.elapsed_us +. default_cost.sync_us;
  write_phys t page phys

let read_slot_any t page =
  if not t.checksums then `Invalid
  else begin
    let phys = raw_slot t page in
    match inspect t page phys with
    | `Ok e | `Stale e -> `Valid (Bytes.sub phys 0 t.page_size, e)
    | `Unwritten | `Damaged _ -> `Invalid
  end

(* scrub support: raw classification of every slot, no exceptions *)

let physical_pages t =
  match t.backend with
  | Mem pages ->
    Xutil.Int_tbl.fold (fun page _ acc -> Int.max acc (page + 1)) pages 0
  | File fd ->
    let size = Unix.lseek fd 0 Unix.SEEK_END in
    (size + phys_size t - 1) / phys_size t

let verify_page t page =
  if not t.checksums then `Ok 0
  else
    match inspect t page (read_phys t page) with
    | `Unwritten -> `Unwritten
    | `Ok e -> `Ok e
    | `Stale e -> `Stale e
    | `Damaged d -> `Damaged d

let reset_stats t =
  t.reads <- 0; t.writes <- 0; t.sequential <- 0;
  t.elapsed_us <- 0.0; t.last_page <- -2

type stats = {
  reads : int;
  writes : int;
  sequential : int;
  elapsed_us : float;
}

let stats (t : t) =
  { reads = t.reads; writes = t.writes;
    sequential = t.sequential; elapsed_us = t.elapsed_us }

let pages_allocated t = Xutil.Int_tbl.length t.written
let written t page = Xutil.Int_tbl.mem t.written page
