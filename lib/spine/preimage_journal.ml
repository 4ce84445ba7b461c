let get_u32 = Pagestore.Device.get_u32
let set_u32 = Pagestore.Device.set_u32

let c_captures = Telemetry.counter "persistent.journal.captures"
let c_restored = Telemetry.counter "persistent.journal.restored"

(* Entry [i] occupies [entry_pages] pages at [base + i * entry_pages]
   (two at page sizes of 36 bytes and up):

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
let magic = "SPNJ"
let base = Region_map.journal.first

(* An entry's header is [header_bytes] long: one page at any page size
   of 36 bytes or more, so an entry is two pages, and as many pages as
   it takes below that. *)
let header_bytes = 36

let header_pages device =
  let ps = Pagestore.Device.page_size device in
  (header_bytes + ps - 1) / ps

let entry_pages device = header_pages device + 1
let entries device = Region_map.journal.span / entry_pages device

type t = {
  device : Pagestore.Device.t;
  committed : int array;
      (* per region: its committed prefix in pages (0 unless journaled) *)
  journaled : unit Xutil.Int_tbl.t;  (* captured since the last commit *)
  mutable next : int;
}

let create device =
  { device;
    committed = Array.make (Array.length Region_map.regions) 0;
    journaled = Xutil.Int_tbl.create 256;
    next = 0 }

let committed j = j.committed

let reset j prefix =
  Xutil.Int_tbl.reset j.journaled;
  j.next <- 0;
  Array.blit prefix 0 j.committed 0 (Array.length prefix)

let needs_capture j page =
  Region_map.in_prefix j.committed page
  && not (Xutil.Int_tbl.mem j.journaled page)

let capture j pages =
  let pages =
    Array.of_list (List.filter (needs_capture j) (Array.to_list pages))
  in
  let device = j.device in
  let capacity = entries device in
  let m = Int.min (Array.length pages) (capacity - j.next) in
  if m > 0 then begin
    let ps = Pagestore.Device.page_size device in
    let phys = Pagestore.Device.phys_size device in
    let hdr = header_pages device * ps in
    let batch = Bytes.make (m * (hdr + ps)) '\000' in
    Pagestore.Buffer_pool.iter_runs m ~page:(fun k -> pages.(k)) (fun i n ->
      let raw = Pagestore.Device.raw_run device pages.(i) n in
      for k = i to i + n - 1 do
        let src = (k - i) * phys and dst = k * (hdr + ps) in
        Bytes.blit_string magic 0 batch dst 4;
        set_u32 batch (dst + 4) (j.next + k);
        set_u32 batch (dst + 8) (pages.(k) land 0xFFFFFFFF);
        set_u32 batch (dst + 12) (pages.(k) lsr 32);
        Bytes.blit raw (src + ps) batch (dst + 16) (phys - ps);
        set_u32 batch (dst + 32) (Xutil.Crc32c.digest raw ~pos:src ~len:ps);
        Bytes.blit raw src batch (dst + hdr) ps
      done);
    Pagestore.Buffer_pool.write_pages device
      (base + (j.next * entry_pages device))
      batch;
    for k = 0 to m - 1 do Xutil.Int_tbl.replace j.journaled pages.(k) () done;
    j.next <- j.next + m;
    Telemetry.add c_captures m
  end;
  if m < Array.length pages then
    Spine_error.io_failed ~op:Spine_error.Write ~page:pages.(m)
      "preimage journal full (%d entries since the last flush); flush to \
       commit and reset it"
      capacity

let entry device ~ceiling i =
  let page_size = Pagestore.Device.page_size device in
  let hdr_pages = header_pages device in
  let first = base + (i * entry_pages device) in
  let pages =
    List.init (hdr_pages + 1) (fun k ->
        Pagestore.Device.read_slot_any device (first + k))
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
      String.equal (Bytes.sub_string b 0 4) magic
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

let rollback device ~ceiling =
  let rec go i =
    if i >= entries device then i
    else
      match entry device ~ceiling i with
      | Some (target, phys) ->
        Pagestore.Device.write_raw_slot device target phys;
        Telemetry.incr c_restored;
        go (i + 1)
      | None -> i
  in
  go 0
