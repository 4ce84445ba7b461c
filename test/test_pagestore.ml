(* Tests for the disk substrate: device cost model, buffer pool
   replacement/pinning and free-frame bookkeeping, and paged byte
   tables. *)

let mk_device ?(sync_writes = false) () =
  Pagestore.Device.create ~sync_writes ~page_size:256 ()

let page_of_byte b = Bytes.make 256 b

let test_device_roundtrip () =
  let d = mk_device () in
  Pagestore.Device.write d 3 (page_of_byte 'x');
  Pagestore.Device.write d 99 (page_of_byte 'y');
  Alcotest.(check char) "page 3" 'x' (Bytes.get (Pagestore.Device.read d 3) 0);
  Alcotest.(check char) "page 99" 'y' (Bytes.get (Pagestore.Device.read d 99) 0);
  Alcotest.(check char) "unwritten page is zero" '\000'
    (Bytes.get (Pagestore.Device.read d 7) 10);
  Alcotest.(check int) "pages allocated" 2 (Pagestore.Device.pages_allocated d)

let test_device_counters () =
  let d = mk_device () in
  for i = 0 to 9 do Pagestore.Device.write d i (page_of_byte 'a') done;
  for _ = 1 to 5 do ignore (Pagestore.Device.read d 0) done;
  let s = Pagestore.Device.stats d in
  Alcotest.(check int) "writes" 10 s.Pagestore.Device.writes;
  Alcotest.(check int) "reads" 5 s.Pagestore.Device.reads;
  (* sequential writes 1..9 plus repeated reads of page 0 *)
  if s.Pagestore.Device.sequential < 9 then
    Alcotest.failf "expected sequential accesses, got %d"
      s.Pagestore.Device.sequential;
  Pagestore.Device.reset_stats d;
  Alcotest.(check int) "reset" 0 (Pagestore.Device.stats d).Pagestore.Device.reads

let test_device_sync_cost () =
  let plain = mk_device () in
  let sync = mk_device ~sync_writes:true () in
  (* interleave non-adjacent pages so no write takes the sequential
     fast path on either device *)
  Pagestore.Device.write plain 0 (page_of_byte 'a');
  Pagestore.Device.write plain 100 (page_of_byte 'a');
  Pagestore.Device.write sync 0 (page_of_byte 'a');
  Pagestore.Device.write sync 100 (page_of_byte 'a');
  let pe = (Pagestore.Device.stats plain).Pagestore.Device.elapsed_us in
  let se = (Pagestore.Device.stats sync).Pagestore.Device.elapsed_us in
  if se <= pe then Alcotest.fail "sync writes must cost more"

let test_device_bad_write () =
  let d = mk_device () in
  Alcotest.check_raises "short page"
    (Invalid_argument "Device.write: data is not exactly one page")
    (fun () -> Pagestore.Device.write d 0 (Bytes.create 8))

let test_device_checksums () =
  let d = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  Pagestore.Device.set_epoch d 5;
  Pagestore.Device.write d 2 (page_of_byte 'q');
  Alcotest.(check char) "roundtrip through the trailer" 'q'
    (Bytes.get (Pagestore.Device.read d 2) 0);
  (match Pagestore.Device.verify_page d 2 with
   | `Ok 5 -> ()
   | _ -> Alcotest.fail "written page should verify at its epoch");
  (match Pagestore.Device.verify_page d 9 with
   | `Unwritten -> ()
   | _ -> Alcotest.fail "unwritten page must classify as unwritten");
  (* an epoch beyond the committed ceiling is crash debris *)
  Pagestore.Device.set_max_valid_epoch d 3;
  Pagestore.Device.set_epoch d 7;
  (match Pagestore.Device.verify_page d 2 with
   | `Stale 5 -> ()
   | _ -> Alcotest.fail "epoch-5 page must be stale under ceiling 3");
  (match Pagestore.Device.read d 2 with
   | _ -> Alcotest.fail "stale page read must raise"
   | exception Spine_error.Error (Spine_error.Corrupt _) -> ());
  (* the session's own (current-epoch) writes always validate *)
  Pagestore.Device.write d 4 (page_of_byte 'r');
  Alcotest.(check char) "current-epoch page readable" 'r'
    (Bytes.get (Pagestore.Device.read d 4) 0)

let test_device_bit_flip_detected () =
  let d = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  let f =
    Pagestore.Fault_device.create ~seed:3
      [ Pagestore.Fault_device.arm Pagestore.Fault_device.Bit_flip ]
  in
  Pagestore.Fault_device.attach f d;
  Pagestore.Device.write d 1 (page_of_byte 's');
  Pagestore.Fault_device.detach d;
  Alcotest.(check int) "flip fired" 1
    (Pagestore.Fault_device.stats f).Pagestore.Fault_device.bit_flips;
  (match Pagestore.Device.read d 1 with
   | _ -> Alcotest.fail "flipped page read must raise"
   | exception Spine_error.Error (Spine_error.Corrupt _) -> ());
  (match Pagestore.Device.verify_page d 1 with
   | `Damaged _ -> ()
   | _ -> Alcotest.fail "flipped page must verify as damaged")

let test_device_crash_freeze () =
  let d = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  Pagestore.Device.write d 0 (page_of_byte 'a');
  let f =
    Pagestore.Fault_device.create
      [ Pagestore.Fault_device.arm ~after:1 Pagestore.Fault_device.Crash ]
  in
  Pagestore.Fault_device.attach f d;
  Pagestore.Device.write d 1 (page_of_byte 'b');  (* lands *)
  Pagestore.Device.write d 2 (page_of_byte 'c');  (* crash point: dropped *)
  Pagestore.Device.write d 0 (page_of_byte 'z');  (* frozen: dropped *)
  Alcotest.(check bool) "image frozen" true (Pagestore.Fault_device.frozen f);
  Alcotest.(check int) "post-crash write dropped" 1
    (Pagestore.Fault_device.stats f).Pagestore.Fault_device.dropped_writes;
  Pagestore.Fault_device.detach d;
  Alcotest.(check char) "pre-crash page intact" 'b'
    (Bytes.get (Pagestore.Device.read d 1) 0);
  Alcotest.(check char) "frozen page keeps its old content" 'a'
    (Bytes.get (Pagestore.Device.read d 0) 0);
  (match Pagestore.Device.verify_page d 2 with
   | `Unwritten -> ()
   | _ -> Alcotest.fail "the crashed-away page never landed")

let test_device_torn_clamp () =
  (* out-of-range tear lengths from a hook (or a hostile SPINE_FAULTS
     spec) must clamp, not blow up in Bytes.blit *)
  let d = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  Pagestore.Device.write d 0 (page_of_byte 'a');
  let tearing keep =
    Some
      { Pagestore.Device.on_read = (fun ~page:_ -> ())
      ; on_write = (fun ~page:_ ~phys:_ -> Pagestore.Device.Torn keep)
      }
  in
  Pagestore.Device.set_hooks d (tearing (-5));
  Pagestore.Device.write d 0 (page_of_byte 'b');
  Alcotest.(check char) "negative keep tears the whole write away" 'a'
    (Bytes.get (Pagestore.Device.read d 0) 0);
  Pagestore.Device.set_hooks d (tearing 1_000_000);
  Pagestore.Device.write d 0 (page_of_byte 'c');
  Pagestore.Device.set_hooks d None;
  Alcotest.(check char) "oversized keep lands the whole write" 'c'
    (Bytes.get (Pagestore.Device.read d 0) 0)

let test_pool_hit_miss () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:4 d in
  (* touch 4 distinct pages, then re-touch: all hits *)
  for i = 0 to 3 do
    Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ())
  done;
  for i = 0 to 3 do
    Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ())
  done;
  let s = Pagestore.Buffer_pool.stats p in
  Alcotest.(check int) "misses" 4 s.Pagestore.Buffer_pool.misses;
  Alcotest.(check int) "hits" 4 s.Pagestore.Buffer_pool.hits

let test_pool_lru_eviction () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:3 d in
  let touch i = Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ()) in
  touch 0; touch 1; touch 2;
  touch 0;          (* 1 is now least-recently used *)
  touch 3;          (* evicts 1 *)
  touch 0;          (* must still be resident: hit *)
  let before = (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses in
  touch 1;          (* must miss: it was evicted *)
  let after = (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses in
  Alcotest.(check int) "page 1 was evicted" (before + 1) after

let test_pool_fifo_vs_lru () =
  (* under FIFO, re-touching a page does not protect it *)
  let run replacement =
    let d = mk_device () in
    let p = Pagestore.Buffer_pool.create ~replacement ~frames:2 d in
    let touch i = Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ()) in
    touch 0; touch 1;
    touch 0;        (* LRU: protects 0; FIFO: no effect *)
    touch 2;        (* LRU evicts 1; FIFO evicts 0 *)
    touch 0;
    (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses
  in
  (* LRU: misses 0,1,2 = 3. FIFO: misses 0,1,2,0 = 4. *)
  Alcotest.(check int) "lru misses" 3 (run `Lru);
  Alcotest.(check int) "fifo misses" 4 (run `Fifo)

let test_pool_pinning () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~pin:(fun page -> page = 0) ~frames:2 d in
  let touch i = Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ()) in
  touch 0;
  (* stream many pages through; page 0 must survive *)
  for i = 1 to 20 do touch i done;
  let before = (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses in
  touch 0;
  let after = (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses in
  Alcotest.(check int) "pinned page survived streaming" before after

let test_pool_writeback () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  Pagestore.Buffer_pool.with_page p 5 ~dirty:true (fun b -> Bytes.set b 0 'z');
  (* not yet on the device *)
  Alcotest.(check char) "not written yet" '\000'
    (Bytes.get (Pagestore.Device.read d 5) 0);
  Pagestore.Buffer_pool.flush p;
  Alcotest.(check char) "after flush" 'z'
    (Bytes.get (Pagestore.Device.read d 5) 0);
  (* eviction also writes back *)
  Pagestore.Buffer_pool.with_page p 6 ~dirty:true (fun b -> Bytes.set b 1 'q');
  Pagestore.Buffer_pool.with_page p 7 ~dirty:false (fun _ -> ());
  Pagestore.Buffer_pool.with_page p 8 ~dirty:false (fun _ -> ());
  Alcotest.(check char) "after eviction" 'q'
    (Bytes.get (Pagestore.Device.read d 6) 1)

let test_pool_pinned_eviction () =
  let d = mk_device () in
  (* every page the workload touches is pinned: the policy's fallback
     must sacrifice a pinned page and say so *)
  let p = Pagestore.Buffer_pool.create ~pin:(fun page -> page < 2) ~frames:2 d in
  let touch i = Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ()) in
  touch 0; touch 1;
  Alcotest.(check int) "no pinned evictions while frames free" 0
    (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.pinned_evictions;
  touch 2;
  let s = Pagestore.Buffer_pool.stats p in
  Alcotest.(check int) "pinned eviction counted" 1
    s.Pagestore.Buffer_pool.pinned_evictions;
  Alcotest.(check int) "still counted as an eviction" 1
    s.Pagestore.Buffer_pool.evictions;
  (* page 2 is unpinned and is now the preferred victim: evicting it
     must not touch the pinned counter *)
  touch 10;
  let s = Pagestore.Buffer_pool.stats p in
  Alcotest.(check int) "unpinned eviction not pinned-counted" 1
    s.Pagestore.Buffer_pool.pinned_evictions;
  Alcotest.(check int) "eviction still counted" 2
    s.Pagestore.Buffer_pool.evictions

let test_pool_reset_stats () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  let touch ?(dirty = false) i =
    Pagestore.Buffer_pool.with_page p i ~dirty (fun _ -> ())
  in
  touch ~dirty:true 0; touch 1; touch 0;
  touch 2; touch 3;            (* evicts both, writing back dirty page 0 *)
  let s = Pagestore.Buffer_pool.stats p in
  if s.Pagestore.Buffer_pool.hits = 0 || s.Pagestore.Buffer_pool.misses = 0
     || s.Pagestore.Buffer_pool.evictions = 0
     || s.Pagestore.Buffer_pool.writebacks = 0
  then Alcotest.fail "expected every stat class to be exercised";
  Pagestore.Buffer_pool.reset_stats p;
  let z = Pagestore.Buffer_pool.stats p in
  Alcotest.(check int) "hits reset" 0 z.Pagestore.Buffer_pool.hits;
  Alcotest.(check int) "misses reset" 0 z.Pagestore.Buffer_pool.misses;
  Alcotest.(check int) "evictions reset" 0 z.Pagestore.Buffer_pool.evictions;
  Alcotest.(check int) "pinned evictions reset" 0
    z.Pagestore.Buffer_pool.pinned_evictions;
  Alcotest.(check int) "writebacks reset" 0 z.Pagestore.Buffer_pool.writebacks;
  (* counting resumes from zero after a reset *)
  touch 0;
  Alcotest.(check int) "fresh miss after reset" 1
    (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.misses

let test_pool_telemetry_consistency () =
  (* the global telemetry mirror advances in lockstep with the pool's
     own counters *)
  let prev = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled prev)
    (fun () ->
      let count name =
        match Telemetry.find (Telemetry.snapshot ()) name with
        | Some (Telemetry.Count n) -> n
        | _ -> 0
      in
      let h0 = count "pool.hits" and m0 = count "pool.misses" in
      let e0 = count "pool.evictions" in
      let d = mk_device () in
      let p = Pagestore.Buffer_pool.create ~frames:2 d in
      let touch i =
        Pagestore.Buffer_pool.with_page p i ~dirty:false (fun _ -> ())
      in
      touch 0; touch 1; touch 0; touch 2; touch 3;
      let s = Pagestore.Buffer_pool.stats p in
      Alcotest.(check int) "hits mirrored" s.Pagestore.Buffer_pool.hits
        (count "pool.hits" - h0);
      Alcotest.(check int) "misses mirrored" s.Pagestore.Buffer_pool.misses
        (count "pool.misses" - m0);
      Alcotest.(check int) "evictions mirrored"
        s.Pagestore.Buffer_pool.evictions
        (count "pool.evictions" - e0))

let test_pool_drop_rereads () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:4 d in
  Pagestore.Buffer_pool.with_page p 1 ~dirty:true (fun b -> Bytes.set b 0 'k');
  Pagestore.Buffer_pool.drop p;
  (* contents must persist through the drop *)
  Pagestore.Buffer_pool.with_page p 1 ~dirty:false (fun b ->
      Alcotest.(check char) "reread after drop" 'k' (Bytes.get b 0))

(* a pool touch that only counts the access *)
let touch p i = Pagestore.Buffer_pool.with_page p i ~dirty:false ignore

let evictions p = (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.evictions

let test_pool_free_frames () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:4 d in
  for i = 0 to 5 do touch p i done;
  Alcotest.(check int) "a full pool evicts" 2 (evictions p);
  (* after a drop every frame is free again: the first [frames]
     distinct misses must not evict *)
  Pagestore.Buffer_pool.drop p;
  for i = 10 to 13 do touch p i done;
  Alcotest.(check int) "refill after drop evicts nothing" 2 (evictions p);
  touch p 14;
  Alcotest.(check int) "the fifth distinct page evicts" 3 (evictions p);
  let fail_reads_of bad =
    Pagestore.Device.set_hooks d
      (Some
         { Pagestore.Device.on_read =
             (fun ~page ->
               if page = bad then
                 Spine_error.io_failed ~op:Spine_error.Read ~page
                   ~transient:false "injected");
           on_write = (fun ~page:_ ~phys:_ -> Pagestore.Device.Write_through) })
  in
  let failed_read page =
    match touch p page with
    | exception Spine_error.Error (Spine_error.Io_failed _) -> ()
    | () -> Alcotest.fail "the injected read error must propagate"
  in
  (* a failed read on a pool that is not full hands its frame back *)
  Pagestore.Buffer_pool.drop p;
  touch p 0; touch p 1;
  fail_reads_of 7;
  failed_read 7;
  Pagestore.Device.set_hooks d None;
  touch p 2; touch p 3;
  Alcotest.(check int) "released frame reused without an eviction" 3
    (evictions p);
  (* on a full pool the victim is evicted first; the failed read then
     releases that frame, and the next miss takes it without evicting *)
  fail_reads_of 8;
  failed_read 8;
  Pagestore.Device.set_hooks d None;
  Alcotest.(check int) "the failed miss evicted its victim" 4 (evictions p);
  touch p 9;
  Alcotest.(check int) "the victim's frame was reused" 4 (evictions p)

(* A paged table with no practical capacity bound. *)
let paged_table ?used p ~base_page =
  Pagestore.Paged_bytes.make ?used p ~region:"test" ~base_page
    ~capacity:max_int

(* A table cannot grow past its capacity: the allocation that would
   spill into the next region's pages fails typed, naming the region,
   and allocates nothing. *)
let test_paged_bytes_capacity () =
  let p = Pagestore.Buffer_pool.create ~frames:4 (mk_device ()) in
  let a =
    Pagestore.Paged_bytes.make p ~region:"lt" ~base_page:0 ~capacity:600
  in
  Alcotest.(check int) "first offset" 0 (Pagestore.Paged_bytes.alloc a 400);
  Alcotest.(check int) "fills exactly" 400 (Pagestore.Paged_bytes.alloc a 200);
  (match Pagestore.Paged_bytes.alloc a 1 with
   | off -> Alcotest.failf "allocated offset %d past the capacity" off
   | exception
       Spine_error.Error (Spine_error.Region_full { region; capacity }) ->
     Alcotest.(check string) "region named" "lt" region;
     Alcotest.(check int) "capacity reported" 600 capacity);
  Alcotest.(check int) "nothing allocated" 600 (Pagestore.Paged_bytes.used a)

(* Fixed-width records laid out through [alloc]: 12-byte records on
   256-byte pages, so some records cross a page boundary. *)
let test_paged_bytes_fields () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:8 d in
  let a = paged_table p ~base_page:0 in
  let record = 12 in
  for i = 0 to 99 do
    let off = Pagestore.Paged_bytes.alloc a record in
    Alcotest.(check int) "records are contiguous" (i * record) off;
    Pagestore.Paged_bytes.set_u32 a off (i * 1000);
    Pagestore.Paged_bytes.set_u16 a (off + 4) (i * 3);
    Pagestore.Paged_bytes.set_u8 a (off + 6) (i mod 256)
  done;
  for i = 0 to 99 do
    let off = i * record in
    Alcotest.(check int) "u32" (i * 1000) (Pagestore.Paged_bytes.get_u32 a off);
    Alcotest.(check int) "u16" (i * 3) (Pagestore.Paged_bytes.get_u16 a (off + 4));
    Alcotest.(check int) "u8" (i mod 256) (Pagestore.Paged_bytes.get_u8 a (off + 6))
  done;
  Alcotest.(check int) "used" (100 * record) (Pagestore.Paged_bytes.used a);
  (* stored values are truncated to the field width *)
  Pagestore.Paged_bytes.set_u16 a 0 0x1_2345;
  Alcotest.(check int) "u16 truncates" 0x2345 (Pagestore.Paged_bytes.get_u16 a 0);
  Pagestore.Paged_bytes.set_u32 a 0 (-1);
  Alcotest.(check int) "u32 is unsigned" 0xFFFF_FFFF
    (Pagestore.Paged_bytes.get_u32 a 0)

let test_paged_bytes_persistence () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  let a = paged_table p ~base_page:10 in
  for i = 0 to 199 do
    Pagestore.Paged_bytes.set_u32 a (Pagestore.Paged_bytes.alloc a 8) (i * 7)
  done;
  Pagestore.Buffer_pool.flush p;
  Pagestore.Buffer_pool.drop p;
  let reopened =
    paged_table p ~base_page:10 ~used:(200 * 8)
  in
  Alcotest.(check int) "used carried over" (200 * 8)
    (Pagestore.Paged_bytes.used reopened);
  for i = 0 to 199 do
    Alcotest.(check int) "persisted" (i * 7)
      (Pagestore.Paged_bytes.get_u32 reopened (i * 8))
  done

(* Every field width at every offset around a page boundary, on
   16-byte pages behind a 2-frame pool so each write is evicted and
   read back from the device, against the in-memory byte table. *)
let test_paged_bytes_straddle () =
  let page_size = 16 in
  let d = Pagestore.Device.create ~page_size () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  let pb = paged_table p ~base_page:0 in
  let bt = Spine.Compact_store.Btab.create 0 in
  let size = 4 * page_size in
  ignore (Pagestore.Paged_bytes.alloc pb size);
  ignore (Spine.Compact_store.Btab.alloc bt size);
  let offsets = List.init 7 (fun k -> page_size - 5 + k) in
  let evict () =
    (* two far pages take both frames *)
    ignore (Pagestore.Paged_bytes.get_u8 pb (2 * page_size));
    ignore (Pagestore.Paged_bytes.get_u8 pb (3 * page_size))
  in
  let agree what =
    List.iter
      (fun off ->
        let label f = Printf.sprintf "%s: %s at %d" what f off in
        Alcotest.(check int) (label "u8")
          (Spine.Compact_store.Btab.get_u8 bt off)
          (Pagestore.Paged_bytes.get_u8 pb off);
        Alcotest.(check int) (label "u16")
          (Spine.Compact_store.Btab.get_u16 bt off)
          (Pagestore.Paged_bytes.get_u16 pb off);
        Alcotest.(check int) (label "u32")
          (Spine.Compact_store.Btab.get_u32 bt off)
          (Pagestore.Paged_bytes.get_u32 pb off))
      offsets
  in
  List.iteri
    (fun k off ->
      (* bits above the field width must be dropped on both sides *)
      let v = (1 lsl 40) lor (0xF1E2_D3C4 + (k * 0x0101_0101)) in
      Pagestore.Paged_bytes.set_u32 pb off v;
      Spine.Compact_store.Btab.set_u32 bt off v;
      evict ();
      agree (Printf.sprintf "after set_u32 at %d" off);
      Pagestore.Paged_bytes.set_u16 pb off (v lsr 3);
      Spine.Compact_store.Btab.set_u16 bt off (v lsr 3);
      evict ();
      agree (Printf.sprintf "after set_u16 at %d" off))
    offsets;
  let s = Pagestore.Buffer_pool.stats p in
  if s.Pagestore.Buffer_pool.writebacks = 0 then
    Alcotest.fail "expected the writes to be evicted and written back"

(* One field, one latch: an in-page field costs exactly one pool
   access, hit or miss. *)
let test_paged_bytes_one_latch () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  let a = paged_table p ~base_page:0 in
  let accesses () =
    let s = Pagestore.Buffer_pool.stats p in
    s.Pagestore.Buffer_pool.hits + s.Pagestore.Buffer_pool.misses
  in
  let costs what f =
    let before = accesses () in
    f ();
    Alcotest.(check int) what 1 (accesses () - before)
  in
  costs "set_u32 (miss)" (fun () -> Pagestore.Paged_bytes.set_u32 a 100 7);
  costs "get_u32 (hit)" (fun () ->
      ignore (Pagestore.Paged_bytes.get_u32 a 100));
  costs "get_u16" (fun () -> ignore (Pagestore.Paged_bytes.get_u16 a 100));
  costs "set_u16" (fun () -> Pagestore.Paged_bytes.set_u16 a 252 9);
  Pagestore.Buffer_pool.drop p;
  costs "get_u32 (miss)" (fun () ->
      Alcotest.(check int) "value" 7 (Pagestore.Paged_bytes.get_u32 a 100))

(* --- the Link Table scan --- *)

module Btab = Spine.Compact_store.Btab
module Pb = Pagestore.Paged_bytes

let is_row p = p land 0x8000_0000 <> 0

(* The scan's Rib Table fixture: the four tables at DNA's row widths,
   [rt_rows] rows each, the LD field of row [row] of table [table]
   holding [rt_ld ~count table row], a node below [count].  A row
   payload is Figure 5's PTR: bit 31 set, the table in bits 29-30, the
   row in bits 0-22 and, in between, fanout and extrib bits the scan
   must ignore ([junk]). *)
let rt_row_bytes = [| 13; 19; 25; 31 |]
let rt_rows = 8
let rt_ld ~count table row = ((table * 31) + (row * 7) + 3) mod count

let row_payload ~table ~row ~junk =
  0x8000_0000 lor (table lsl 29) lor ((junk land 0x3F) lsl 23) lor row

(* the link destination a payload stands for *)
let dest_of ~count p =
  if is_row p then rt_ld ~count ((p lsr 29) land 3) (p land 0x7F_FFFF)
  else p

(* The fixture's tables, paged in [pool] from [base_page] on (a hundred
   pages per table) and in memory. *)
let rt_tables pool ~count ~base_page =
  let pbs =
    Array.init 4 (fun k -> paged_table pool ~base_page:(base_page + (100 * k)))
  in
  let bts = Array.init 4 (fun _ -> Btab.create 0) in
  Array.iteri
    (fun table width ->
      for row = 0 to rt_rows - 1 do
        let o = Pb.alloc pbs.(table) width in
        ignore (Btab.alloc bts.(table) width);
        Pb.set_u32 pbs.(table) o (rt_ld ~count table row);
        Btab.set_u32 bts.(table) o (rt_ld ~count table row)
      done)
    rt_row_bytes;
  (pbs, bts)

(* Deterministic LT entries [(payload, stored LEL)] over [count]
   nodes: a third of the payloads name a row of the Rib Table fixture,
   the rest are link destinations below [count]; one LEL in ten is the
   overflow sentinel, whose true value [overflow i] is at least
   0xFFFF. *)
let lt_entries ~seed count =
  let rng = Random.State.make [| seed |] in
  Array.init count (fun _ ->
      let payload =
        if Random.State.int rng 3 = 0 then
          let table = Random.State.int rng 4 in
          let row = Random.State.int rng rt_rows in
          row_payload ~table ~row ~junk:(Random.State.int rng 64)
        else Random.State.int rng count
      in
      let lel =
        if Random.State.int rng 10 = 0 then 0xFFFF
        else Random.State.int rng 0xFFFF
      in
      (payload, lel))

let lt_overflow i = 0xFFFF + ((i * 7919) mod 20_000)

(* The entries after [at] bytes of padding, written to a paged table
   (over [page_size]-byte pages, in [pool]) and to an in-memory one. *)
let lt_tables pool ~at entries =
  let pb = paged_table pool ~base_page:0 in
  let bt = Btab.create 0 in
  ignore (Pb.alloc pb at);
  ignore (Btab.alloc bt at);
  Array.iter
    (fun (payload, lel) ->
      let o = Pb.alloc pb Spine.Compact_store.lt_entry_bytes in
      ignore (Btab.alloc bt Spine.Compact_store.lt_entry_bytes);
      Pb.set_u32 pb o payload;
      Pb.set_u16 pb (o + 4) lel;
      Btab.set_u32 bt o payload;
      Btab.set_u16 bt (o + 4) lel)
    entries;
  (pb, bt)

(* The contract, entry by entry: the candidates in order, a row
   payload resolved to its row's LD field, with the bitmap tested as
   each entry is reached. *)
let lt_reference entries ~from ~min_lel ~marks f =
  let count = Array.length entries in
  for i = 0 to count - from - 1 do
    let payload, raw = entries.(from + i) in
    let lel = if raw = 0xFFFF then lt_overflow (from + i) else raw in
    let dest = dest_of ~count payload in
    if lel >= min_lel && Xutil.Node_bits.mem marks dest then f i lel dest
  done

let random_marks ~seed count =
  let rng = Random.State.make [| seed |] in
  let m = Bytes.make ((count + 7) / 8) '\000' in
  for node = 0 to count - 1 do
    if Random.State.int rng 4 = 0 then Xutil.Node_bits.set m node
  done;
  m

(* A callback that records each candidate and, like the occurrence
   scan marking its hits, sets the bits of the link destinations of
   the next two entries (a row's LD field included), so they become
   candidates only when the walk tests the live bitmap. *)
let recording entries ~from marks =
  let count = Array.length entries in
  let seen = ref [] in
  let f i lel dest =
    seen := (i, lel, dest) :: !seen;
    for k = from + i + 1 to min (count - 1) (from + i + 2) do
      let p, _ = entries.(k) in
      Xutil.Node_bits.set marks (dest_of ~count p)
    done
  in
  (seen, f)

(* On pages that entries straddle in every way (8 and 16 bytes, the
   LEL itself split at odd paddings) and on wider ones, the paged and
   the in-memory scan hand over exactly the reference's candidates,
   overflowed LELs and rows of all four Rib Tables included, also when
   the callback marks entries further down the same page. *)
let test_scan_lt_parity () =
  (* the decode at the fields' edges, which no fixture row reaches:
     RT4, the widest row index, every fanout and extrib bit set *)
  let edge = row_payload ~table:3 ~row:0x7F_FFFF ~junk:63 in
  Alcotest.(check (pair int int)) "PTR decode at the edges" (3, 0x7F_FFFF)
    (Pb.ptr_table edge, Pb.ptr_row edge);
  let count = 80 in
  let entries = lt_entries ~seed:11 count in
  let run scan ~from ~min_lel ~seed =
    let marks = random_marks ~seed count in
    let seen, f = recording entries ~from marks in
    scan ~from ~min_lel ~marks f;
    List.rev !seen
  in
  List.iter
    (fun page_size ->
      for at = 0 to 5 do
        let pool =
          Pagestore.Buffer_pool.create ~frames:2
            (Pagestore.Device.create ~page_size ())
        in
        let pb, bt = lt_tables pool ~at entries in
        let prts, brts = rt_tables pool ~count ~base_page:10_000 in
        List.iter
          (fun (from, min_lel) ->
            let label =
              Printf.sprintf "page %d, padding %d, from %d, min_lel %d"
                page_size at from min_lel
            in
            let off = at + (6 * from) and count = count - from in
            let overflow i = lt_overflow (from + i) in
            let expected =
              run (lt_reference entries) ~from ~min_lel ~seed:page_size
            in
            let btab =
              run
                (fun ~from:_ ~min_lel ~marks f ->
                  Btab.scan_lt bt ~off ~count ~min_lel ~overflow ~rts:brts
                    ~row_bytes:rt_row_bytes ~marks f)
                ~from ~min_lel ~seed:page_size
            in
            let paged =
              run
                (fun ~from:_ ~min_lel ~marks f ->
                  Pb.scan_lt pb ~off ~count ~min_lel ~overflow ~rts:prts
                    ~row_bytes:rt_row_bytes ~marks f)
                ~from ~min_lel ~seed:page_size
            in
            let triple = Alcotest.(list (triple int int int)) in
            Alcotest.check triple ("btab " ^ label) expected btab;
            Alcotest.check triple ("paged " ^ label) expected paged)
          [ (0, 0); (0, 30_000); (3, 50_000); (7, 0xFFFF); (5, 0x10000);
            (2, 80_000); (80, 0) ]
      done)
    [ 8; 16; 64; 128 ]

(* One latch per page: with nothing passing, the scan's pool accesses
   are the pages holding an in-page LEL plus the two byte latches of
   each LEL that straddles a page.  With every entry passing but none a
   candidate, the payloads that start on an earlier page than their
   LEL add what [get_u32] costs for them, every row payload adds what
   [get_u32] costs for its row's LD field, and the next entry of the
   same page, when its payload lies on that page, one latch to return
   to it. *)
let test_scan_lt_one_latch_per_page () =
  let page_size = 16 and count = 40 and at = 1 in
  let entries =
    Array.init count (fun i ->
        let payload =
          if i mod 3 = 1 then row_payload ~table:(i mod 4) ~row:(i mod rt_rows) ~junk:i
          else count + i
        in
        (payload, i + 1))
  in
  let pool =
    Pagestore.Buffer_pool.create ~frames:4 (Pagestore.Device.create ~page_size ())
  in
  let pb, _ = lt_tables pool ~at entries in
  let rts, _ = rt_tables pool ~count ~base_page:1_000 in
  let lel i = at + (6 * i) + 4 and payload i = at + (6 * i) in
  let straddles i = (lel i mod page_size) + 2 > page_size in
  let field_cost off =
    if off / page_size = (off + 3) / page_size then 1 else 4
  in
  let fields = List.init count Fun.id in
  let rows = List.filter (fun i -> is_row (fst entries.(i))) fields in
  let straddling = List.length (List.filter straddles fields) in
  let pages =
    List.sort_uniq compare
      (List.filter_map
         (fun i -> if straddles i then None else Some (lel i / page_size))
         fields)
  in
  let payload_reads =
    List.fold_left
      (fun acc i ->
        let first = payload i / page_size in
        if straddles i then acc + 1
        else if first = lel i / page_size then acc
        else acc + field_cost (payload i))
      0 fields
  in
  let ld_reads =
    List.fold_left
      (fun acc i ->
        let p = fst entries.(i) in
        acc + field_cost ((p land 0x7F_FFFF) * rt_row_bytes.((p lsr 29) land 3)))
      0 rows
  in
  let returns =
    List.length
      (List.filter
         (fun i ->
           let next = i + 1 in
           next < count && (not (straddles i)) && (not (straddles next))
           && lel next / page_size = lel i / page_size
           && payload next / page_size = lel next / page_size)
         rows)
  in
  let pages = List.length pages in
  if straddling = 0 then Alcotest.fail "the layout must split some LELs";
  if pages >= count - straddling then
    Alcotest.fail "the layout must put several LELs on a page";
  if returns = 0 then
    Alcotest.fail "some row must be followed by an entry of its page";
  let accesses () =
    let s = Pagestore.Buffer_pool.stats pool in
    s.Pagestore.Buffer_pool.hits + s.Pagestore.Buffer_pool.misses
  in
  let marks = Bytes.make ((2 * count + 7) / 8) '\000' in
  let scan min_lel =
    let before = accesses () and n = ref 0 in
    Pb.scan_lt pb ~off:at ~count ~min_lel ~overflow:lt_overflow ~rts
      ~row_bytes:rt_row_bytes ~marks (fun _ _ _ -> incr n);
    Alcotest.(check int) "no candidate" 0 !n;
    accesses () - before
  in
  Alcotest.(check int) "nothing passes" (pages + (2 * straddling))
    (scan (count + 1));
  Alcotest.(check int) "everything passes, no candidate"
    (pages + (2 * straddling) + payload_reads + ld_reads + returns)
    (scan 0)

(* The callback runs outside the scan's latch: reading another table
   through a 2-frame pool from inside it evicts the scanned page, and
   the scanned table, its rows' LD fields and the other table all
   still read back correctly. *)
let test_scan_lt_callback_reads () =
  let d = Pagestore.Device.create ~page_size:16 () in
  let p = Pagestore.Buffer_pool.create ~frames:2 d in
  let col = paged_table p ~base_page:0 in
  let other = paged_table p ~base_page:100 in
  let rt = paged_table p ~base_page:200 in
  let count = 60 in
  for i = 0 to count - 1 do
    let o = Pb.alloc col 6 in
    Pb.set_u32 col o (row_payload ~table:0 ~row:i ~junk:i);
    Pb.set_u16 col (o + 4) (i * 3);
    Pb.set_u32 rt (Pb.alloc rt rt_row_bytes.(0)) (count + i);
    Pb.set_u32 other (Pb.alloc other 4) (1_000_000 + i)
  done;
  let marks = Bytes.make ((2 * count + 7) / 8) '\255' in
  let seen = ref [] in
  Pb.scan_lt col ~off:0 ~count ~min_lel:30 ~overflow:lt_overflow
    ~rts:[| rt |] ~row_bytes:rt_row_bytes ~marks (fun i lel dest ->
      (* two far pages of the other table: both frames change hands *)
      let far = Pb.get_u32 other (4 * (count - 1 - i)) in
      let near = Pb.get_u32 other (4 * i) in
      seen := (i, lel, dest, far, near) :: !seen);
  let expected =
    List.filter_map
      (fun i ->
        if i * 3 >= 30 then
          Some
            (i, i * 3, count + i, 1_000_000 + count - 1 - i, 1_000_000 + i)
        else None)
      (List.init count Fun.id)
  in
  Alcotest.(check int) "hits" (List.length expected) (List.length !seen);
  Alcotest.(check bool) "values read inside the callback" true
    (expected = List.rev !seen);
  if (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.evictions = 0 then
    Alcotest.fail "the callback must have evicted the scanned pages"

(* The page order the scan keeps: latch each page once for the LELs
   lying inside it, then, for every passing entry, read its payload
   with [get_u32], a row's LD field with [get_u32] after it, and call
   [f] on candidates.  [read_record] stands in for the page latch. *)
let lt_field_order pb ~page_size ~off ~count ~min_lel ~overflow ~rts
    ~row_bytes ~marks f =
  let visit i raw =
    let lel = if raw = 0xFFFF then overflow i else raw in
    if lel >= min_lel then begin
      let p = Pb.get_u32 pb (off + (6 * i)) in
      let dest =
        if is_row p then
          let table = (p lsr 29) land 3 in
          Pb.get_u32 rts.(table) ((p land 0x7F_FFFF) * row_bytes.(table))
        else p
      in
      if Xutil.Node_bits.mem marks dest then f i lel dest
    end
  in
  let i = ref 0 in
  while !i < count do
    let o = off + (6 * !i) + 4 in
    let pos = o mod page_size in
    if pos + 2 > page_size then begin
      visit !i (Pb.get_u16 pb o);
      incr i
    end
    else begin
      let first = !i in
      let last = min (count - 1) ((o - pos + page_size - 2 - off - 4) / 6) in
      let raws =
        Pb.read_record pb ~off:o ~len:((6 * (last - first)) + 2) (fun b at ->
            Array.init (last - first + 1) (fun k ->
                Bytes.get_uint16_le b (at + (6 * k))))
      in
      Array.iteri (fun k raw -> visit (first + k) raw) raws;
      i := last + 1
    end
  done

(* Misses and evictions do not depend on the scan's latching: on tiny
   pools, with row payloads into all four Rib Tables (whose LD fields
   the scan reads itself) and a callback that marks entries further
   down, the device reads the same pages in the same order as under
   the field-by-field order, and the scan takes fewer latches. *)
let test_scan_lt_page_order () =
  let count = 120 in
  let entries =
    Array.map (fun (p, lel) -> (p, lel land 0xFF)) (lt_entries ~seed:5 count)
  in
  List.iter
    (fun (page_size, frames, at) ->
      let run scan =
        let d = Pagestore.Device.create ~page_size () in
        let pool = Pagestore.Buffer_pool.create ~frames d in
        let pb, _ = lt_tables pool ~at entries in
        let rts, _ = rt_tables pool ~count ~base_page:10_000 in
        Pagestore.Buffer_pool.drop pool;
        Pagestore.Buffer_pool.reset_stats pool;
        let reads = ref [] in
        Pagestore.Device.set_hooks d
          (Some
             { Pagestore.Device.on_read = (fun ~page -> reads := page :: !reads);
               on_write = (fun ~page:_ ~phys:_ -> Pagestore.Device.Write_through) });
        let marks = random_marks ~seed:page_size count in
        let seen, record = recording entries ~from:0 marks in
        scan pb ~off:at ~count ~min_lel:96 ~overflow:lt_overflow ~rts
          ~row_bytes:rt_row_bytes ~marks record;
        let s = Pagestore.Buffer_pool.stats pool in
        (List.rev !reads, s.Pagestore.Buffer_pool.evictions,
         s.Pagestore.Buffer_pool.hits, List.rev !seen)
      in
      let label = Printf.sprintf "page %d, %d frames, padding %d" page_size frames at in
      let reads, evictions, hits, seen =
        run (fun pb -> lt_field_order pb ~page_size)
      in
      let reads', evictions', hits', seen' = run Pb.scan_lt in
      Alcotest.(check (list int)) ("device reads " ^ label) reads reads';
      Alcotest.(check int) ("evictions " ^ label) evictions evictions';
      Alcotest.(check bool) ("candidates " ^ label) true (seen = seen');
      if not (List.exists (fun (i, _, _) -> is_row (fst entries.(i))) seen)
      then Alcotest.failf "%s: no row among the candidates" label;
      if hits' > hits then
        Alcotest.failf "%s: %d hits, more than the field order's %d" label
          hits' hits)
    [ (8, 1, 0); (8, 2, 1); (16, 2, 3); (16, 3, 0); (64, 2, 5); (64, 3, 2);
      (128, 2, 0); (128, 4, 4) ]

(* The store's Link Table walk hands over exactly the nodes a
   field-by-field reference picks ([link_lel] and [link_dest] per node,
   then the bit test), in memory and over 8- to 128-byte pages behind a
   4-frame pool: random bitmaps, row-holding payloads (the DNA text
   gives many nodes ribs), overflowed LELs, and a callback that marks
   the link destinations of the next nodes, which become candidates
   only through the live bitmap. *)
let test_scan_links_reference () =
  let rng = Random.State.make [| 17 |] in
  let n = 700 in
  let text = String.init n (fun _ -> "acgt".[Random.State.int rng 4]) in
  let seq = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna text in
  let compact = Spine.Compact.of_seq seq in
  (* overflowed LELs on every eleventh node, rows or not *)
  let overflowed node = node mod 11 = 3 in
  let edit set_link dest =
    for node = 1 to n do
      if overflowed node then
        set_link node ~dest:(dest node) ~lel:(0xFFFF + (node * 13 mod 9000))
    done
  in
  let module CS = Spine.Compact_store in
  let module P = Spine.Paged_store.P in
  let dests = Array.init (n + 1) (fun node -> CS.link_dest compact node) in
  edit (CS.set_link compact) (Array.get dests);
  let has_row node =
    CS.find_extrib compact node <> None
    || CS.fold_ribs compact node ~init:false ~f:(fun _ _ _ _ -> true)
  in
  if not (List.exists (fun node -> overflowed node && has_row node)
            (List.init n succ))
  then Alcotest.fail "some overflowed node must hold a row";
  let run scan ~from ~min_lel ~seed =
    let marks = random_marks ~seed (n + 1) in
    let seen = ref [] in
    scan ~from ~min_lel ~marks (fun node lel dest ->
        seen := (node, lel, dest) :: !seen;
        for k = node + 1 to min n (node + 3) do
          Xutil.Node_bits.set marks dests.(k)
        done);
    List.rev !seen
  in
  let reference link_lel link_dest ~from ~min_lel ~marks f =
    for node = from to n do
      let lel = link_lel node and dest = link_dest node in
      if lel >= min_lel && Xutil.Node_bits.mem marks dest then f node lel dest
    done
  in
  let cases =
    [ (0, 0); (1, 2); (37, 5); (0, 9); (350, 3); (0, 0xFFFF); (5, 0x10000);
      (0, 70_000); (n, 0); (n + 1, 0) ]
  in
  let first = run (reference (CS.link_lel compact) (CS.link_dest compact))
      ~from:0 ~min_lel:0 ~seed:0 in
  let initial = random_marks ~seed:0 (n + 1) in
  if not (List.exists (fun (_, _, d) -> not (Xutil.Node_bits.mem initial d)) first)
  then Alcotest.fail "the callback's marks must admit some node";
  let check what scan link_lel link_dest =
    List.iter
      (fun (from, min_lel) ->
        let label = Printf.sprintf "%s, from %d, min_lel %d" what from min_lel in
        let expected =
          run (reference link_lel link_dest) ~from ~min_lel ~seed:from
        in
        Alcotest.(check (list (triple int int int))) label expected
          (run scan ~from ~min_lel ~seed:from))
      cases
  in
  check "compact" (CS.scan_links compact) (CS.link_lel compact)
    (CS.link_dest compact);
  List.iter
    (fun page_size ->
      let pool =
        Pagestore.Buffer_pool.create ~frames:4
          (Pagestore.Device.create ~page_size ())
      in
      let paged = Spine.Paged_store.create pool Bioseq.Alphabet.dna in
      Spine.Paged_store.append_seq paged seq;
      edit (P.set_link paged) (Array.get dests);
      check
        (Printf.sprintf "paged at %d-byte pages" page_size)
        (P.scan_links paged) (P.link_lel paged) (P.link_dest paged))
    [ 8; 16; 64; 128 ]

(* The three stores' Link Table walks agree candidate for candidate:
   the compact store (row links resolved in its byte table's loop),
   the paged store at 8-, 16- and 128-byte pages behind a 4-frame pool
   and the hashtable store (a plain link column), on a DNA text whose
   nodes hold rows in all four Rib Tables and one of whose row-holding
   nodes has an overflowed LEL. *)
let test_scan_links_stores_agree () =
  let rng = Random.State.make [| 29 |] in
  let n = 1500 in
  let text = String.init n (fun _ -> "acgt".[Random.State.int rng 4]) in
  let seq = Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna text in
  let module CS = Spine.Compact_store in
  let module P = Spine.Paged_store.P in
  let module H = Experiments.Hashtable_store in
  let compact = Spine.Compact.of_seq seq in
  Array.iteri
    (fun table rows ->
      if rows = 0 then Alcotest.failf "no row in RT%d" (table + 1))
    compact.CS.live_rows;
  let holds_row node =
    CS.find_extrib compact node <> None
    || CS.fold_ribs compact node ~init:false ~f:(fun _ _ _ _ -> true)
  in
  let overflowed =
    List.find (fun node -> node > n / 2 && holds_row node) (List.init n succ)
  in
  let dest = CS.link_dest compact overflowed and big_lel = 0x1_2345 in
  let hashtable = H.of_seq seq in
  let paged page_size =
    let pool =
      Pagestore.Buffer_pool.create ~frames:4
        (Pagestore.Device.create ~page_size ())
    in
    let t = Spine.Paged_store.create pool Bioseq.Alphabet.dna in
    Spine.Paged_store.append_seq t seq;
    P.set_link t overflowed ~dest ~lel:big_lel;
    t
  in
  CS.set_link compact overflowed ~dest ~lel:big_lel;
  H.set_link hashtable overflowed ~dest ~lel:big_lel;
  let run scan ~from ~min_lel ~marks =
    let marks = Bytes.copy marks and seen = ref [] in
    scan ~from ~min_lel ~marks (fun node lel dest ->
        seen := (node, lel, dest) :: !seen;
        (* mark the next node's link, as the occurrence scan marks hits *)
        if node < n then Xutil.Node_bits.set marks (H.link_dest hashtable (node + 1)));
    List.rev !seen
  in
  let all = Bytes.make ((n + 8) / 8) '\255' in
  let cases =
    List.concat_map
      (fun (from, min_lel) ->
        [ (from, min_lel, random_marks ~seed:(from + min_lel) (n + 1));
          (from, min_lel, all) ])
      [ (0, 0); (1, 3); (100, 6); (0, 9); (overflowed, 0xFFFF); (0, 0x10000);
        (n, 0) ]
  in
  let expected =
    List.map
      (fun (from, min_lel, marks) ->
        run (CS.scan_links compact) ~from ~min_lel ~marks)
      cases
  in
  if not (List.exists (List.exists (fun (node, lel, _) ->
              node = overflowed && lel = big_lel)) expected)
  then Alcotest.fail "the overflowed node must be a candidate";
  let agree what scan =
    List.iter2
      (fun (from, min_lel, marks) expected ->
        Alcotest.(check (list (triple int int int)))
          (Printf.sprintf "%s, from %d, min_lel %d" what from min_lel)
          expected (run scan ~from ~min_lel ~marks))
      cases expected
  in
  agree "hashtable" (H.scan_links hashtable);
  List.iter
    (fun page_size ->
      agree (Printf.sprintf "paged at %d-byte pages" page_size)
        (P.scan_links (paged page_size)))
    [ 8; 16; 128 ]

(* --- records --- *)

(* Across the first page boundary of a table, at page sizes 8, 16 and
   128: every range inside one page reads back, under one latch, what
   [get_u8] returns; every range that straddles the boundary is
   declined. *)
let test_paged_bytes_records () =
  List.iter
    (fun page_size ->
      let d = Pagestore.Device.create ~page_size () in
      let p = Pagestore.Buffer_pool.create ~frames:2 d in
      let t = paged_table p ~base_page:0 in
      ignore (Pagestore.Paged_bytes.alloc t (4 * page_size));
      for i = 0 to (4 * page_size) - 1 do
        Pagestore.Paged_bytes.set_u8 t i ((i * 37) + 11)
      done;
      let accesses () =
        let s = Pagestore.Buffer_pool.stats p in
        s.Pagestore.Buffer_pool.hits + s.Pagestore.Buffer_pool.misses
      in
      for off = max 0 (page_size - 8) to page_size + 7 do
        for len = 1 to min 8 page_size do
          let where = Printf.sprintf "page %d, [%d, +%d)" page_size off len in
          if (off mod page_size) + len <= page_size then begin
            Alcotest.(check bool) (where ^ " in one page") true
              (Pagestore.Paged_bytes.in_one_page t ~off ~len);
            let before = accesses () in
            let got =
              Pagestore.Paged_bytes.read_record t ~off ~len (fun b pos ->
                  List.init len (fun k -> Bytes.get_uint8 b (pos + k)))
            in
            Alcotest.(check int) (where ^ ": one latch") 1 (accesses () - before);
            Alcotest.(check (list int)) where
              (List.init len (fun k -> Pagestore.Paged_bytes.get_u8 t (off + k)))
              got
          end
          else begin
            Alcotest.(check bool) (where ^ " declined") false
              (Pagestore.Paged_bytes.in_one_page t ~off ~len);
            Alcotest.check_raises (where ^ " raises")
              (Invalid_argument "Paged_bytes: record straddles a page boundary")
              (fun () ->
                Pagestore.Paged_bytes.read_record t ~off ~len (fun _ _ -> ()))
          end
        done
      done)
    [ 8; 16; 128 ]

(* A rib step on a paged store is one LT entry and one RT row: two
   pool accesses when the row lies inside one page (4 KiB pages, a
   small text), and one per field when every row straddles (8-byte
   pages). *)
let test_paged_store_record_accesses () =
  let accesses_of ~page_size =
    let d = Pagestore.Device.create ~page_size () in
    let p = Pagestore.Buffer_pool.create ~frames:64 d in
    let store = Spine.Paged_store.create p Bioseq.Alphabet.dna in
    Spine.Paged_store.append_seq store
      (Bioseq.Packed_seq.of_string Bioseq.Alphabet.dna
         "aaccacaacaaccacaacaaccacaacagtacgttgcaacgt");
    let accesses () =
      let s = Pagestore.Buffer_pool.stats p in
      s.Pagestore.Buffer_pool.hits + s.Pagestore.Buffer_pool.misses
    in
    let module P = Spine.Paged_store.P in
    (* the first node with two ribs, and its second rib's label *)
    let rec pick node =
      match P.fold_ribs store node ~init:[] ~f:(fun acc c _ _ -> c :: acc) with
      | code :: _ :: _ -> (node, code)
      | _ -> pick (node + 1)
    in
    let node, code = pick 0 in
    let before = accesses () in
    Alcotest.(check bool) "rib found" true
      (Option.is_some (P.find_rib store node code));
    let rib = accesses () - before in
    let rec extrib_node node =
      if Option.is_some (P.find_extrib store node) then node
      else extrib_node (node + 1)
    in
    let enode = extrib_node 0 in
    let before = accesses () in
    ignore (P.find_extrib store enode);
    (rib, accesses () - before)
  in
  let rib, extrib = accesses_of ~page_size:4096 in
  Alcotest.(check int) "find_rib: LT entry + RT row" 2 rib;
  Alcotest.(check int) "find_extrib: LT entry + RT row" 2 extrib;
  let rib, extrib = accesses_of ~page_size:8 in
  if rib <= 2 || extrib <= 2 then
    Alcotest.failf "straddling rows should take the per-field path (%d, %d)"
      rib extrib

(* The dirty set is kept as frames go clean -> dirty and back: a page
   dirtied twice counts once, and a flush, an eviction's writeback or
   a drop takes it out. *)
let test_pool_dirty_set () =
  let d = mk_device () in
  let p = Pagestore.Buffer_pool.create ~frames:3 d in
  let touch ~dirty i = Pagestore.Buffer_pool.with_page p i ~dirty (fun _ -> ()) in
  let dirty what expect =
    Alcotest.(check (array int)) what expect (Pagestore.Buffer_pool.dirty_pages p)
  in
  touch ~dirty:true 7; touch ~dirty:true 3; touch ~dirty:false 5;
  touch ~dirty:true 7;
  dirty "ascending, once each" [| 3; 7 |];
  Pagestore.Buffer_pool.flush p;
  dirty "flushed" [||];
  touch ~dirty:true 5; touch ~dirty:true 3;
  (* 7 then 5 are the least recently used: two misses evict them *)
  touch ~dirty:false 8; touch ~dirty:false 9;
  dirty "evicted page written back" [| 3 |];
  Alcotest.(check int) "two flushed, one evicted" 3
    (Pagestore.Buffer_pool.stats p).Pagestore.Buffer_pool.writebacks;
  touch ~dirty:true 9;
  dirty "a clean frame dirtied again" [| 3; 9 |];
  Pagestore.Buffer_pool.drop p;
  dirty "dropped" [||]

let suite =
  [ Alcotest.test_case "device read/write roundtrip" `Quick test_device_roundtrip
  ; Alcotest.test_case "device counters" `Quick test_device_counters
  ; Alcotest.test_case "device sync-write cost" `Quick test_device_sync_cost
  ; Alcotest.test_case "device rejects bad writes" `Quick test_device_bad_write
  ; Alcotest.test_case "device checksum trailers and epoch ceiling" `Quick
      test_device_checksums
  ; Alcotest.test_case "device detects injected bit flips" `Quick
      test_device_bit_flip_detected
  ; Alcotest.test_case "device crash point freezes the image" `Quick
      test_device_crash_freeze
  ; Alcotest.test_case "device clamps out-of-range torn-write lengths" `Quick
      test_device_torn_clamp
  ; Alcotest.test_case "pool hits and misses" `Quick test_pool_hit_miss
  ; Alcotest.test_case "pool LRU eviction order" `Quick test_pool_lru_eviction
  ; Alcotest.test_case "pool FIFO vs LRU" `Quick test_pool_fifo_vs_lru
  ; Alcotest.test_case "pool pinning" `Quick test_pool_pinning
  ; Alcotest.test_case "pool writeback on flush/evict" `Quick test_pool_writeback
  ; Alcotest.test_case "pool pinned eviction counter" `Quick
      test_pool_pinned_eviction
  ; Alcotest.test_case "pool reset_stats" `Quick test_pool_reset_stats
  ; Alcotest.test_case "pool telemetry mirror" `Quick
      test_pool_telemetry_consistency
  ; Alcotest.test_case "pool drop rereads device" `Quick test_pool_drop_rereads
  ; Alcotest.test_case "pool free frames after drop and failed read" `Quick
      test_pool_free_frames
  ; Alcotest.test_case "paged bytes fields" `Quick test_paged_bytes_fields
  ; Alcotest.test_case "paged bytes persistence" `Quick
      test_paged_bytes_persistence
  ; Alcotest.test_case "paged bytes straddle parity" `Quick
      test_paged_bytes_straddle
  ; Alcotest.test_case "paged bytes one latch per in-page field" `Quick
      test_paged_bytes_one_latch
  ; Alcotest.test_case "paged column scan parity" `Quick test_scan_lt_parity
  ; Alcotest.test_case "paged column scan: one latch per page" `Quick
      test_scan_lt_one_latch_per_page
  ; Alcotest.test_case "paged column scan: callback reads other pages" `Quick
      test_scan_lt_callback_reads
  ; Alcotest.test_case "paged column scan: page order of the field walk" `Quick
      test_scan_lt_page_order
  ; Alcotest.test_case "store link scan matches the field reference" `Quick
      test_scan_links_reference
  ; Alcotest.test_case "store link scans agree across the three stores" `Quick
      test_scan_links_stores_agree
  ; Alcotest.test_case "paged bytes capacity is typed" `Quick
      test_paged_bytes_capacity
  ; Alcotest.test_case "paged bytes records: in-page only, field parity" `Quick
      test_paged_bytes_records
  ; Alcotest.test_case "paged store: a rib step is two pool accesses" `Quick
      test_paged_store_record_accesses
  ; Alcotest.test_case "pool dirty set" `Quick test_pool_dirty_set
  ]
