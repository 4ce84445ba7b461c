(* Tests for the small substrates: Int_vec, Stopwatch, table/bar
   formatting, the pinned SplitMix64 streams — plus a qcheck model test
   of the buffer pool (random access traces vs a naive reference cache
   model). *)

let test_int_vec_basics () =
  let v = Xutil.Int_vec.create ~capacity:1 () in
  for i = 0 to 999 do Xutil.Int_vec.push v (i * 2) done;
  Alcotest.(check int) "length" 1000 (Xutil.Int_vec.length v);
  Alcotest.(check int) "get" 500 (Xutil.Int_vec.get v 250);
  Xutil.Int_vec.set v 250 7;
  Alcotest.(check int) "set" 7 (Xutil.Int_vec.get v 250);
  Alcotest.(check int) "pop" 1998 (Xutil.Int_vec.pop v);
  Alcotest.(check int) "length after pop" 999 (Xutil.Int_vec.length v);
  while Xutil.Int_vec.length v > 10 do ignore (Xutil.Int_vec.pop v) done;
  Alcotest.(check int) "popped down" 10 (Xutil.Int_vec.length v);
  Alcotest.(check int) "fold" 90 (Xutil.Int_vec.fold v ~init:0 ~f:( + ));
  ignore (Xutil.Int_vec.blit_to_array v);
  Xutil.Int_vec.clear v;
  Alcotest.(check int) "clear" 0 (Xutil.Int_vec.length v)

let test_int_vec_binary_search () =
  let v = Xutil.Int_vec.create () in
  List.iter (Xutil.Int_vec.push v) [ 2; 5; 9; 14; 77 ];
  List.iter
    (fun (x, expect) ->
      Alcotest.(check (option int)) (Printf.sprintf "search %d" x) expect
        (Xutil.Int_vec.binary_search v x))
    [ (2, Some 0); (5, Some 1); (77, Some 4); (3, None); (100, None);
      (0, None) ];
  let empty = Xutil.Int_vec.create () in
  Alcotest.(check (option int)) "empty" None
    (Xutil.Int_vec.binary_search empty 1)

let test_int_vec_errors () =
  let v = Xutil.Int_vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_vec.pop: empty")
    (fun () -> ignore (Xutil.Int_vec.pop v))

let test_stopwatch () =
  let x, dt = Xutil.Stopwatch.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let x, _ = Xutil.Stopwatch.median_of 5 (fun () -> "ok") in
  Alcotest.(check string) "median result" "ok" x

let test_table_formatting () =
  Alcotest.(check string) "fmt_int small" "999" (Report.Table.fmt_int 999);
  Alcotest.(check string) "fmt_int grouped" "3,500,000"
    (Report.Table.fmt_int 3_500_000);
  Alcotest.(check string) "fmt_int negative" "-1,234"
    (Report.Table.fmt_int (-1234));
  Alcotest.(check string) "fmt_pct" "15.3%" (Report.Table.fmt_pct 0.153);
  Alcotest.(check string) "fmt_float" "2.50" (Report.Table.fmt_float 2.5);
  Alcotest.(check string) "fmt_float decimals" "2.500"
    (Report.Table.fmt_float ~decimals:3 2.5)

(* Reference cache model: LRU over an association list. Compared
   against Buffer_pool on random traces (hits/misses must agree). *)
let qcheck_pool_model =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_bound 300) (pair (int_bound 12) bool)))
  in
  let arb =
    QCheck.make
      ~print:(fun (frames, ops) ->
        Printf.sprintf "frames=%d ops=%d" frames (List.length ops))
      gen
  in
  QCheck.Test.make ~count:100 ~name:"buffer pool matches LRU model" arb
    (fun (frames, ops) ->
      let dev = Pagestore.Device.create ~page_size:64 () in
      let pool = Pagestore.Buffer_pool.create ~frames dev in
      (* model: most-recent-first list of resident pages *)
      let model = ref [] in
      let model_hits = ref 0 and model_misses = ref 0 in
      List.iter
        (fun (page, dirty) ->
          Pagestore.Buffer_pool.with_page pool page ~dirty (fun _ -> ());
          if List.mem page !model then begin
            incr model_hits;
            model := page :: List.filter (fun p -> p <> page) !model
          end
          else begin
            incr model_misses;
            let resident = page :: !model in
            model :=
              (if List.length resident > frames then
                 List.filteri (fun i _ -> i < frames) resident
               else resident)
          end)
        ops;
      let s = Pagestore.Buffer_pool.stats pool in
      s.Pagestore.Buffer_pool.hits = !model_hits
      && s.Pagestore.Buffer_pool.misses = !model_misses)

(* pool contents must always round-trip through eviction: write
   distinct bytes to many pages through a tiny pool, then read back *)
let qcheck_pool_integrity =
  let gen = QCheck.Gen.(pair (int_range 1 4) (int_range 1 40)) in
  let arb = QCheck.make ~print:(fun (f, p) -> Printf.sprintf "f=%d p=%d" f p) gen in
  QCheck.Test.make ~count:100 ~name:"buffer pool preserves page contents" arb
    (fun (frames, pages) ->
      let dev = Pagestore.Device.create ~page_size:64 () in
      let pool = Pagestore.Buffer_pool.create ~frames dev in
      for p = 0 to pages - 1 do
        Pagestore.Buffer_pool.with_page pool p ~dirty:true (fun b ->
            Bytes.set b 0 (Char.chr (p land 0xFF)))
      done;
      let ok = ref true in
      for p = 0 to pages - 1 do
        Pagestore.Buffer_pool.with_page pool p ~dirty:false (fun b ->
            if Bytes.get b 0 <> Char.chr (p land 0xFF) then ok := false)
      done;
      !ok)

(* --- one SplitMix64 behind every seeded stream -------------------------- *)

(* The first 8 draws of each seeded generator for seeds 1 and 42, as
   recorded before the generators shared Xutil.Splitmix: seeded fault
   plans, latency plans and synthetic corpora must replay bit for
   bit.  The corpus generator's raw 64-bit draws are read back through
   [bits62], their low 62 bits. *)
let rng_draws seed =
  let r = Bioseq.Rng.create seed in
  List.init 8 (fun _ -> Bioseq.Rng.bits62 r)

let low62 raw = Int64.to_int (Int64.logand raw 0x3FFF_FFFF_FFFF_FFFFL)

(* a latency plan with no base delay and jitter [max_int - 1] sleeps
   each draw mod [max_int]: one read, one draw *)
let latency_draws seed =
  let dev = Pagestore.Device.create ~page_size:64 () in
  Pagestore.Device.write dev 0 (Bytes.make 64 '\000');
  let slept = ref [] in
  let l =
    Pagestore.Latency_device.create
      ~sleep_ns:(fun ns -> slept := ns :: !slept)
      { Pagestore.Latency_device.read_ns = 0; write_ns = 0;
        jitter_ns = max_int - 1; seed }
  in
  Pagestore.Latency_device.attach l dev;
  for _ = 1 to 8 do ignore (Pagestore.Device.read dev 0) done;
  Pagestore.Latency_device.detach l;
  List.rev !slept

(* a bit flip draws a byte (mod the 4092 flippable bytes of a 4 KiB
   page), then a bit: four flips onto zero pages read back as 8 draws *)
let fault_draws seed =
  let size = 4096 in
  let dev = Pagestore.Device.create ~page_size:size () in
  let module FD = Pagestore.Fault_device in
  FD.attach (FD.create ~seed [ FD.arm ~times:4 FD.Bit_flip ]) dev;
  for p = 0 to 3 do Pagestore.Device.write dev p (Bytes.make size '\000') done;
  FD.detach dev;
  List.concat_map
    (fun p ->
      let b = Pagestore.Device.raw_run dev p 1 in
      let rec find i = if Bytes.get b i <> '\000' then i else find (i + 1) in
      let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1) in
      let byte = find 0 in
      [ byte; log2 (Char.code (Bytes.get b byte)) ])
    [ 0; 1; 2; 3 ]

let test_splitmix_streams () =
  let check seed rng lat fault =
    let name what = Printf.sprintf "%s, seed %d" what seed in
    Alcotest.(check (list int)) (name "Bioseq.Rng") (List.map low62 rng)
      (rng_draws seed);
    Alcotest.(check (list int)) (name "Latency_device") lat
      (latency_draws seed);
    Alcotest.(check (list int)) (name "Fault_device") fault (fault_draws seed)
  in
  check 1
    [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
      0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL; 0x98843F48A94B7866L;
      0x74AD4C24D41A25F8L; 0x2F9A1F13648EAB6EL ]
    [ 1227844342346046657; 4533873174211652711; 4076781235000726878;
      3585294735394392331; 3583551218699580857; 237859547582366336;
      2349168632861703333; 425514363213284725 ]
    [ 3081; 7; 3882; 3; 3677; 0; 2925; 5 ];
  check 42
    [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L;
      0xC4B6B24EF01890EL; 0xFB16A06E52EC10A7L; 0x3C30FC5FD50692C3L;
      0x4782C4B4C4FDF7C9L; 0x272404A0A3926552L ]
    [ 4456085495900499605; 2949826092126892291; 527597730035375954;
      1737512041830867860; 701532786141963250; 2180923070380825350;
      4028864712777624925; 933993271705612196 ]
    [ 2993; 3; 1538; 4; 2158; 6; 865; 4 ]

(* CRC-32C: the published check value and the RFC 3720 (iSCSI) B.4
   vectors, then every alignment and length against a bytewise
   reference kept here, so a faster digest can only ever reproduce the
   same checksums (every page trailer on disk carries one). *)
let crc_reference ?(seed = 0) data ~pos ~len =
  let c = ref (seed lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get data i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32c_known_answers () =
  let check name expect data =
    Alcotest.(check int) name expect (Xutil.Crc32c.bytes data)
  in
  check "check value" 0xE3069283 (Bytes.of_string "123456789");
  check "32 x 00" 0x8A9136AA (Bytes.make 32 '\000');
  check "32 x FF" 0x62A8AB43 (Bytes.make 32 '\255');
  check "00..1F" 0x46DD794E (Bytes.init 32 Char.chr);
  check "1F..00" 0x113FDB5C (Bytes.init 32 (fun i -> Char.chr (31 - i)));
  check "empty" 0 Bytes.empty

let test_crc32c_reference () =
  let rng = Xutil.Splitmix.create 7 in
  let data =
    Bytes.init 320 (fun _ -> Char.chr (Xutil.Splitmix.int rng 256))
  in
  for pos = 0 to 15 do
    for len = 0 to 300 do
      let expect = crc_reference data ~pos ~len in
      if Xutil.Crc32c.digest data ~pos ~len <> expect then
        Alcotest.failf "pos %d len %d: %08x, reference %08x" pos len
          (Xutil.Crc32c.digest data ~pos ~len) expect
    done
  done;
  (* chaining: the digest of a prefix seeds the digest of the rest *)
  for cut = 0 to 300 do
    let whole = Xutil.Crc32c.digest data ~pos:3 ~len:300 in
    let head = Xutil.Crc32c.digest data ~pos:3 ~len:cut in
    let chained =
      Xutil.Crc32c.digest ~seed:head data ~pos:(3 + cut) ~len:(300 - cut)
    in
    if chained <> whole then Alcotest.failf "seeded split at %d" cut
  done;
  Alcotest.check_raises "range out of bounds"
    (Invalid_argument "Crc32c.digest: range out of bounds") (fun () ->
      ignore (Xutil.Crc32c.digest data ~pos:300 ~len:21))

let suite =
  [ Alcotest.test_case "int_vec basics" `Quick test_int_vec_basics
  ; Alcotest.test_case "int_vec binary search" `Quick
      test_int_vec_binary_search
  ; Alcotest.test_case "int_vec errors" `Quick test_int_vec_errors
  ; Alcotest.test_case "stopwatch" `Quick test_stopwatch
  ; Alcotest.test_case "table formatting" `Quick test_table_formatting
  ; Alcotest.test_case "splitmix streams replay unchanged" `Quick
      test_splitmix_streams
  ; QCheck_alcotest.to_alcotest qcheck_pool_model
  ; QCheck_alcotest.to_alcotest qcheck_pool_integrity
  ; Alcotest.test_case "crc32c known answers" `Quick test_crc32c_known_answers
  ; Alcotest.test_case "crc32c matches a bytewise reference" `Quick
      test_crc32c_reference
  ]
