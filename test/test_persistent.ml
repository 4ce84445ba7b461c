(* The file-backed index: parity with the in-memory implementations,
   durability across close/open cycles, and behaviour under tiny buffer
   pools (true disk residency). *)

module E = Spine.Engine

let dna = Bioseq.Alphabet.dna

(* engine shorthands over a persistent index; each call re-checks the
   use-after-close guard *)
let length p = E.length (Spine.Persistent.engine p)
let occurrences p pat = Codes.occurrences (Spine.Persistent.engine p) pat
let contains p s = Codes.contains_string (Spine.Persistent.engine p) s

let with_tmp f =
  let path = Filename.temp_file "spine_persistent" ".db" in
  let result = try f path with e -> (try Sys.remove path with _ -> ()); raise e in
  (try Sys.remove path with _ -> ());
  result

let test_parity_with_memory () =
  with_tmp (fun path ->
      let rng = Bioseq.Rng.create 201 in
      let seq = Bioseq.Synthetic.genomic dna rng 15_000 in
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_seq p seq;
      let m = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let pe = Spine.Persistent.engine p in
      Alcotest.(check int) "length" (E.length m) (E.length pe);
      for _ = 1 to 50 do
        let len = 2 + Bioseq.Rng.int rng 10 in
        let pos = Bioseq.Rng.int rng (15_000 - len) in
        let pat = Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)) in
        Alcotest.(check (list int)) "occurrences parity"
          (Codes.occurrences m pat) (Codes.occurrences pe pat)
      done;
      Alcotest.(check (array int)) "rib distribution parity"
        (E.rib_distribution m) (E.rib_distribution pe);
      let q = Bioseq.Synthetic.mutate ~rate:0.15 rng seq in
      let ms_m, _ = E.matching_statistics m q in
      let ms_p, _ = E.matching_statistics pe q in
      Alcotest.(check (array int)) "ms parity" ms_m ms_p;
      Spine.Persistent.close p)

let test_close_reopen () =
  with_tmp (fun path ->
      let rng = Bioseq.Rng.create 202 in
      let seq = Bioseq.Synthetic.genomic dna rng 8_000 in
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_seq p seq;
      let pat = Array.init 10 (fun k -> Bioseq.Packed_seq.get seq (3_000 + k)) in
      let before = occurrences p pat in
      let bpc_before = Spine.Persistent.bytes_per_char p in
      Spine.Persistent.close p;
      (* everything must come back from the file alone *)
      let p2 = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "length after reopen" 8_000
        (length p2);
      Alcotest.(check (list int)) "occurrences after reopen" before
        (occurrences p2 pat);
      Alcotest.(check (float 0.01)) "space accounting after reopen"
        bpc_before (Spine.Persistent.bytes_per_char p2);
      (* and the index must still be extensible online *)
      Spine.Persistent.append_string p2 "acgtacgt";
      Alcotest.(check int) "extended" 8_008 (length p2);
      Alcotest.(check bool) "new content queryable" true
        (contains p2 "acgtacgt");
      Spine.Persistent.close p2)

let test_reopen_extend_reopen () =
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_string p "aaccacaaca";
      Spine.Persistent.close p;
      let p2 = Spine.Persistent.open_ ~path () in
      Spine.Persistent.append_string p2 "aaccacaaca";
      Spine.Persistent.close p2;
      let p3 = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "two appends" 20 (length p3);
      (* the doubled string has the pattern across the seam *)
      Alcotest.(check bool) "seam substring" true
        (contains p3 "aacaaacc");
      Alcotest.(check bool) "paper false positive still rejected" false
        (contains p3 "accaa");
      Spine.Persistent.close p3)

let test_tiny_pool () =
  (* a pool of 8 pages = 32 kB holding an index several times larger:
     genuine paging, same answers *)
  with_tmp (fun path ->
      let rng = Bioseq.Rng.create 203 in
      let seq = Bioseq.Synthetic.genomic dna rng 30_000 in
      let p = Spine.Persistent.create ~frames:8 ~path dna in
      Spine.Persistent.append_seq p seq;
      let stats = Pagestore.Buffer_pool.stats (Spine.Persistent.pool p) in
      if stats.Pagestore.Buffer_pool.evictions = 0 then
        Alcotest.fail "expected evictions under a tiny pool";
      let m = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      for _ = 1 to 20 do
        let len = 3 + Bioseq.Rng.int rng 8 in
        let pos = Bioseq.Rng.int rng (30_000 - len) in
        let pat = Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)) in
        Alcotest.(check (list int)) "paged occurrences"
          (Codes.occurrences m pat) (occurrences p pat)
      done;
      Spine.Persistent.close p)

(* 8-byte pages behind a tiny pool: half the 6-byte LT entries and
   every rib row wider than a page straddle a page boundary, so both
   the word-wide and the byte-by-byte field paths carry the index.
   Answers must match the brute-force oracle, warm and after the pool
   is emptied. *)
let test_small_pages_oracle () =
  let byte = Bioseq.Alphabet.byte in
  let codes_of s = Array.init (String.length s) (fun i -> Char.code s.[i]) in
  let rng = Bioseq.Rng.create 20261017 in
  let n = 600 in
  let s = Oracles.random_string rng 4 n in
  let agree what p =
    let e = Spine.Persistent.engine p in
    for _ = 1 to 60 do
      let len = 1 + Bioseq.Rng.int rng 8 in
      let pat =
        if Oracles.coin rng then String.sub s (Bioseq.Rng.int rng (n - len)) len
        else Oracles.random_string rng 4 len
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s occurrences of %S" what pat)
        (Oracles.occurrences s pat) (Codes.occurrences e (codes_of pat))
    done;
    let q = Oracles.random_string rng 4 60 in
    let ms, _ =
      E.matching_statistics e (Bioseq.Packed_seq.of_string byte q)
    in
    Alcotest.(check (array int)) (what ^ " matching statistics")
      (Oracles.matching_statistics s q) ms
  in
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~frames:4 ~page_size:8 ~path byte in
      Spine.Persistent.append_string p s;
      agree "built" p;
      Spine.Persistent.flush p;
      Pagestore.Buffer_pool.drop (Spine.Persistent.pool p);
      agree "cold" p;
      Spine.Persistent.close p)

let test_errors () =
  (match Spine.Persistent.open_ ~path:"/nonexistent/nope.db" () with
   | exception Spine_error.Error (Spine_error.Io_failed _) -> ()
   | exception e ->
     Alcotest.failf "missing file: wrong exception %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "open of missing file must fail");
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_string p "acgt";
      Spine.Persistent.close p;
      (match length p with
       | exception Spine_error.Error (Spine_error.Closed _) -> ()
       | _ -> Alcotest.fail "use after close must be rejected"));
  (* a file without metadata is rejected *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 8192 'x');
      close_out oc;
      match Spine.Persistent.open_ ~path () with
      | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
      | _ -> Alcotest.fail "garbage file accepted")

(* Physical geometry of the file: every logical page carries a 16-byte
   checksum trailer, and metadata lives in two 4096-page shadow slots. *)
let phys_page = 4096 + 16
let slot_off slot = slot * 4096 * phys_page

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  let got = Unix.read fd b 0 1 in
  let v = if got = 1 then Char.code (Bytes.get b 0) else 0 in
  Bytes.set b 0 (Char.chr (v lxor 0x41));
  ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* A valid index whose on-disk image is then damaged: every corruption
   mode must surface as a typed [Spine_error.Error], never a crash or a
   silently wrong index. *)
let test_corrupt_metadata () =
  let expect_corrupt what path =
    match Spine.Persistent.open_ ~path () with
    | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
    | exception e ->
      Alcotest.failf "%s: wrong exception %s" what (Printexc.to_string e)
    | p ->
      Spine.Persistent.close p;
      Alcotest.failf "%s accepted" what
  in
  let fresh f =
    with_tmp (fun path ->
        let p = Spine.Persistent.create ~path dna in
        Spine.Persistent.append_string p "acgtacgtacgt";
        Spine.Persistent.close p;
        (* close committed generation 1, which lives in shadow slot B *)
        f path)
  in
  (* control: untouched file reopens *)
  fresh (fun path ->
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "control reopens" 12 (length p);
      Alcotest.(check int) "generation recovered" 1
        (Spine.Persistent.generation p);
      Spine.Persistent.close p);
  (* the only committed metadata slot damaged: nothing to recover *)
  fresh (fun path ->
      flip_byte path (slot_off 1);
      expect_corrupt "index with damaged sole metadata slot" path);
  (* physical truncation: the device zero-fills past EOF *)
  fresh (fun path ->
      Unix.truncate path 6;
      expect_corrupt "physically truncated file" path);
  (* a damaged sequence page is caught during recovery's mirror rebuild *)
  fresh (fun path ->
      let seq_base = 16384 + (5 * 262144) in
      flip_byte path ((seq_base * phys_page) + 100);
      expect_corrupt "index with bit-flipped sequence page" path);
  (* a damaged Link-Table page is caught at first query, not silently
     decoded *)
  fresh (fun path ->
      flip_byte path ((16384 * phys_page) + 100);
      let p = Spine.Persistent.open_ ~path () in
      (match occurrences p [| 0; 1; 2; 3 |] with
       | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
       | occs ->
         Alcotest.failf "query over flipped LT page returned %d hits"
           (List.length occs));
      Spine.Persistent.close p)

(* Shadow-slot fallback: if the newest metadata generation is torn, the
   previous one is recovered instead of failing. *)
let test_shadow_fallback () =
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_string p "acgtacgtacgt";
      Spine.Persistent.flush p;  (* generation 1 -> slot B *)
      Spine.Persistent.close p;  (* generation 2 -> slot A *)
      flip_byte path (slot_off 0);
      let p2 = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "fell back one generation" 1
        (Spine.Persistent.generation p2);
      Alcotest.(check int) "previous generation length" 12
        (length p2);
      Alcotest.(check bool) "previous generation queryable" true
        (contains p2 "gtacgt");
      Spine.Persistent.close p2)

module Paged_valid = Spine.Validate.Make (Spine.Paged_store.P)

let byte = Bioseq.Alphabet.byte
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* Overflow labels whose keys need more than 32 bits — PTs above 0xFFFF
   in the slots 60 and up of a wide RT4 row — come back through the
   side log. *)
let test_wide_keys_reopen () =
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~path byte in
      Spine.Persistent.append_string p "xy";
      let store = Spine.Persistent.store p in
      for code = 0 to 99 do
        Spine.Paged_store.P.add_rib store 2 ~code ~dest:1 ~pt:(70_000 + code)
      done;
      Spine.Persistent.close p;
      let p = Spine.Persistent.open_ ~path () in
      let store = Spine.Persistent.store p in
      for code = 0 to 99 do
        Alcotest.(check (option (pair int int)))
          (Printf.sprintf "rib %d after reopen" code)
          (Some (1, 70_000 + code))
          (Spine.Paged_store.P.find_rib store 2 code)
      done;
      Spine.Persistent.close p)

(* A DNA index grown in chunks, a flush after each, from the start to
   [total] chars; returns the index and the oracle over its text. *)
let chunked_build ?frames ?page_size ~path ~chunk total =
  let rng = Bioseq.Rng.create 20261018 in
  let seq = Bioseq.Synthetic.genomic dna rng total in
  let p = Spine.Persistent.create ?frames ?page_size ~path dna in
  let pos = ref 0 in
  while !pos < total do
    let stop = min total (!pos + chunk) in
    for i = !pos to stop - 1 do
      Spine.Persistent.append p (Bioseq.Packed_seq.get seq i)
    done;
    Spine.Persistent.flush p;
    pos := stop
  done;
  (p, seq)

(* [probes] random substrings of [seq]'s first [len] chars answer as a
   fresh in-memory build of that prefix does *)
let check_parity ?(probes = 60) what p seq len =
  let prefix =
    Bioseq.Packed_seq.of_codes dna
      (Array.init len (fun i -> Bioseq.Packed_seq.get seq i))
  in
  let oracle = Spine.Compact.engine (Spine.Compact.of_seq prefix) in
  let rng = Bioseq.Rng.create (len + 1) in
  Alcotest.(check int) (what ^ ": length") len (length p);
  for _ = 1 to probes do
    let plen = 3 + Bioseq.Rng.int rng 9 in
    let pos = Bioseq.Rng.int rng (len - plen) in
    let pat = Array.init plen (fun j -> Bioseq.Packed_seq.get seq (pos + j)) in
    Alcotest.(check (list int)) (what ^ ": occurrences")
      (Codes.occurrences oracle pat) (occurrences p pat)
  done

(* Each page region holds [data_span] pages: at 8-byte pages the Link
   Table's region fits 2^21 / 6 = 349,525 six-byte entries, one per
   node, so 349,524 characters.  The next append must fail typed,
   naming the region, instead of writing into the first Rib Table's
   pages.  With [flush_every], the same text is flushed every that many
   chars and still reaches the Link Table's bound first: the side log
   compacts into whichever half the committed log is not in, so no
   compaction needs journal entries, and its live entries fit a half.
   The last flushed state then reopens with parity. *)
let region_bound ?flush_every () =
  let entries =
    Ref_layout.data_span * 8 / Spine.Compact_store.lt_entry_bytes
  in
  let rng = Bioseq.Rng.create 17 in
  let seq = Bioseq.Packed_seq.create dna in
  with_tmp (fun path ->
      let p =
        Spine.Persistent.create ~frames:(1 lsl 19) ~page_size:8 ~path dna
      in
      (match
         for _ = 1 to entries + 100 do
           let c = Bioseq.Rng.int rng 4 in
           Spine.Persistent.append p c;
           Bioseq.Packed_seq.append seq c;
           match flush_every with
           | Some n when Bioseq.Packed_seq.length seq mod n = 0 ->
             Spine.Persistent.flush p
           | _ -> ()
         done
       with
       | () -> Alcotest.fail "the Link Table outgrew its region"
       | exception
           Spine_error.Error (Spine_error.Region_full { region; capacity })
         ->
         Alcotest.(check string) "the full region" "lt" region;
         Alcotest.(check int) "its capacity"
           (Ref_layout.data_span * 8) capacity);
      Alcotest.(check int) "every node that fits was appended" (entries - 1)
        (Bioseq.Packed_seq.length seq);
      match flush_every with
      | None -> ()
      | Some n ->
        (* abandon the failed session: the last flush recovers *)
        Pagestore.Device.close (Spine.Persistent.device p);
        let r = Spine.Persistent.scrub ~path () in
        List.iter
          (fun half ->
            match
              List.find_opt (fun g -> g.Spine.Persistent.region = half)
                r.Spine.Persistent.regions
            with
            | Some g ->
              Alcotest.(check bool) (half ^ " holds a log") true
                (g.Spine.Persistent.ok > 0)
            | None -> Alcotest.failf "no %s row in the scrub report" half)
          [ "side/a"; "side/b" ];
        let p = Spine.Persistent.open_ ~frames:(1 lsl 19) ~path () in
        Codes.valid (Paged_valid.check (Spine.Persistent.store p));
        check_parity "reopened" p seq ((entries - 1) / n * n);
        Spine.Persistent.close p)

let test_region_bound () = region_bound ()
let test_flushed_to_the_region_bound () = region_bound ~flush_every:10_000 ()

(* At 8-byte pages a metadata slot holds 32,736 bytes.  Were the side
   tables kept there, at 8 bytes per extrib anchor, an index with more
   than about 4,000 anchors could not commit; the side log has no such
   ceiling.
   Grow past it a flush at a time, then reopen at the recorded page
   size and check parity. *)
let test_side_tables_outgrow_a_slot () =
  let slot_bytes = (4096 * 8) - 32 in
  with_tmp (fun path ->
      let total = 34_000 in
      let p, seq =
        chunked_build ~frames:(1 lsl 16) ~page_size:8 ~path ~chunk:2_000 total
      in
      let anchors =
        Xutil.Int_tbl.length (Spine.Persistent.store p).Spine.Paged_store.P.anchors
      in
      if anchors * 8 <= slot_bytes then
        Alcotest.failf "only %d anchors: the test must pass the old ceiling"
          anchors;
      Spine.Persistent.close p;
      let p = Spine.Persistent.open_ ~frames:(1 lsl 16) ~path () in
      Alcotest.(check int) "reopened at the recorded page size" 8
        (Pagestore.Device.page_size (Spine.Persistent.device p));
      Alcotest.(check int) "anchors replayed" anchors
        (Xutil.Int_tbl.length (Spine.Persistent.store p).Spine.Paged_store.P.anchors);
      Codes.valid (Paged_valid.check (Spine.Persistent.store p));
      check_parity "reopened" p seq total;
      Spine.Persistent.close p)

(* The page size is in the file: [open_] and [scrub] need not be told. *)
let test_recorded_page_size () =
  with_tmp (fun path ->
      let p, seq = chunked_build ~page_size:128 ~path ~chunk:1_000 2_000 in
      Spine.Persistent.close p;
      let r = Spine.Persistent.scrub ~path () in
      Alcotest.(check int) "scrub finds the generation" 3 r.Spine.Persistent.report_generation;
      Alcotest.(check int) "and no damage" 0
        (r.Spine.Persistent.damaged_pages + r.Spine.Persistent.stale_pages);
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "open_ reads 128-byte pages" 128
        (Pagestore.Device.page_size (Spine.Persistent.device p));
      check_parity "reopened" p seq 2_000;
      Spine.Persistent.close p)

(* The side log has a region too, in two halves.  Overflowed labels
   churn it (each row migration drops and re-adds them), so it compacts
   into the other half when its half fills; once the live entries alone
   fill a half past seven eighths it refuses typed, naming the region.
   At 8-byte pages that takes about 57,000 live overflow labels: rib
   PTs above 0xFFFF, 150 on each node. *)
let test_side_log_bound () =
  let capacity = (Ref_layout.region "side/a").span * 8 in
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~frames:(1 lsl 19) ~page_size:8 ~path byte in
      let rng = Bioseq.Rng.create 23 in
      Spine.Persistent.append_string p (Oracles.random_string rng 26 800);
      let store = Spine.Persistent.store p in
      match
        for node = 1 to 800 do
          for code = 0 to 149 do
            Spine.Paged_store.P.add_rib store node ~code ~dest:1 ~pt:70_000
          done
        done
      with
      | () -> Alcotest.fail "the side log outgrew its region"
      | exception
          Spine_error.Error (Spine_error.Region_full { region; capacity = c })
        ->
        Alcotest.(check string) "the full region" "side" region;
        Alcotest.(check int) "its capacity" capacity c;
        let live =
          Xutil.Int_tbl.length store.Spine.Paged_store.P.overflow
          + Xutil.Int_tbl.length store.Spine.Paged_store.P.anchors
        in
        Alcotest.(check bool) "live entries fill 7/8 of it" true
          (live * 12 > capacity / 8 * 7))

(* A crashed session's pages just past the committed end of every data
   region are erased on reopen.  The regions come from the tests' own
   reference layout, not the library's region table, so a region the
   table leaves out keeps its debris and shows up stale. *)
let test_debris_erased_everywhere () =
  let bases =
    List.filter_map
      (fun (r : Ref_layout.region) ->
        if r.journaled then Some (r.name, r.first) else None)
      Ref_layout.regions
  in
  with_tmp (fun path ->
      let rng = Bioseq.Rng.create 207 in
      let seq = Bioseq.Synthetic.genomic dna rng 6_000 in
      let oracle = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_seq p seq;
      Spine.Persistent.flush p;
      (* written pages form a dense prefix of each region, so its first
         hole is just past the committed end; a page written there now
         carries the session's epoch, beyond the committed ceiling *)
      let dev = Spine.Persistent.device p in
      let rec past_end page =
        match Pagestore.Device.verify_page dev page with
        | `Unwritten -> page
        | _ -> past_end (page + 1)
      in
      let planted =
        List.map
          (fun (name, base) ->
            let page = past_end base in
            Pagestore.Device.write dev page (Bytes.make 4096 'x');
            (name, page))
          bases
      in
      (* the session dies without another commit *)
      Pagestore.Device.close dev;
      let stale (r : Spine.Persistent.report) =
        List.concat_map
          (fun (reg : Spine.Persistent.region_report) ->
            List.map (fun (page, _) -> (reg.region, page)) reg.stale)
          r.regions
      in
      Alcotest.(check (list (pair string int))) "scrub sees the debris"
        planted (stale (Spine.Persistent.scrub ~path ()));
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check (list (pair string int))) "reopen erased it" []
        (stale (Spine.Persistent.verify p));
      let check_queries p =
        for _ = 1 to 30 do
          let len = 3 + Bioseq.Rng.int rng 8 in
          let pos = Bioseq.Rng.int rng (6_000 - len) in
          let pat = Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)) in
          Alcotest.(check (list int)) "occurrences match the oracle"
            (Codes.occurrences oracle pat) (occurrences p pat)
        done
      in
      check_queries p;
      (* the tables grow over the erased pages (the LT by 18,000 bytes) *)
      Spine.Persistent.append_string p (String.make 3_000 'a');
      Spine.Persistent.close p;
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "extended" 9_000 (length p);
      check_queries p;
      Spine.Persistent.close p)

(* The file an online build leaves loads as the very tables the
   in-memory build of the same text makes.  The load and a scrub only
   read the file: its modification time stays put. *)
let test_online_build_loads () =
  List.iter
    (fun (name, seq) ->
      Index_file.with_path (fun path ->
          let p =
            Spine.Persistent.create ~path (Bioseq.Packed_seq.alphabet seq)
          in
          Spine.Persistent.append_seq p seq;
          Spine.Persistent.close p;
          Unix.utimes path 1.0 1.0;
          Alcotest.(check (list string)) (name ^ ": same as Compact.of_seq") []
            (Index_file.differences (Spine.Compact.of_seq seq)
               (Spine.Persistent.load ~path));
          let r = Spine.Persistent.scrub ~path () in
          Alcotest.(check int) (name ^ ": scrubs clean") 0
            (r.Spine.Persistent.damaged_pages + r.Spine.Persistent.stale_pages);
          Alcotest.(check (float 0.)) (name ^ ": not written to") 1.0
            (Unix.stat path).Unix.st_mtime))
    (Index_file.texts ())

(* A file written by [of_compact] is a live index: it grows online
   through a flush, reopens, and holds what a build of the whole text
   holds. *)
let test_of_compact_grows_online () =
  let rng = Bioseq.Rng.create 215 in
  let text = Bioseq.Synthetic.genomic dna rng 6000 in
  let part a b =
    Bioseq.Packed_seq.of_string dna
      (Bioseq.Packed_seq.sub_string text ~pos:a ~len:(b - a))
  in
  Index_file.with_path (fun path ->
      let p =
        Spine.Persistent.of_compact ~path (Spine.Compact.of_seq (part 0 3000))
      in
      Spine.Persistent.append_seq p (part 3000 4500);
      Spine.Persistent.flush p;
      Spine.Persistent.append_seq p (part 4500 5000);
      Spine.Persistent.close p;
      let p = Spine.Persistent.open_ ~path () in
      Spine.Persistent.append_seq p (part 5000 6000);
      Spine.Persistent.close p;
      let r = Spine.Persistent.scrub ~path () in
      Alcotest.(check int) "scrubs clean" 0
        (r.Spine.Persistent.damaged_pages + r.Spine.Persistent.stale_pages);
      Alcotest.(check (list string)) "same as a build of the whole text" []
        (Index_file.differences (Spine.Compact.of_seq text)
           (Spine.Persistent.load ~path)))

(* A file whose sequence row widens online.  A one-string separator
   layout index holds its DNA at 2 bits a code; the separator that
   starts a second string re-packs the row at 4 bits, so the whole
   sequence region is written again, and the characters after it land
   at the new width.  The file then loads as the in-memory index of the
   same strings, scrubs clean and answers the same matching
   statistics. *)
let test_row_widens_online () =
  let rng = Bioseq.Rng.create 217 in
  let text n =
    Bioseq.Packed_seq.sub_string ~pos:0 ~len:n
      (Bioseq.Synthetic.genomic dna (Bioseq.Rng.split rng) n)
  in
  let s1 = text 3000 and s2 = text 1500 and s3 = text 1000 in
  let width p = Bioseq.Packed_seq.width (Spine.Persistent.sequence p) in
  Index_file.with_path (fun path ->
      Spine.Persistent.close
        (Spine.Persistent.of_compact ~path (Codes.generalized dna [ s1 ]));
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check int) "one string at 2 bits" 2 (width p);
      Spine.Persistent.append p (Bioseq.Alphabet.separator dna);
      Spine.Persistent.append_string p s2;
      Alcotest.(check int) "widened by the separator" 4 (width p);
      Spine.Persistent.flush p;
      Spine.Persistent.append_string p s3;
      Spine.Persistent.close p;
      let whole = Codes.generalized dna [ s1; s2 ^ s3 ] in
      Alcotest.(check (list string)) "same as the in-memory index" []
        (Index_file.differences whole (Spine.Persistent.load ~path));
      let r = Spine.Persistent.scrub ~path () in
      Alcotest.(check int) "scrubs clean" 0
        (r.Spine.Persistent.damaged_pages + r.Spine.Persistent.stale_pages);
      let q = Bioseq.Packed_seq.of_string dna (text 400 ^ s2 ^ text 400) in
      let p = Spine.Persistent.open_ ~path () in
      Alcotest.(check (array int)) "same matching statistics"
        (fst (E.matching_statistics (Spine.Compact.engine whole) q))
        (fst (E.matching_statistics (Spine.Persistent.engine p) q));
      Spine.Persistent.close p)

(* Only metadata version 5 is read.  Both slots of a closed file are
   forged as version 4 — the version word rewritten, each page resealed
   at its own epoch — and then [load] and [open_] each fail typed,
   naming the version, and [scrub] finds no generation to recover.
   None of them writes: the slots' bytes, the file's length and its
   modification time stay as they were. *)
let test_other_versions_refused () =
  with_tmp (fun path ->
      let p = Spine.Persistent.create ~path dna in
      Spine.Persistent.append_string p "acgtacgtacgt";
      Spine.Persistent.flush p;  (* generation 1 -> slot B *)
      Spine.Persistent.close p;  (* generation 2 -> slot A *)
      let dev =
        Pagestore.Device.create_file ~checksums:true ~page_size:4096 ~path ()
      in
      List.iter
        (fun page ->
          match Pagestore.Device.read_slot_any dev page with
          | `Invalid -> Alcotest.fail "a metadata slot does not validate"
          | `Valid (data, epoch) ->
            Alcotest.(check int) "written as version 5" 5 (get32 data 4);
            set32 data 4 4;
            Pagestore.Device.set_epoch dev epoch;
            Pagestore.Device.write dev page data)
        [ 0; 4096 ];
      Pagestore.Device.close dev;
      Unix.utimes path 1.0 1.0;
      let image () =
        In_channel.with_open_bin path (fun ic ->
            let page off =
              In_channel.seek ic (Int64.of_int off);
              really_input_string ic phys_page
            in
            (page (slot_off 0), page (slot_off 1), In_channel.length ic))
      in
      let before = image () in
      let why = "unsupported metadata version 4" in
      let refused what f =
        match f () with
        | exception Spine_error.Error (Spine_error.Corrupt { detail; _ }) ->
          Alcotest.(check string) (what ^ ": the diagnosis")
            (Printf.sprintf "no recoverable metadata (slot A: %s; slot B: %s)"
               why why)
            detail
        | exception e ->
          Alcotest.failf "%s: wrong exception %s" what (Printexc.to_string e)
        | () -> Alcotest.failf "%s accepted a version 4 file" what
      in
      refused "load" (fun () -> ignore (Spine.Persistent.load ~path));
      refused "open_" (fun () ->
          Spine.Persistent.close (Spine.Persistent.open_ ~path ()));
      let r = Spine.Persistent.scrub ~path () in
      Alcotest.(check int) "scrub: no generation" (-1)
        r.Spine.Persistent.report_generation;
      List.iter
        (fun (slot, state) ->
          match state with
          | Spine.Persistent.Slot_invalid w ->
            Alcotest.(check string) (Printf.sprintf "scrub: slot %d" slot) why w
          | Spine.Persistent.Slot_valid _ ->
            Alcotest.failf "scrub: slot %d validates" slot)
        r.Spine.Persistent.slots;
      Alcotest.(check bool) "the slots and the length are unchanged" true
        (before = image ());
      Alcotest.(check (float 0.)) "not written to" 1.0
        (Unix.stat path).Unix.st_mtime)

let suite =
  [ Alcotest.test_case "parity with the in-memory index" `Quick
      test_parity_with_memory
  ; Alcotest.test_case "close / reopen durability" `Quick test_close_reopen
  ; Alcotest.test_case "reopen, extend online, reopen again" `Quick
      test_reopen_extend_reopen
  ; Alcotest.test_case "tiny pool pages for real" `Quick test_tiny_pool
  ; Alcotest.test_case "small pages match the oracle" `Quick
      test_small_pages_oracle
  ; Alcotest.test_case "error handling" `Quick test_errors
  ; Alcotest.test_case "corrupt metadata rejected" `Quick
      test_corrupt_metadata
  ; Alcotest.test_case "shadow-slot fallback recovers previous generation"
      `Quick test_shadow_fallback
  ; Alcotest.test_case "wide overflow keys survive reopen" `Quick
      test_wide_keys_reopen
  ; Alcotest.test_case "a full region fails typed" `Slow test_region_bound
  ; Alcotest.test_case "side tables outgrow a metadata slot" `Quick
      test_side_tables_outgrow_a_slot
  ; Alcotest.test_case "open_ and scrub read the page size" `Quick
      test_recorded_page_size
  ; Alcotest.test_case "a full side log fails typed" `Quick
      test_side_log_bound
  ; Alcotest.test_case "flushed chunks reach the region bound" `Slow
      test_flushed_to_the_region_bound
  ; Alcotest.test_case "debris in every data region is erased" `Quick
      test_debris_erased_everywhere
  ; Alcotest.test_case "online build loads as of_seq" `Quick
      test_online_build_loads
  ; Alcotest.test_case "an of_compact file grows online" `Quick
      test_of_compact_grows_online
  ; Alcotest.test_case "other metadata versions are refused unchanged" `Quick
      test_other_versions_refused
  ; Alcotest.test_case "a row widens online" `Quick test_row_widens_online
  ]
