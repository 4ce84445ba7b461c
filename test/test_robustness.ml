(* Robustness: the fault-injection suite.

   - a built index file with a byte flipped in any written page: the
     load fails typed, never decodes the damage;
   - a crash-point matrix: the persistent index is killed (writes
     frozen) at every single device write of a multi-flush workload and
     reopened — each reopen must recover a flushed generation exactly
     or fail with a typed [Corrupt], never answer from garbage;
   - seeded bit-flip trials over every written on-disk region: scrub
     must see the damage and queries must stay right or fail typed;
   - typed buffer-pool exhaustion, transient-I/O retries, torn
     metadata writes and the [SPINE_FAULTS] environment grammar;
   - data-race freedom of concurrent read-only queries. *)

module P = Spine.Persistent
module E = Spine.Engine
module FD = Pagestore.Fault_device

let dna = Bioseq.Alphabet.dna

(* engine shorthands over a persistent index *)
let length p = E.length (P.engine p)
let occurrences p pat = Codes.occurrences (P.engine p) pat
let contains p s = Codes.contains_string (P.engine p) s

let with_tmp f =
  let path = Filename.temp_file "spine_robust" ".db" in
  let result = try f path with e -> (try Sys.remove path with _ -> ()); raise e in
  (try Sys.remove path with _ -> ());
  result

(* Physical geometry (mirrors Pagestore.Device): 4096-byte pages
   with a 16-byte trailer, of which the last 4 bytes are reserved and
   not covered by the checksum. *)
let phys_page = 4096 + 16

let flip_bit path off mask =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  let got = Unix.read fd b 0 1 in
  let v = if got = 1 then Char.code (Bytes.get b 0) else 0 in
  Bytes.set b 0 (Char.chr (v lxor mask));
  ignore (Unix.LargeFile.lseek fd (Int64.of_int off) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* --- crash-point recovery matrix ------------------------------------ *)

(* Deterministic multi-flush workloads; the crash matrix freezes the
   file image at every single device write of one.  [frames] controls
   buffer-pool pressure: the default pool never evicts between flushes,
   a tiny pool constantly writes dirty committed pages back in place —
   the case the preimage journal exists for. *)
let crash_seq total =
  Bioseq.Synthetic.genomic dna (Bioseq.Rng.create 4040) total

(* The workload's index: a fresh one at [page_size], or, with [base],
   the file [of_compact] writes of the first [base] chars (at the
   default page size), closed and reopened. *)
let start_index ?frames ?page_size ?(base = 0) ~seq path =
  if base = 0 then P.create ?frames ?page_size ~path dna
  else begin
    let prefix =
      Bioseq.Packed_seq.of_codes dna
        (Array.init base (fun k -> Bioseq.Packed_seq.get seq k))
    in
    P.close (P.of_compact ~path (Spine.Compact.of_seq prefix));
    P.open_ ?frames ~path ()
  end

let run_crash_workload ?frames ?page_size ?(base = 0) ~chunks ~seq path
    fault =
  let p = start_index ?frames ?page_size ~base ~seq path in
  let frozen () =
    match fault with Some f -> FD.frozen f | None -> false
  in
  (match fault with
   | Some f -> FD.attach f (P.device p)
   | None -> ());
  (* Once a [Crash] arm freezes the image the simulated process is
     dead: nothing it would do afterwards can reach the disk, and under
     a small pool it may even trip over its own stale re-reads.  Stop
     at the first sign of the freeze and abandon the handle — exactly
     what kill -9 leaves behind. *)
  let pos = ref base in
  match
    List.iter
      (fun n ->
        for _ = 1 to n do
          if frozen () then raise Exit;
          P.append p (Bioseq.Packed_seq.get seq !pos);
          incr pos
        done;
        P.flush p)
      chunks
  with
  | () -> P.close p
  | exception _ when frozen () -> Pagestore.Device.close (P.device p)

module Paged_valid = Spine.Validate.Make (Spine.Paged_store.P)

(* A reopened index passes the structural invariants, and its file
   walk finds no damaged and no stale page. *)
let reopened_sound what p =
  Codes.valid (Paged_valid.check (P.store p));
  let r = P.verify p in
  let bad =
    List.concat_map
      (fun (g : P.region_report) ->
        List.map (fun (page, d) -> Printf.sprintf "%s %d: %s" g.region page d)
          g.damaged
        @ List.map
            (fun (page, e) -> Printf.sprintf "%s %d: stale at epoch %d" g.region page e)
            g.stale)
      r.P.regions
  in
  Alcotest.(check (list string)) (what ^ ": damaged and stale pages") [] bad

(* Freeze the image at every write of the workload, reopen, and demand
   recovery of a flushed prefix with exact query parity.  A typed
   [Corrupt] on reopen is tolerated only for crashes that can destroy
   the sole metadata slot (nothing was ever fully committed), so never
   over a [base] file; once [open_] succeeds, the journal rollback must
   have put the committed prefix back byte for byte, so queries may
   never fail OR lie. *)
let crash_matrix ?frames ?page_size ?(base = 0) ~chunks ~require_evictions
    ~writes ()
    =
  let total = List.fold_left ( + ) base chunks in
  let seq = crash_seq total in
  (* flushed lengths and their in-memory oracles *)
  let flush_points =
    List.rev
      (List.fold_left (fun acc n -> (List.hd acc + n) :: acc) [ base ] chunks)
  in
  let flush_points = List.filter (fun l -> l > 0) flush_points in
  let oracles =
    List.map
      (fun l ->
        let prefix =
          Bioseq.Packed_seq.of_codes dna
            (Array.init l (fun k -> Bioseq.Packed_seq.get seq k))
        in
        (l, Spine.Compact.engine (Spine.Compact.of_seq prefix)))
      flush_points
  in
  (* count the workload's device writes once, fault-free, and fold each
     write's page and physical image into a CRC-32C: the write sequence
     the matrix below cuts at every point *)
  let total_writes, evictions =
    with_tmp (fun path ->
        let p = start_index ?frames ?page_size ~base ~seq path in
        let count = ref 0 and digest = ref 0 in
        let page_id = Bytes.create 8 in
        Pagestore.Device.set_hooks (P.device p)
          (Some
             { Pagestore.Device.on_read = (fun ~page:_ -> ())
             ; on_write =
                 (fun ~page ~phys ->
                   incr count;
                   Bytes.set_int64_le page_id 0 (Int64.of_int page);
                   digest := Xutil.Crc32c.digest ~seed:!digest page_id ~pos:0 ~len:8;
                   digest :=
                     Xutil.Crc32c.digest ~seed:!digest phys ~pos:0
                       ~len:(Bytes.length phys);
                   Pagestore.Device.Write_through)
             });
        let pos = ref base in
        List.iter
          (fun n ->
            for _ = 1 to n do
              P.append p (Bioseq.Packed_seq.get seq !pos);
              incr pos
            done;
            P.flush p)
          chunks;
        let evictions =
          (Pagestore.Buffer_pool.stats (P.pool p)).Pagestore.Buffer_pool
          .evictions
        in
        P.close p;
        Alcotest.(check (pair int int)) "device writes and their digest"
          writes (!count, !digest);
        (!count, evictions))
  in
  Alcotest.(check bool) "workload writes enough pages to matter" true
    (total_writes > 10);
  if require_evictions then
    Alcotest.(check bool)
      "pool pressure causes evictions between flushes" true (evictions > 0);
  let rng = Bioseq.Rng.create 4041 in
  let clean_failures = ref 0 in
  let recovered_full = ref 0 in
  let recovered_partial = ref 0 in
  for k = 0 to total_writes - 1 do
    with_tmp (fun path ->
        let f = FD.create [ FD.arm ~after:k FD.Crash ] in
        run_crash_workload ?frames ?page_size ~base ~chunks ~seq path (Some f);
        Alcotest.(check bool)
          (Printf.sprintf "crash %d froze the image" k)
          true (FD.frozen f);
        match P.open_ ?frames ~path () with
        | exception Spine_error.Error (Spine_error.Corrupt _) when base = 0 ->
          incr clean_failures
        | exception e ->
          Alcotest.failf "crash at write %d: reopen raised %s"
            k (Printexc.to_string e)
        | p ->
          reopened_sound (Printf.sprintf "crash %d" k) p;
          let len = length p in
          (match List.assoc_opt len oracles with
           | None ->
             Alcotest.failf
               "crash at write %d: recovered length %d is not a flushed state"
               k len
           | Some oracle ->
             if len = total then incr recovered_full
             else incr recovered_partial;
             (* the journal rollback restored the committed prefix, so
                every answer must match the oracle — no typed-failure
                escape hatch, and certainly no silent lie *)
             for _ = 1 to 4 do
               let plen = 3 + Bioseq.Rng.int rng 6 in
               let pos = Bioseq.Rng.int rng (len - plen) in
               let pat =
                 Array.init plen (fun j -> Bioseq.Packed_seq.get seq (pos + j))
               in
               Alcotest.(check (list int))
                 (Printf.sprintf "crash %d: query parity" k)
                 (Codes.occurrences oracle pat)
                 (occurrences p pat)
             done);
          (try P.close p with Spine_error.Error _ -> ()))
  done;
  (* the matrix must have exercised both full recovery and shadow-slot
     fallback to an earlier generation *)
  Alcotest.(check bool) "some crash points recover the final flush" true
    (!recovered_full >= 1);
  Alcotest.(check bool) "some crash points fall back to an earlier flush"
    true (!recovered_partial >= 1);
  Alcotest.(check bool) "recovery is not universally impossible" true
    (!clean_failures < total_writes)

let test_crash_matrix () =
  crash_matrix ~chunks:[ 500; 400; 300 ] ~require_evictions:false
    ~writes:(62, 2758511414) ()

let test_crash_matrix_evictions () =
  (* 2500 chars against 8 frames: the build keeps writing dirty
     committed pages back in place between flushes *)
  crash_matrix ~frames:8 ~chunks:[ 850; 850; 800 ] ~require_evictions:true
    ~writes:(222, 1381470375) ()

(* The same matrices at 64-byte pages, which [open_] reads back from
   the file: the side log, each flush's batch of journal captures and
   its runs of data pages all span many pages, so a crash lands inside
   every one of them. *)
let test_crash_matrix_small_pages () =
  crash_matrix ~page_size:64 ~chunks:[ 250; 200; 150 ]
    ~require_evictions:false ~writes:(553, 1681492670) ()

let test_crash_matrix_small_pages_evictions () =
  crash_matrix ~page_size:64 ~frames:8 ~chunks:[ 250; 200; 150 ]
    ~require_evictions:true ~writes:(1603, 793654092) ()

(* The file [spine build] writes, taken up online: [of_compact] writes
   the first 850 chars and [close] commits them; a session reopens it
   with 8 frames and appends two more flushed chunks, and the image
   freezes at each of that session's device writes. *)
let test_crash_matrix_of_compact () =
  crash_matrix ~base:850 ~frames:8 ~chunks:[ 850; 800 ]
    ~require_evictions:true ~writes:(208, 973663506) ()

(* A crash inside the flush that compacts the side log.  The first
   flush commits about 10,000 log records in half A; the second finds
   more than 16,384 and rewrites the live entries into half B before it
   writes anything.  So a crash at any of that flush's writes into half
   B must recover the first flush, from half A, and the recovered index
   must then take the rest of the text, compacting into half B again
   over the crashed session's debris. *)
let test_crash_in_side_compaction () =
  let first = 20_000 and total = 40_000 in
  let seq = crash_seq total in
  let side_b, side_end =
    let r = Ref_layout.region "side/b" in
    (r.first, r.first + r.span)
  in
  let prefix l =
    Spine.Compact.engine
      (Spine.Compact.of_seq
         (Bioseq.Packed_seq.of_codes dna
            (Array.init l (fun k -> Bioseq.Packed_seq.get seq k))))
  in
  let oracles = [ (first, prefix first); (total, prefix total) ] in
  let append p lo hi =
    for i = lo to hi - 1 do P.append p (Bioseq.Packed_seq.get seq i) done
  in
  (* the second flush's writes into half B, by write index *)
  let targets =
    with_tmp (fun path ->
        let p = P.create ~path dna in
        let count = ref 0 and hits = ref [] and armed = ref false in
        Pagestore.Device.set_hooks (P.device p)
          (Some
             { Pagestore.Device.on_read = (fun ~page:_ -> ())
             ; on_write =
                 (fun ~page ~phys:_ ->
                   if !armed && page >= side_b && page < side_end then
                     hits := !count :: !hits;
                   incr count;
                   Pagestore.Device.Write_through)
             });
        append p 0 first;
        P.flush p;
        append p first total;
        armed := true;
        P.flush p;
        P.close p;
        List.rev !hits)
  in
  Alcotest.(check bool) "the second flush compacts into half B" true
    (List.length targets > 1);
  let check_parity what p len =
    let oracle = List.assoc len oracles in
    let rng = Bioseq.Rng.create len in
    for _ = 1 to 8 do
      let plen = 3 + Bioseq.Rng.int rng 6 in
      let pos = Bioseq.Rng.int rng (len - plen) in
      let pat = Array.init plen (fun j -> Bioseq.Packed_seq.get seq (pos + j)) in
      Alcotest.(check (list int)) what (Codes.occurrences oracle pat)
        (occurrences p pat)
    done
  in
  List.iter
    (fun k ->
      with_tmp (fun path ->
          let f = FD.create [ FD.arm ~after:k FD.Crash ] in
          run_crash_workload ~chunks:[ first; total - first ] ~seq path
            (Some f);
          Alcotest.(check bool) (Printf.sprintf "crash %d froze the image" k)
            true (FD.frozen f);
          let p = P.open_ ~path () in
          reopened_sound (Printf.sprintf "crash %d" k) p;
          Alcotest.(check int) (Printf.sprintf "crash %d: the first flush" k)
            first (length p);
          check_parity (Printf.sprintf "crash %d: parity" k) p first;
          append p first total;
          P.close p;
          let p = P.open_ ~path () in
          reopened_sound (Printf.sprintf "crash %d: after the rest" k) p;
          check_parity (Printf.sprintf "crash %d: parity after the rest" k) p
            total;
          P.close p))
    targets

(* --- eviction overwrite of committed pages + crash ------------------- *)

(* The scenario the preimage journal exists for, without any fault
   injection: flush, keep appending under a tiny pool so dirty
   committed tail/rib pages are written back in place, then simulate a
   kill -9 by reopening the path while the dirty handle is simply
   abandoned.  The reopen must restore the flushed state exactly. *)
let test_eviction_overwrite_recovery () =
  with_tmp (fun path ->
      let total = 7000 and committed = 5000 in
      let seq = crash_seq total in
      let code i = Bioseq.Packed_seq.get seq i in
      let oracle_at l =
        Spine.Compact.engine
          (Spine.Compact.of_seq
             (Bioseq.Packed_seq.of_codes dna (Array.init l code)))
      in
      let p = P.create ~frames:8 ~path dna in
      for i = 0 to 2999 do P.append p (code i) done;
      P.flush p;
      for i = 3000 to committed - 1 do P.append p (code i) done;
      P.flush p;
      (* window 3: overwrite committed pages via evictions, never commit *)
      for i = committed to total - 1 do P.append p (code i) done;
      let evicted =
        (Pagestore.Buffer_pool.stats (P.pool p)).Pagestore.Buffer_pool
        .evictions
      in
      Alcotest.(check bool) "committed pages were rewritten in place" true
        (evicted > 0);
      (* the on-disk image now carries post-flush debris over committed
         pages; the journal must have captured their preimages *)
      let r = P.verify p in
      (match
         List.find_opt (fun reg -> String.equal reg.P.region "journal")
           r.P.regions
       with
       | Some reg ->
         Alcotest.(check bool) "journal holds captured preimages" true
           (reg.P.ok > 0)
       | None -> Alcotest.fail "no journal region in the scrub report");
      (* abandon the dirty handle (kill -9): no flush, no close *)
      Pagestore.Device.close (P.device p);
      (* a read-only load cannot roll the overwrites back: it refuses *)
      (match P.load ~path with
       | exception
           Spine_error.Error
             (Spine_error.Io_failed { op = Spine_error.Read; _ }) -> ()
       | _ -> Alcotest.fail "a load read past a crashed session's overwrites");
      let p2 = P.open_ ~frames:8 ~path () in
      Alcotest.(check int) "recovered the last flushed generation" 2
        (P.generation p2);
      Alcotest.(check int) "recovered the last flushed length" committed
        (length p2);
      let oracle = oracle_at committed in
      let rng = Bioseq.Rng.create 4242 in
      for _ = 1 to 40 do
        let plen = 3 + Bioseq.Rng.int rng 8 in
        let pos = Bioseq.Rng.int rng (committed - plen) in
        let pat = Array.init plen (fun j -> code (pos + j)) in
        Alcotest.(check (list int)) "parity after rollback"
          (Codes.occurrences oracle pat)
          (occurrences p2 pat)
      done;
      (* the recovered index keeps working: extend and commit again *)
      for i = committed to total - 1 do P.append p2 (code i) done;
      P.close p2;
      Alcotest.(check int) "a load after recovery" total
        (Spine.Compact_store.length (P.load ~path));
      let p3 = P.open_ ~path () in
      Alcotest.(check int) "full length after re-append" total (length p3);
      let oracle_full = oracle_at total in
      for _ = 1 to 20 do
        let plen = 3 + Bioseq.Rng.int rng 8 in
        let pos = Bioseq.Rng.int rng (total - plen) in
        let pat = Array.init plen (fun j -> code (pos + j)) in
        Alcotest.(check (list int)) "parity after re-append"
          (Codes.occurrences oracle_full pat)
          (occurrences p3 pat)
      done;
      P.close p3)

(* --- a failed metadata write must not burn a generation -------------- *)

let test_flush_retry_generation () =
  with_tmp (fun path ->
      let p = P.create ~path dna in
      P.append_string p "acgtacgtacgtacgt";
      P.flush p;  (* generation 1 -> slot B *)
      Alcotest.(check int) "first flush commits generation 1" 1
        (P.generation p);
      (* exhaust dev_write's 16 attempts on every slot page: the next
         flush must fail without consuming generation 2 — otherwise the
         retry would target generation 3's slot, which is the one
         holding the last valid metadata *)
      let f =
        FD.create [ FD.arm ~pages:(0, 8191) ~times:20 FD.Write_error ]
      in
      FD.attach f (P.device p);
      (match P.flush p with
       | () -> Alcotest.fail "flush must fail under a write-error storm"
       | exception Spine_error.Error (Spine_error.Io_failed _) -> ()
       | exception e ->
         Alcotest.failf "wrong exception from failed flush: %s"
           (Printexc.to_string e));
      Alcotest.(check int) "failed flush does not bump the generation" 1
        (P.generation p);
      FD.detach (P.device p);
      (* the retry writes generation 2 into the same inactive slot A *)
      P.flush p;
      Alcotest.(check int) "retried flush commits generation 2" 2
        (P.generation p);
      P.close p;  (* generation 3 -> slot B *)
      let r = P.scrub ~path () in
      Alcotest.(check int) "newest generation recovered" 3
        r.P.report_generation;
      Alcotest.(check int) "no damage from the failed attempt" 0
        r.P.damaged_pages;
      let p2 = P.open_ ~path () in
      Alcotest.(check int) "reopen sees generation 3" 3 (P.generation p2);
      Alcotest.(check bool) "content intact" true
        (contains p2 "gtacgtacgt");
      P.close p2)

(* --- seeded bit-flip trials over every written region ---------------- *)

(* The written pages of a clean file: a dense prefix of each region. *)
let written_pages path =
  let r = P.scrub ~path () in
  Alcotest.(check int) "clean build scrubs clean" 0
    (r.P.damaged_pages + r.P.stale_pages);
  List.concat_map
    (fun reg ->
      List.init reg.P.ok (fun i ->
          (reg.P.region, Ref_layout.base reg.P.region + i)))
    r.P.regions

let test_bitflip_trials () =
  let rng = Bioseq.Rng.create 404 in
  let seq = Bioseq.Synthetic.genomic dna (Bioseq.Rng.split rng) 600 in
  let oracle = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let build path =
    let p = P.create ~path dna in
    P.append_seq p seq;
    P.close p
  in
  (* learn the written extent from one clean build: the workload is
     deterministic, so every trial's file has the identical layout *)
  let candidates =
    with_tmp (fun path ->
        build path;
        Alcotest.(check bool) "clean build is a clean shutdown" true
          (P.scrub ~path ()).P.report_clean;
        List.map snd (written_pages path))
  in
  Alcotest.(check bool) "several written pages to attack" true
    (List.length candidates > 3);
  let candidates = Array.of_list candidates in
  let trials = 120 in
  for trial = 1 to trials do
    with_tmp (fun path ->
        build path;
        let page = candidates.(Bioseq.Rng.int rng (Array.length candidates)) in
        (* anywhere in the page except its 4 reserved (unchecksummed)
           trailer bytes *)
        let off = (page * phys_page) + Bioseq.Rng.int rng (4096 + 12) in
        flip_bit path off (1 lsl Bioseq.Rng.int rng 8);
        let r = P.scrub ~path () in
        if r.P.damaged_pages + r.P.stale_pages < 1 then
          Alcotest.failf "trial %d: bit flip on page %d invisible to scrub"
            trial page;
        (* and no silent lies: reopen + query must agree with the
           oracle or fail typed *)
        match P.open_ ~path () with
        | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
        | exception e ->
          Alcotest.failf "trial %d: untyped exception on reopen: %s" trial
            (Printexc.to_string e)
        | p ->
          for _ = 1 to 5 do
            let len = 3 + Bioseq.Rng.int rng 6 in
            let pos = Bioseq.Rng.int rng (600 - len) in
            let pat =
              Array.init len (fun j -> Bioseq.Packed_seq.get seq (pos + j))
            in
            match occurrences p pat with
            | occs ->
              Alcotest.(check (list int))
                (Printf.sprintf "trial %d: query parity" trial)
                (Codes.occurrences oracle pat)
                occs
            | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
          done;
          (try P.close p with Spine_error.Error _ -> ()))
  done

(* --- a flipped byte in every written page of a built file ------------ *)

(* [spine build] writes the file with [of_compact], and every reader
   loads it with [Persistent.load], so every page of it is read on the
   way in.  A byte changed anywhere in a written page's data or
   checked trailer must fail that load with a typed [Corrupt]: nothing
   else, and never a wrong index.  Only a page the load does not need
   may be damaged without failing it: the page-size stamp in slot A and
   the epoch declaration, and the load is then exact. *)
let test_built_file_flips () =
  let rng = Bioseq.Rng.create 401 in
  let idx =
    Spine.Compact.of_seq
      (Bioseq.Synthetic.genomic dna (Bioseq.Rng.split rng) 3000)
  in
  Index_file.with_path (fun path ->
      Index_file.save path idx;
      let pages = written_pages path in
      Alcotest.(check bool) "every table region written" true
        (List.for_all
           (fun r -> List.mem_assoc r pages)
           [ "lt"; "rt0"; "rt1"; "seq"; "side/a" ]);
      List.iter
        (fun (region, page) ->
          for _ = 1 to 3 do
            Index_file.save path idx;
            let off = (page * phys_page) + Bioseq.Rng.int rng (4096 + 12) in
            flip_bit path off (1 lsl Bioseq.Rng.int rng 8);
            match Spine.Persistent.load ~path with
            | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
            | exception e ->
              Alcotest.failf "%s page %d: untyped %s" region page
                (Printexc.to_string e)
            | loaded ->
              if not (List.mem region [ "meta/slot-a"; "meta/epoch" ]) then
                Alcotest.failf "%s page %d: damage loaded" region page;
              Alcotest.(check (list string))
                (Printf.sprintf "%s page %d: exact load" region page) []
                (Index_file.differences idx loaded)
          done)
        pages;
      (* every page of a table's committed prefix was written, so a file
         cut short or holed there fails the load and the scrub instead
         of reading zeros *)
      let lt =
        List.filter_map (fun (r, p) -> if r = "lt" then Some p else None) pages
      in
      let damaged what cut =
        Index_file.save path idx;
        cut ();
        (match Spine.Persistent.load ~path with
         | exception Spine_error.Error (Spine_error.Corrupt _) -> ()
         | exception e ->
           Alcotest.failf "%s: untyped %s" what (Printexc.to_string e)
         | _ -> Alcotest.failf "%s: loaded" what);
        Alcotest.(check bool) (what ^ ": scrub reports damage") true
          ((P.scrub ~path ()).P.damaged_pages > 0)
      in
      damaged "cut after the first LT page" (fun () ->
          Unix.truncate path ((List.hd lt + 1) * phys_page));
      damaged "a hole in the LT" (fun () ->
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
          ignore (Unix.lseek fd (List.nth lt 1 * phys_page) Unix.SEEK_SET);
          ignore (Unix.write fd (Bytes.make phys_page '\000') 0 phys_page);
          Unix.close fd))

(* --- typed pool exhaustion ------------------------------------------- *)

let test_pool_exhausted () =
  let dev = Pagestore.Device.create ~page_size:256 () in
  let pool = Pagestore.Buffer_pool.create ~frames:2 dev in
  match
    Pagestore.Buffer_pool.with_page pool 0 ~dirty:false (fun _ ->
        Pagestore.Buffer_pool.with_page pool 1 ~dirty:false (fun _ ->
            Pagestore.Buffer_pool.with_page pool 2 ~dirty:false (fun _ -> ())))
  with
  | () -> Alcotest.fail "third latch over two frames must fail"
  | exception Spine_error.Error (Spine_error.Pool_exhausted { frames; latched })
    ->
    Alcotest.(check int) "frames reported" 2 frames;
    Alcotest.(check int) "latched reported" 2 latched
  | exception e ->
    Alcotest.failf "wrong exception on exhaustion: %s" (Printexc.to_string e)

(* --- transient I/O retries ------------------------------------------- *)

let test_transient_retry () =
  let dev = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  let pool = Pagestore.Buffer_pool.create ~frames:4 dev in
  Pagestore.Buffer_pool.with_page pool 3 ~dirty:true (fun b ->
      Bytes.set b 0 'x');
  Pagestore.Buffer_pool.flush pool;
  Pagestore.Buffer_pool.drop pool;
  (* two consecutive injected errors: inside the retry budget *)
  let f = FD.create [ FD.arm ~times:2 FD.Read_error ] in
  FD.attach f dev;
  let c = Pagestore.Buffer_pool.with_page pool 3 ~dirty:false (fun b ->
      Bytes.get b 0)
  in
  Alcotest.(check char) "read survives two transient errors" 'x' c;
  Alcotest.(check int) "both injected errors were consumed" 2
    (FD.stats f).FD.read_errors;
  (* a persistent error storm: the typed failure must escape *)
  Pagestore.Buffer_pool.drop pool;
  let f2 = FD.create [ FD.arm ~times:100 FD.Read_error ] in
  FD.attach f2 dev;
  (match
     Pagestore.Buffer_pool.with_page pool 3 ~dirty:false (fun b ->
         Bytes.get b 0)
   with
   | _ -> Alcotest.fail "unrecoverable read error swallowed"
   | exception Spine_error.Error (Spine_error.Io_failed { transient; _ }) ->
     Alcotest.(check bool) "error marked transient" true transient
   | exception e ->
     Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  FD.detach dev;
  (* after the storm clears, the pool still works *)
  let c2 = Pagestore.Buffer_pool.with_page pool 3 ~dirty:false (fun b ->
      Bytes.get b 0)
  in
  Alcotest.(check char) "pool usable after failed read" 'x' c2;
  (* metadata writes bypass the pool but share its retry loop: two
     transient errors on the slot pages during a flush are retried,
     counted in pool.io_retries, and the flush still commits *)
  with_tmp (fun path ->
      let p = P.create ~path dna in
      P.append_string p "acgtacgtacgtacgt";
      let was_enabled = Telemetry.is_enabled () in
      Telemetry.set_enabled true;
      let retries = Telemetry.counter "pool.io_retries" in
      let before = Telemetry.counter_value retries in
      let f =
        FD.create
          [ FD.arm ~pages:(0, Ref_layout.meta_span - 1) ~times:2
              FD.Write_error ]
      in
      FD.attach f (P.device p);
      Fun.protect ~finally:(fun () -> Telemetry.set_enabled was_enabled)
        (fun () -> P.flush p);
      FD.detach (P.device p);
      Alcotest.(check int) "both metadata write errors were injected" 2
        (FD.stats f).FD.write_errors;
      Alcotest.(check int) "metadata retries counted in pool.io_retries" 2
        (Telemetry.counter_value retries - before);
      Alcotest.(check int) "the flush committed" 1 (P.generation p);
      P.close p;
      let p2 = P.open_ ~path () in
      Alcotest.(check bool) "committed content reopens" true
        (contains p2 "gtacgtacgt");
      P.close p2)

(* The writeback side of the pool's retry budget: a one-frame pool
   evicts dirty page 5 to fill page 6, so every injected write error
   lands on that writeback. *)
let test_transient_writeback () =
  let dev = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  let pool = Pagestore.Buffer_pool.create ~frames:1 dev in
  let put page ch =
    Pagestore.Buffer_pool.with_page pool page ~dirty:true (fun b ->
        Bytes.set b 0 ch)
  in
  let on_device page = Bytes.get (Pagestore.Device.read dev page) 0 in
  let evict_5 () =
    Pagestore.Buffer_pool.with_page pool 6 ~dirty:false (fun _ -> ())
  in
  put 6 '6';
  put 5 'a';
  Pagestore.Buffer_pool.flush pool;
  put 5 'b';
  let f = FD.create [ FD.arm ~times:15 FD.Write_error ] in
  FD.attach f dev;
  evict_5 ();
  FD.detach dev;
  Alcotest.(check int) "15 write errors absorbed by the writeback" 15
    (FD.stats f).FD.write_errors;
  Alcotest.(check char) "the evicted page reads back intact" 'b'
    (Pagestore.Buffer_pool.with_page pool 5 ~dirty:false (fun b ->
         Bytes.get b 0));
  (* one error past the budget: the eviction fails typed, the device
     page keeps its old image and the frame keeps the newer one dirty *)
  put 5 'c';
  let writebacks () =
    (Pagestore.Buffer_pool.stats pool).Pagestore.Buffer_pool.writebacks
  in
  let before = writebacks () in
  FD.attach (FD.create [ FD.arm ~times:16 FD.Write_error ]) dev;
  (match evict_5 () with
   | () -> Alcotest.fail "a writeback storm past the budget must fail"
   | exception Spine_error.Error (Spine_error.Io_failed { transient; op; _ })
     ->
     Alcotest.(check bool) "error marked transient" true transient;
     Alcotest.(check bool) "error names the write" true
       (op = Spine_error.Write)
   | exception e ->
     Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  FD.detach dev;
  Alcotest.(check char) "device page unchanged" 'b' (on_device 5);
  Alcotest.(check int) "no writeback counted" before (writebacks ());
  Pagestore.Buffer_pool.flush pool;
  Alcotest.(check char) "the frame stayed dirty: a flush writes it" 'c'
    (on_device 5)

(* --- torn metadata write: shadow-slot fallback ----------------------- *)

let torn_metadata ?page_size () =
  with_tmp (fun path ->
      let p = P.create ?page_size ~path dna in
      P.append_string p "acgtacgtacgtacgt";
      P.flush p;  (* generation 1 -> slot B, intact *)
      (* tear the next metadata write (generation 2 -> slot A pages) *)
      let f = FD.create [ FD.arm ~pages:(0, 4095) (FD.Torn_write 80) ] in
      FD.attach f (P.device p);
      P.close p;
      Alcotest.(check bool) "torn write froze the image" true (FD.frozen f);
      Alcotest.(check int) "exactly one torn write" 1
        (FD.stats f).FD.torn_writes;
      (* scrub sees the torn slot page and still identifies the good
         generation *)
      let r = P.scrub ~path () in
      Alcotest.(check int) "scrub recovers the flushed generation" 1
        r.P.report_generation;
      Alcotest.(check bool) "torn page flagged as damage" true
        (r.P.damaged_pages >= 1);
      (match List.assoc_opt 0 r.P.slots with
       | Some (P.Slot_invalid _) -> ()
       | _ -> Alcotest.fail "torn slot A not reported invalid");
      (match List.assoc_opt 1 r.P.slots with
       | Some (P.Slot_valid { generation = 1; _ }) -> ()
       | _ -> Alcotest.fail "slot B should hold valid generation 1");
      (* reopen falls back to the flushed generation *)
      let p2 = P.open_ ~path () in
      Alcotest.(check int) "fell back to generation 1" 1 (P.generation p2);
      Alcotest.(check int) "flushed length recovered" 16 (length p2);
      Alcotest.(check bool) "flushed content queryable" true
        (contains p2 "gtacgtacgt");
      P.close p2;
      (* the repaired commit overwrites the torn slot *)
      let r2 = P.scrub ~path () in
      Alcotest.(check int) "damage gone after a fresh commit" 0
        r2.P.damaged_pages)

let test_torn_metadata () = torn_metadata ()

(* At any page size but 4 KiB, [open_] and [scrub] learn the page size
   from the file; with slot A's first page torn they find it in slot
   B's. *)
let test_torn_metadata_small_pages () = torn_metadata ~page_size:128 ()

(* --- the SPINE_FAULTS environment grammar ---------------------------- *)

let test_env_faults () =
  let spec = "seed=7;flip:after=3;read_error:page=0-16:times=2" in
  (match Pagestore.Fault_spec.parse spec with
   | Ok s ->
     Alcotest.(check (option int)) "seed parsed" (Some 7) s.Pagestore.Fault_spec.seed
   | Error e ->
     Alcotest.failf "valid spec rejected: %s" (Pagestore.Fault_spec.error_to_string e));
  (match FD.parse spec with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match FD.parse "torn:keep=100;crash:after=9" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  List.iter
    (fun bad ->
      match FD.parse bad with
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" bad
      | Error _ -> ())
    [ "bogus"; "seed=x"; "flip:page="; "torn:keep=nope"; "crash:wat=1"
    ; "read_error:page=9-3"; "torn:keep=-1"; "flip:after=-2"
    ; "crash:times=-1"; "read_error:page=-3" ];
  (* a plan armed purely through the environment corrupts a build, and
     scrub catches it *)
  Unix.putenv FD.env_var "seed=11;flip:after=2";
  Fun.protect
    ~finally:(fun () -> Unix.putenv FD.env_var "")
    (fun () ->
      with_tmp (fun path ->
          let p = P.create ~path dna in
          P.append_string p "acgtacgtacgtacgtacgtacgt";
          P.close p;
          Unix.putenv FD.env_var "";  (* scrub itself runs fault-free *)
          let r = P.scrub ~path () in
          if r.P.damaged_pages + r.P.stale_pages < 1 then
            Alcotest.fail "environment-armed bit flip invisible to scrub"))

(* --- concurrent read-only queries ------------------------------------ *)

let test_parallel_queries () =
  (* read-only queries never mutate the index, so concurrent domains
     must all see correct answers *)
  let rng = Bioseq.Rng.create 402 in
  let seq = Bioseq.Synthetic.genomic dna (Bioseq.Rng.split rng) 20_000 in
  let e = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let queries =
    Array.init 64 (fun _ ->
        let len = 3 + Bioseq.Rng.int rng 10 in
        let pos = Bioseq.Rng.int rng (20_000 - len) in
        Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)))
  in
  let expected = Array.map (fun q -> Codes.occurrences e q) queries in
  let worker seed () =
    let r = Bioseq.Rng.create seed in
    let ok = ref true in
    for _ = 1 to 300 do
      let i = Bioseq.Rng.int r (Array.length queries) in
      if Codes.occurrences e queries.(i) <> expected.(i) then
        ok := false
    done;
    !ok
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker (500 + d))) in
  List.iteri
    (fun d dom ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" d) true
        (Domain.join dom))
    domains

(* The run form of a flush: consecutive dirty pages go to the device as
   one run, and a transient error on one of them retries that page and
   every later page of the run one at a time, each with the usual
   budget, so the pages, the device's write count and the retry count
   come out as single-page writebacks would leave them. *)
let test_transient_run () =
  let dev = Pagestore.Device.create ~checksums:true ~page_size:256 () in
  let pool = Pagestore.Buffer_pool.create ~frames:8 dev in
  let put page ch =
    Pagestore.Buffer_pool.with_page pool page ~dirty:true (fun b ->
        Bytes.set b 0 ch)
  in
  let on_device page = Bytes.get (Pagestore.Device.read dev page) 0 in
  let writes () = (Pagestore.Device.stats dev).Pagestore.Device.writes in
  List.iter (fun p -> put p (Char.chr (Char.code 'a' + p))) [ 0; 1; 2; 3; 4 ];
  (* the third page of the run fails twice *)
  let f = FD.create [ FD.arm ~pages:(2, 2) ~times:2 FD.Write_error ] in
  FD.attach f dev;
  let before = writes () in
  Pagestore.Buffer_pool.flush pool;
  FD.detach dev;
  Alcotest.(check int) "both errors were injected" 2 (FD.stats f).FD.write_errors;
  Alcotest.(check int) "five pages plus two retried attempts" 7
    (writes () - before);
  List.iter
    (fun p ->
      Alcotest.(check char) (Printf.sprintf "page %d on the device" p)
        (Char.chr (Char.code 'a' + p)) (on_device p))
    [ 0; 1; 2; 3; 4 ];
  (* past the budget: the pages before the failing one are written and
     clean, the failing one and the rest of the run stay dirty *)
  List.iter (fun p -> put p 'z') [ 0; 1; 2; 3; 4 ];
  FD.attach (FD.create [ FD.arm ~pages:(2, 2) ~times:16 FD.Write_error ]) dev;
  (match Pagestore.Buffer_pool.flush pool with
   | () -> Alcotest.fail "a storm past the budget must fail the flush"
   | exception Spine_error.Error (Spine_error.Io_failed { transient; _ }) ->
     Alcotest.(check bool) "error marked transient" true transient
   | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  FD.detach dev;
  Alcotest.(check (list char)) "pages before the failure landed"
    [ 'z'; 'z'; 'c'; 'd'; 'e' ] (List.map on_device [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "the rest stayed dirty" [ 2; 3; 4 ]
    (Array.to_list (Pagestore.Buffer_pool.dirty_pages pool));
  Pagestore.Buffer_pool.flush pool;
  Alcotest.(check (list char)) "a later flush writes them" [ 'z'; 'z'; 'z'; 'z'; 'z' ]
    (List.map on_device [ 0; 1; 2; 3; 4 ])

let suite =
  [ Alcotest.test_case "byte flips in a built file" `Quick
      test_built_file_flips
  ; Alcotest.test_case "crash-point recovery matrix" `Quick test_crash_matrix
  ; Alcotest.test_case "crash-point matrix under eviction pressure" `Quick
      test_crash_matrix_evictions
  ; Alcotest.test_case "eviction overwrite of committed pages + crash" `Quick
      test_eviction_overwrite_recovery
  ; Alcotest.test_case "failed metadata write does not burn a generation"
      `Quick test_flush_retry_generation
  ; Alcotest.test_case "seeded bit-flip trials: scrub + query safety" `Quick
      test_bitflip_trials
  ; Alcotest.test_case "typed pool exhaustion" `Quick test_pool_exhausted
  ; Alcotest.test_case "transient I/O errors are retried" `Quick
      test_transient_retry
  ; Alcotest.test_case "transient writeback retries are bounded" `Quick
      test_transient_writeback
  ; Alcotest.test_case "torn metadata write falls back to the shadow slot"
      `Quick test_torn_metadata
  ; Alcotest.test_case "SPINE_FAULTS grammar and auto-arming" `Quick
      test_env_faults
  ; Alcotest.test_case "concurrent read-only queries across domains" `Quick
      test_parallel_queries
  ; Alcotest.test_case "crash-point matrix at 64-byte pages" `Quick
      test_crash_matrix_small_pages
  ; Alcotest.test_case "crash-point matrix at 64-byte pages, 8 frames" `Quick
      test_crash_matrix_small_pages_evictions
  ; Alcotest.test_case "transient errors inside a writeback run" `Quick
      test_transient_run
  ; Alcotest.test_case "torn metadata write at 128-byte pages" `Quick
      test_torn_metadata_small_pages
  ; Alcotest.test_case "crash inside a side-log compaction" `Quick
      test_crash_in_side_compaction
  ; Alcotest.test_case "crash-point matrix over an of_compact file" `Quick
      test_crash_matrix_of_compact
  ]
