(* Tests for per-query execution profiles: profiles and the global
   counters are two views of the same per-domain probe counts, so the
   per-query traversal, buffer-pool and device costs summed over a
   multi-query batch equal the global telemetry deltas exactly — on
   one domain, under injected I/O retries, and across two domains
   sharing one engine.  Plus scope shadowing and the fields round
   trip. *)

let seq_of n =
  let rng = Bioseq.Rng.create 4242 in
  Bioseq.Synthetic.markov ~order:1 Bioseq.Alphabet.dna rng n

let with_telemetry f =
  let prev = Telemetry.is_enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled prev) f

let counter_of snap name =
  match Telemetry.find snap name with
  | Some (Telemetry.Count v) -> v
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> 0

(* Global counters whose deltas the per-query profiles must explain,
   paired with the profile field that attributes them. *)
let reconciled =
  [ ("search.vertebra_hops", fun (p : Profile.t) -> p.Profile.vertebra_steps)
  ; ("search.rib_hops", fun p -> p.Profile.rib_steps)
  ; ("search.extrib_hops", fun p -> p.Profile.extrib_steps)
  ; ("search.link_hops", fun p -> p.Profile.link_steps)
  ; ("search.scan_nodes", fun p -> p.Profile.scan_nodes)
  ; ("search.occurrences_found", fun p -> p.Profile.found)
  ; ("pool.hits", fun p -> p.Profile.pool_hits)
  ; ("pool.misses", fun p -> p.Profile.pool_misses)
  ; ("pool.evictions", fun p -> p.Profile.pool_evictions)
  ; ("device.read_bytes", fun p -> p.Profile.device_read_bytes)
  ; ("device.write_bytes", fun p -> p.Profile.device_write_bytes)
  ; ("search.word_steps", fun p -> p.Profile.word_steps)
  ; ("search.scalar_steps", fun p -> p.Profile.scalar_steps)
  ; ("pool.io_retries", fun p -> p.Profile.io_retries)
  ]

(* [k] patterns of [min] to [min] + 9 characters cut from [seq], so
   every one is present. *)
let planted ?(min = 3) seq ~seed k =
  let rng = Bioseq.Rng.create seed in
  let n = Bioseq.Packed_seq.length seq in
  List.init k (fun _ ->
      let len = min + Bioseq.Rng.int rng 10 in
      let pos = Bioseq.Rng.int rng (n - len) in
      Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)))

(* Every pattern as its own profiled query on [engine]: each profile
   must agree with its query's answer, and for each reconciled counter
   the sum of the profiles must equal the global before/after delta
   exactly — the profiles explain ALL the work, not a sample of it. *)
let reconcile engine patterns =
  let before = Telemetry.snapshot () in
  let profs =
    List.map
      (fun pat ->
        let occ, prof =
          Spine.Engine.profiled engine (fun () -> Codes.occurrences engine pat)
        in
        Alcotest.(check bool) "planted pattern found" true (occ <> []);
        Alcotest.(check int) "profile.found = occurrences"
          (List.length occ) prof.Profile.found;
        prof)
      patterns
  in
  let after = Telemetry.snapshot () in
  List.iter
    (fun (name, field) ->
      let delta = counter_of after name - counter_of before name in
      let attributed = List.fold_left (fun acc p -> acc + field p) 0 profs in
      Alcotest.(check int)
        (Printf.sprintf "%s delta fully attributed" name)
        delta attributed)
    reconciled;
  profs

let sum field profs = List.fold_left (fun acc p -> acc + field p) 0 profs

(* A multi-query batch on the disk backend with a starved pool, so
   faults and evictions actually happen. *)
let test_attribution_sums () =
  with_telemetry (fun () ->
      let seq = seq_of 20_000 in
      let config = { Spine.Disk.default_config with Spine.Disk.frames = 8 } in
      let engine = Spine.Disk.engine (Spine.Disk.build ~config seq) in
      let profs = reconcile engine (planted seq ~seed:11 40) in
      (* the starved pool must have made the disk counters non-trivial,
         otherwise this reconciliation proves nothing about paging *)
      Alcotest.(check bool) "page faults attributed (starved pool)" true
        (sum (fun p -> p.Profile.pool_misses) profs > 0))

let total_steps p =
  p.Profile.vertebra_steps + p.Profile.rib_steps + p.Profile.extrib_steps
  + p.Profile.link_steps

let test_scopes_shadow () =
  let seq = seq_of 2_000 in
  let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let pat = Array.init 4 (fun k -> Bioseq.Packed_seq.get seq k) in
  let (inner_occ, inner), outer =
    Spine.Engine.profiled engine (fun () ->
        Spine.Engine.profiled engine (fun () ->
            Codes.occurrences engine pat))
  in
  Alcotest.(check bool) "inner did work" true (inner_occ <> []);
  Alcotest.(check bool) "inner profile charged" true
    (total_steps inner > 0 || inner.Profile.scan_nodes > 0);
  (* the nested scope shadowed the outer one: the outer profile holds
     only the work done outside the inner scope, which is none *)
  Alcotest.(check int) "outer not double-charged" 0
    (total_steps outer + outer.Profile.scan_nodes
     + outer.Profile.found);
  (* work on both sides of a nested scope stays with the outer one *)
  let other = Array.init 6 (fun k -> Bioseq.Packed_seq.get seq (100 + k)) in
  let query () = ignore (Codes.occurrences engine pat) in
  let (), alone = Spine.Engine.profiled engine query in
  let (), outer =
    Spine.Engine.profiled engine (fun () ->
        query ();
        ignore
          (Spine.Engine.profiled engine (fun () ->
               Codes.occurrences engine other));
        query ())
  in
  Alcotest.(check (list (pair string int))) "outer keeps its own work"
    (List.map (fun (k, v) -> (k, 2 * v)) (Profile.deterministic_fields alone))
    (Profile.deterministic_fields outer)

let test_fields_roundtrip () =
  let seq = seq_of 2_000 in
  let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
  let pat = Array.init 5 (fun k -> Bioseq.Packed_seq.get seq k) in
  let _, prof =
    Spine.Engine.profiled engine (fun () ->
        Codes.occurrences engine pat)
  in
  let back = Profile.of_fields (Profile.fields prof) in
  Alcotest.(check bool) "fields/of_fields round trip" true
    (Profile.fields back = Profile.fields prof);
  Alcotest.(check int) "deterministic drops alloc+wall+resilience pair"
    (List.length (Profile.fields prof) - 4)
    (List.length (Profile.deterministic_fields prof));
  Alcotest.(check bool) "wall clock measured" true (prof.Profile.wall_ns >= 0)

let test_absorb () =
  let a = Profile.make () and b = Profile.make () in
  a.Profile.rib_steps <- 3;
  a.Profile.device_read_bytes <- 100;
  b.Profile.rib_steps <- 4;
  b.Profile.found <- 2;
  Profile.absorb a b;
  Alcotest.(check int) "absorb sums" 7 a.Profile.rib_steps;
  Alcotest.(check int) "absorb keeps dst-only" 100 a.Profile.device_read_bytes;
  Alcotest.(check int) "absorb adds src-only" 2 a.Profile.found

(* The in-memory layout, with patterns long enough for whole-word
   compares: traversal counters only, no pool or device. *)
let test_attribution_compact () =
  with_telemetry (fun () ->
      let seq = seq_of 20_000 in
      let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let profs = reconcile engine (planted ~min:30 seq ~seed:12 40) in
      Alcotest.(check bool) "word compares attributed" true
        (sum (fun p -> p.Profile.word_steps) profs > 0))

(* Transient read errors on the starved disk backend: the pool retries
   them, and each failed attempt still reads the device, so the
   retries and the retried bytes land in the profile of the query that
   paid for them. *)
let test_attribution_retries () =
  with_telemetry (fun () ->
      let seq = seq_of 20_000 in
      let config = { Spine.Disk.default_config with Spine.Disk.frames = 8 } in
      let disk = Spine.Disk.build ~config seq in
      let dev = Pagestore.Buffer_pool.device disk.Spine.Disk.pool in
      Pagestore.Fault_device.attach
        (Pagestore.Fault_device.create
           Pagestore.Fault_device.
             [ arm ~after:3 ~times:2 Read_error;
               arm ~after:60 ~times:3 Read_error ])
        dev;
      let profs =
        reconcile (Spine.Disk.engine disk) (planted seq ~seed:13 40)
      in
      Pagestore.Fault_device.detach dev;
      let retries = sum (fun p -> p.Profile.io_retries) profs in
      Alcotest.(check int) "every injected error retried" 5 retries;
      Alcotest.(check int) "one device read per miss and per retry"
        ((sum (fun p -> p.Profile.pool_misses) profs + retries)
         * Pagestore.Device.page_size dev)
        (sum (fun p -> p.Profile.device_read_bytes) profs))

(* Two domains query one shared compact engine.  Each domain's
   profiles are its own work, exactly what the same queries cost alone
   on the main domain; once both are joined, the registry has folded
   each domain's counts exactly once, and a second snapshot adds
   nothing. *)
let test_two_domains () =
  with_telemetry (fun () ->
      let seq = seq_of 20_000 in
      let engine = Spine.Compact.engine (Spine.Compact.of_seq seq) in
      let run patterns =
        let total = Profile.make () in
        List.iter
          (fun pat ->
            let _, p =
              Spine.Engine.profiled engine (fun () ->
                  Codes.occurrences engine pat)
            in
            Profile.absorb total p)
          patterns;
        total
      in
      let work = [ planted seq ~seed:21 30; planted seq ~seed:22 30 ] in
      let alone = List.map run work in
      let before = Telemetry.snapshot () in
      let shared =
        List.map (fun pats -> Domain.spawn (fun () -> run pats)) work
        |> List.map Domain.join
      in
      List.iteri
        (fun i (a, s) ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "domain %d profiles are its own work" i)
            (Profile.deterministic_fields a)
            (Profile.deterministic_fields s))
        (List.combine alone shared);
      let after = Telemetry.snapshot () in
      let again = Telemetry.snapshot () in
      List.iter
        (fun (name, field) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: both domains folded once" name)
            (sum field shared)
            (counter_of after name - counter_of before name);
          Alcotest.(check int)
            (Printf.sprintf "%s: a second snapshot adds nothing" name)
            (counter_of after name) (counter_of again name))
        reconciled)

let suite =
  [ Alcotest.test_case "attribution sums reconcile (disk)" `Quick
      test_attribution_sums
  ; Alcotest.test_case "nested scopes shadow" `Quick test_scopes_shadow
  ; Alcotest.test_case "fields round trip" `Quick test_fields_roundtrip
  ; Alcotest.test_case "absorb" `Quick test_absorb
  ; Alcotest.test_case "attribution sums reconcile (compact)" `Quick
      test_attribution_compact
  ; Alcotest.test_case "retried reads reconcile (disk, faults)" `Quick
      test_attribution_retries
  ; Alcotest.test_case "two domains, one fold each" `Quick test_two_domains
  ]
