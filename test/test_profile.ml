(* Tests for per-query execution profiles: the scoped-attribution
   reconciliation the ISSUE demands (per-query buffer-pool and device
   counters summed over a multi-query batch equal the global telemetry
   deltas exactly, single-domain), plus scope shadowing and the
   fields round trip. *)

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
  ]

(* The acceptance test: a multi-query batch on the disk backend with a
   starved pool (so faults and evictions actually happen), every query
   wrapped in Engine.profiled.  For each reconciled counter the sum of
   the per-query attributions equals the global before/after delta
   exactly — the profile explains ALL the work, not a sample of it. *)
let test_attribution_sums () =
  with_telemetry (fun () ->
      let seq = seq_of 20_000 in
      let config = { Spine.Disk.default_config with Spine.Disk.frames = 8 } in
      let engine = Spine.Disk.engine (Spine.Disk.build ~config seq) in
      let rng = Bioseq.Rng.create 11 in
      let n = Bioseq.Packed_seq.length seq in
      let patterns =
        List.init 40 (fun _ ->
            let len = 3 + Bioseq.Rng.int rng 10 in
            let pos = Bioseq.Rng.int rng (n - len) in
            Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k)))
      in
      let before = Telemetry.snapshot () in
      let profs =
        List.map
          (fun pat ->
            let occ, prof =
              Spine.Engine.profiled engine (fun () ->
                  Codes.occurrences engine pat)
            in
            (* planted patterns must be found, and the profile must
               agree with the query's own answer *)
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
          let attributed =
            List.fold_left (fun acc p -> acc + field p) 0 profs
          in
          Alcotest.(check int)
            (Printf.sprintf "%s delta fully attributed" name)
            delta attributed)
        reconciled;
      (* the starved pool must have made the disk counters non-trivial,
         otherwise this reconciliation proves nothing about paging *)
      let faults =
        List.fold_left (fun acc p -> acc + p.Profile.pool_misses) 0 profs
      in
      Alcotest.(check bool) "page faults attributed (starved pool)" true
        (faults > 0))

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
    (Profile.total_steps inner > 0 || inner.Profile.scan_nodes > 0);
  (* the nested scope shadowed the outer one: the outer profile holds
     only the work done outside the inner scope, which is none *)
  Alcotest.(check int) "outer not double-charged" 0
    (Profile.total_steps outer + outer.Profile.scan_nodes
     + outer.Profile.found)

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

let suite =
  [ Alcotest.test_case "attribution sums reconcile (disk)" `Quick
      test_attribution_sums
  ; Alcotest.test_case "nested scopes shadow" `Quick test_scopes_shadow
  ; Alcotest.test_case "fields round trip" `Quick test_fields_roundtrip
  ; Alcotest.test_case "absorb" `Quick test_absorb
  ]
