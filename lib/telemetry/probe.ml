(* Per-domain event counts (see probe.mli).  A domain's slot holds two
   rows of [count] ints: the running counts, then the watermark up to
   which they have been folded into [totals]. *)

type event = int

let vertebra = 0
let rib = 1
let extrib = 2
let link = 3
let word_steps = 4
let scalar_steps = 5
let descent = 6
let scan_nodes = 7
let found = 8
let pool_hit = 9
let pool_miss = 10
let pool_eviction = 11
let pool_writeback = 12
let io_retry = 13
let device_read = 14
let device_write = 15
let device_read_bytes = 16
let device_write_bytes = 17
let injected_delay_ns = 18
let build_case1 = 19
let build_case2 = 20
let build_case3 = 21
let build_case4 = 22
let build_extrib = 23
let build_link = 24
let count = 25

let counters =
  [ (vertebra, "search.vertebra_hops");
    (rib, "search.rib_hops");
    (extrib, "search.extrib_hops");
    (link, "search.link_hops");
    (word_steps, "search.word_steps");
    (scalar_steps, "search.scalar_steps");
    (scan_nodes, "search.scan_nodes");
    (found, "search.occurrences_found");
    (pool_hit, "pool.hits");
    (pool_miss, "pool.misses");
    (pool_eviction, "pool.evictions");
    (pool_writeback, "pool.writebacks");
    (io_retry, "pool.io_retries");
    (device_read, "device.read_pages");
    (device_write, "device.write_pages");
    (device_read_bytes, "device.read_bytes");
    (device_write_bytes, "device.write_bytes");
    (build_case1, "build.case1");
    (build_case2, "build.case2");
    (build_case3, "build.case3");
    (build_case3, "build.ribs_created");
    (build_case4, "build.case4");
    (build_extrib, "build.extribs_created");
    (build_link, "build.links_created") ]

(* The trace instant [step] records for an event, and the name of its
   second argument. *)
let instant ev =
  if ev = vertebra then ("step.vertebra", "dest")
  else if ev = rib then ("step.rib", "dest")
  else if ev = extrib then ("step.extrib", "dest")
  else if ev = link then ("step.link", "dest")
  else if ev = build_case1 then ("build.case1", "tail")
  else if ev = build_case2 then ("build.case2", "tail")
  else if ev = build_case3 then ("build.case3", "tail")
  else if ev = build_case4 then ("build.case4", "tail")
  else invalid_arg "Probe.step: event has no trace instant"

let totals = Array.init count (fun _ -> Atomic.make 0)

let fold_slot a =
  for ev = 0 to count - 1 do
    let d = a.(ev) - a.(count + ev) in
    if d <> 0 then begin
      ignore (Atomic.fetch_and_add totals.(ev) d);
      a.(count + ev) <- a.(ev)
    end
  done

(* The slot is created on a domain's first event, which is also where
   that domain arranges for its last counts to be folded. *)
let slot =
  Domain.DLS.new_key (fun () ->
      let a = Array.make (2 * count) 0 in
      Domain.at_exit (fun () -> fold_slot a);
      a)

let add ev n =
  let a = Domain.DLS.get slot in
  a.(ev) <- a.(ev) + n

let step ev ~node ~dest =
  add ev 1;
  if Trace.on () then begin
    let name, key = instant ev in
    Trace.instant name [ Trace.Int ("node", node); Trace.Int (key, dest) ]
  end

let local () = Array.sub (Domain.DLS.get slot) 0 count
let fold () = fold_slot (Domain.DLS.get slot)
let total ev = totals.(ev)
