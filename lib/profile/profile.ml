(* Per-operation cost profiles (see profile.mli).  A profile is the
   difference between the calling domain's probe counts at the end and
   at the start of its scope; nothing on the hot path knows profiles
   exist. *)

let c_queries = Telemetry.counter "profile.queries"
let h_wall = Telemetry.histogram "profile.wall_ns"

type t = {
  mutable vertebra_steps : int;
  mutable rib_steps : int;
  mutable extrib_steps : int;
  mutable link_steps : int;
  mutable descent_depth : int;
  mutable scan_nodes : int;
  mutable found : int;
  mutable word_steps : int;
  mutable scalar_steps : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable pool_evictions : int;
  mutable device_read_bytes : int;
  mutable device_write_bytes : int;
  mutable io_retries : int;
  mutable injected_delay_ns : int;
  mutable alloc_bytes : int;
  mutable wall_ns : int;
}

let make () =
  { vertebra_steps = 0; rib_steps = 0; extrib_steps = 0; link_steps = 0;
    descent_depth = 0; scan_nodes = 0; found = 0;
    word_steps = 0; scalar_steps = 0;
    pool_hits = 0; pool_misses = 0; pool_evictions = 0;
    device_read_bytes = 0; device_write_bytes = 0;
    io_retries = 0; injected_delay_ns = 0;
    alloc_bytes = 0; wall_ns = 0 }

(* The calling domain's open scopes, innermost first: the probe counts
   from which each scope's own work is measured.  A closing scope adds
   its work to the enclosing scope's baseline, so the enclosing
   profile does not count it again (shadowing). *)
let scopes : int array list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let profiled f =
  let stack = Domain.DLS.get scopes in
  let base = Probe.local () in
  stack := base :: !stack;
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Xutil.Stopwatch.now_ns () in
  let finish () =
    let wall_ns = Xutil.Stopwatch.now_ns () - t0 in
    let alloc_bytes =
      int_of_float (Float.max 0.0 (Gc.allocated_bytes () -. alloc0))
    in
    let now = Probe.local () in
    (match !stack with
     | _ :: (outer :: _ as rest) ->
       Array.iteri (fun ev n -> outer.(ev) <- outer.(ev) + n - base.(ev)) now;
       stack := rest
     | _ -> stack := []);
    let d (ev : Probe.event) = now.((ev :> int)) - base.((ev :> int)) in
    { vertebra_steps = d Probe.vertebra;
      rib_steps = d Probe.rib;
      extrib_steps = d Probe.extrib;
      link_steps = d Probe.link;
      descent_depth = d Probe.descent;
      scan_nodes = d Probe.scan_nodes;
      found = d Probe.found;
      word_steps = d Probe.word_steps;
      scalar_steps = d Probe.scalar_steps;
      pool_hits = d Probe.pool_hit;
      pool_misses = d Probe.pool_miss;
      pool_evictions = d Probe.pool_eviction;
      device_read_bytes = d Probe.device_read_bytes;
      device_write_bytes = d Probe.device_write_bytes;
      io_retries = d Probe.io_retry;
      injected_delay_ns = d Probe.injected_delay_ns;
      alloc_bytes; wall_ns }
  in
  match f () with
  | res ->
    let p = finish () in
    Telemetry.incr c_queries;
    Telemetry.observe h_wall p.wall_ns;
    (res, p)
  | exception e ->
    ignore (finish ());
    raise e

let absorb dst src =
  dst.vertebra_steps <- dst.vertebra_steps + src.vertebra_steps;
  dst.rib_steps <- dst.rib_steps + src.rib_steps;
  dst.extrib_steps <- dst.extrib_steps + src.extrib_steps;
  dst.link_steps <- dst.link_steps + src.link_steps;
  dst.descent_depth <- dst.descent_depth + src.descent_depth;
  dst.scan_nodes <- dst.scan_nodes + src.scan_nodes;
  dst.found <- dst.found + src.found;
  dst.word_steps <- dst.word_steps + src.word_steps;
  dst.scalar_steps <- dst.scalar_steps + src.scalar_steps;
  dst.pool_hits <- dst.pool_hits + src.pool_hits;
  dst.pool_misses <- dst.pool_misses + src.pool_misses;
  dst.pool_evictions <- dst.pool_evictions + src.pool_evictions;
  dst.device_read_bytes <- dst.device_read_bytes + src.device_read_bytes;
  dst.device_write_bytes <- dst.device_write_bytes + src.device_write_bytes;
  dst.io_retries <- dst.io_retries + src.io_retries;
  dst.injected_delay_ns <- dst.injected_delay_ns + src.injected_delay_ns;
  dst.alloc_bytes <- dst.alloc_bytes + src.alloc_bytes;
  dst.wall_ns <- dst.wall_ns + src.wall_ns

(* Field-list views: the serialization surface for the qlog record, the
   explain reports and the replay comparison.  [fields] is the schema —
   order is part of the qlog record grammar (docs/OBSERVABILITY.md). *)

let fields p =
  [ ("vertebra_steps", p.vertebra_steps);
    ("rib_steps", p.rib_steps);
    ("extrib_steps", p.extrib_steps);
    ("link_steps", p.link_steps);
    ("descent_depth", p.descent_depth);
    ("scan_nodes", p.scan_nodes);
    ("found", p.found);
    ("word_steps", p.word_steps);
    ("scalar_steps", p.scalar_steps);
    ("pool_hits", p.pool_hits);
    ("pool_misses", p.pool_misses);
    ("pool_evictions", p.pool_evictions);
    ("device_read_bytes", p.device_read_bytes);
    ("device_write_bytes", p.device_write_bytes);
    ("io_retries", p.io_retries);
    ("injected_delay_ns", p.injected_delay_ns);
    ("alloc_bytes", p.alloc_bytes);
    ("wall_ns", p.wall_ns) ]

(* The subset that is deterministic for a fixed (engine state, request
   stream) — what the replay gate compares.  Excludes alloc_bytes
   (GC-dependent), wall_ns (timing), and the resilience pair
   io_retries / injected_delay_ns (functions of the armed fault and
   latency plans, not of the request stream). *)
let deterministic_fields p =
  List.filter
    (fun (k, _) ->
      k <> "alloc_bytes" && k <> "wall_ns" && k <> "io_retries"
      && k <> "injected_delay_ns")
    (fields p)

let of_fields l =
  let g k = Option.value ~default:0 (List.assoc_opt k l) in
  { vertebra_steps = g "vertebra_steps";
    rib_steps = g "rib_steps";
    extrib_steps = g "extrib_steps";
    link_steps = g "link_steps";
    descent_depth = g "descent_depth";
    scan_nodes = g "scan_nodes";
    found = g "found";
    word_steps = g "word_steps";
    scalar_steps = g "scalar_steps";
    pool_hits = g "pool_hits";
    pool_misses = g "pool_misses";
    pool_evictions = g "pool_evictions";
    device_read_bytes = g "device_read_bytes";
    device_write_bytes = g "device_write_bytes";
    io_retries = g "io_retries";
    injected_delay_ns = g "injected_delay_ns";
    alloc_bytes = g "alloc_bytes";
    wall_ns = g "wall_ns" }
