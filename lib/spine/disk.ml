type config = {
  page_size : int;
  frames : int;
  pin_top_lt_pages : int;
  sync_writes : bool;
  replacement : Pagestore.Buffer_pool.replacement;
  cost : Pagestore.Device.cost;
}

let default_config =
  { page_size = 4096;
    frames = 256;
    pin_top_lt_pages = 0;
    sync_writes = true;
    replacement = `Lru;
    cost = Pagestore.Device.default_cost }

type t = {
  index : Compact.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
  router : Pagestore.Trace_router.t;
}

(* Disjoint page regions per structure; the device's page space is
   sparse so generous spacing costs nothing. *)
let region_base structure = structure * (1 lsl 24)

let regions alphabet =
  let mf = max 4 (Bioseq.Alphabet.size alphabet) in
  let slot_capacity = [| 1; 2; 3; mf |] in
  let lt =
    { Pagestore.Trace_router.structure = 0;
      base_page = region_base 0;
      record_bytes = 8 }
  in
  let rts =
    List.init 4 (fun table ->
        { Pagestore.Trace_router.structure = 1 + table;
          base_page = region_base (1 + table);
          record_bytes = 4 + (7 * slot_capacity.(table)) + 2 })
  in
  lt :: rts

(* Span pair: [disk.build] covers pool setup + construction + flush;
   the nested [disk.construct] isolates the index construction proper,
   so the difference is the I/O overhead. *)
let s_build = Telemetry.span "disk.build"
let s_construct = Telemetry.span "disk.construct"

let build ?(config = default_config) seq =
  Telemetry.with_span s_build @@ fun () ->
  Trace.span "disk.build"
    [ Trace.Int ("length", Bioseq.Packed_seq.length seq);
      Trace.Int ("page_size", config.page_size);
      Trace.Int ("frames", config.frames) ]
  @@ fun () ->
  let alphabet = Bioseq.Packed_seq.alphabet seq in
  let device =
    Pagestore.Device.create ~cost:config.cost ~sync_writes:config.sync_writes
      ~page_size:config.page_size ()
  in
  let pin page =
    config.pin_top_lt_pages > 0
    && page >= region_base 0
    && page < region_base 0 + config.pin_top_lt_pages
  in
  let pool =
    Pagestore.Buffer_pool.create ~pin ~replacement:config.replacement
      ~frames:config.frames device
  in
  let router = Pagestore.Trace_router.create pool (regions alphabet) in
  let trace ~structure ~index ~write =
    Pagestore.Trace_router.route router ~structure ~index ~write
  in
  let index =
    Telemetry.with_span s_construct (fun () ->
        Trace.span "disk.construct" [] (fun () -> Compact.of_seq ~trace seq))
  in
  Pagestore.Buffer_pool.flush pool;
  { index; device; pool; router }

(* The simulated device mirrors the in-memory tables page-for-page and
   the pool caches it; both are storage overlays on top of the store's
   own components, reported so `stats --space` shows the whole stack. *)
let space_extra t () =
  let page = Pagestore.Device.page_size t.device in
  [ ("pagestore_pages", Pagestore.Device.pages_allocated t.device * page);
    ("bufferpool_frames", Pagestore.Buffer_pool.frames t.pool * page) ]

let engine t =
  Engine.pack ~space_extra:(space_extra t)
    ~caps:{ Engine.backend = "disk"; persistent = false; paged = true;
            traced = true }
    (module Compact_store : Store_sig.S with type t = Compact_store.t)
    (Compact.store t.index)

let reset_io t =
  Pagestore.Buffer_pool.drop t.pool;
  Pagestore.Buffer_pool.reset_stats t.pool;
  Pagestore.Device.reset_stats t.device

let simulated_seconds t =
  (Pagestore.Device.stats t.device).Pagestore.Device.elapsed_us /. 1e6
