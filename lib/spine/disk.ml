type config = {
  page_size : int;
  frames : int;
  pin_top_lt_pages : int;
  replacement : Pagestore.Buffer_pool.replacement;
}

let default_config =
  { page_size = 4096; frames = 256; pin_top_lt_pages = 0; replacement = `Lru }

let simulated_device config =
  Pagestore.Device.create ~sync_writes:true ~page_size:config.page_size ()

type t = {
  store : Paged_store.P.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
}

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
  let device = simulated_device config in
  let pool =
    Pagestore.Buffer_pool.create
      ~pin:(Region_map.pin_top_lt config.pin_top_lt_pages)
      ~replacement:config.replacement ~frames:config.frames device
  in
  let store = Paged_store.create pool (Bioseq.Packed_seq.alphabet seq) in
  Telemetry.with_span s_construct (fun () ->
      Trace.span "disk.construct" [] (fun () ->
          Paged_store.append_seq store seq));
  Pagestore.Buffer_pool.flush pool;
  { store; device; pool }

(* The simulated device holds the tables page for page and the pool
   caches it; both are storage overlays on top of the store's own
   components, reported so `stats --space` shows the whole stack. *)
let space_extra t () =
  let page = Pagestore.Device.page_size t.device in
  [ ("pagestore_pages", Pagestore.Device.pages_allocated t.device * page);
    ("bufferpool_frames", Pagestore.Buffer_pool.frames t.pool * page) ]

let engine t =
  Engine.pack ~space_extra:(space_extra t) ~backend:Disk
    (module Paged_store.P : Store_sig.S with type t = Paged_store.P.t)
    t.store

let reset_io t =
  Pagestore.Buffer_pool.drop t.pool;
  Pagestore.Buffer_pool.reset_stats t.pool;
  Pagestore.Device.reset_stats t.device

let simulated_seconds t =
  (Pagestore.Device.stats t.device).Pagestore.Device.elapsed_us /. 1e6
