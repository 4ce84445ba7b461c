(** Shared plumbing for the disk-resident experiments: the suffix-tree
    counterpart of {!Spine.Disk} (node records paged through a buffer
    pool over the same synchronous simulated device). *)

type st_disk = {
  tree : Suffix_tree.t;
  device : Pagestore.Device.t;
  pool : Pagestore.Buffer_pool.t;
  trace : Suffix_tree.trace;
}

(* MUMmer-era C suffix trees pack a node into ~16 bytes; using the same
   figure for every node keeps the disk comparison aligned with the
   in-memory space model. *)
let st_record_bytes = 16

let build_st_on_disk ?(config = Spine.Disk.default_config) seq =
  let device = Spine.Disk.simulated_device config in
  let pool =
    Pagestore.Buffer_pool.create ~replacement:config.Spine.Disk.replacement
      ~frames:config.Spine.Disk.frames device
  in
  (* node [index] lives on page [index * 16 / page_size] *)
  let trace ~structure:_ ~index ~write =
    Pagestore.Buffer_pool.with_page pool
      (index * st_record_bytes / config.Spine.Disk.page_size)
      ~dirty:write ignore
  in
  let tree = Suffix_tree.build ~trace seq in
  Pagestore.Buffer_pool.flush pool;
  { tree; device; pool; trace }

let reset_io d =
  Pagestore.Buffer_pool.drop d.pool;
  Pagestore.Buffer_pool.reset_stats d.pool;
  Pagestore.Device.reset_stats d.device

let simulated_seconds device =
  (Pagestore.Device.stats device).Pagestore.Device.elapsed_us /. 1e6
