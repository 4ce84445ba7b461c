module P = Compact_store.Core (Pagestore.Paged_bytes)
module B = Builder.Make (P)

let append = B.append
let append_seq = B.append_seq

(* Page regions.  The first [meta_span] pages are left to the owner
   (Persistent keeps its metadata slots there); each data region then
   gets 1 GB of sparse address space at 4 KiB pages — enough for ~180M
   characters — keeping a file's apparent size in the single-digit
   gigabytes even though only written pages occupy disk blocks. *)
let meta_span = 1 lsl 14
let data_span = 1 lsl 18

let region_base region = meta_span + (region * data_span)

let lt_region = 0
let rt_region table = 1 + table

let pin_top_lt pages page =
  pages > 0
  && page >= region_base lt_region
  && page < region_base lt_region + pages

let table pool ~name ~region ~used =
  let device = Pagestore.Buffer_pool.device pool in
  Pagestore.Paged_bytes.make pool ~region:name ~base_page:(region_base region)
    ~capacity:(data_span * Pagestore.Device.page_size device) ~used

let tables pool ~lt_used ~rt_used =
  ( table pool ~name:"lt" ~region:lt_region ~used:lt_used,
    Array.mapi
      (fun i used ->
        table pool ~name:(Printf.sprintf "rt%d" i) ~region:(rt_region i) ~used)
      rt_used )

let create pool alphabet =
  let lt, rts = tables pool ~lt_used:0 ~rt_used:[| 0; 0; 0; 0 |] in
  let t = P.make ~seq:(Bioseq.Packed_seq.create alphabet) ~lt ~rts alphabet in
  P.init_root t;
  t
