module P = Compact_store.Core (Pagestore.Paged_bytes)
module B = Builder.Make (P)

let append = B.append
let append_seq = B.append_seq

let tables pool ~lt_used ~rt_used =
  ( Region_map.table pool Region_map.lt ~used:lt_used,
    Array.mapi
      (fun i used -> Region_map.table pool (Region_map.rt i) ~used)
      rt_used )

let create pool alphabet =
  let lt, rts = tables pool ~lt_used:0 ~rt_used:[| 0; 0; 0; 0 |] in
  let t = P.make ~seq:(Bioseq.Packed_seq.create alphabet) ~lt ~rts alphabet in
  P.init_root t;
  t
