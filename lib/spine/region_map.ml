(* The first [meta_span] pages hold the metadata (the two shadow slots
   and the epoch-declaration page); each data region then gets 1 GB of
   sparse address space at 4 KiB pages — enough for ~180M characters —
   keeping a file's apparent size in the single-digit gigabytes even
   though only written pages occupy disk blocks. *)
let meta_span = 1 lsl 14
let data_span = 1 lsl 18

let region_base region = meta_span + (region * data_span)

let lt_region = 0
let rt_region table = 1 + table

(* Metadata is double-buffered: generation [g] goes to slot [g land 1],
   so a crash while writing the new generation always leaves the
   previous one intact.  The epoch-declaration page records the epoch
   the next session of writes will use. *)
let slot_pages = 4096
let slot_base slot = slot * slot_pages
let epoch_page = 2 * slot_pages

(* The sequence mirror takes the first quarter of its region: at 2
   bits a code that is 32M characters at 128-byte pages, and even 8-bit
   codes (8 bytes per 7) fill it after the LT fills at 6 bytes a
   character.  The side log takes the other three quarters, as two
   halves: the log lives in one, and a compaction rewrites it into the
   other. *)
let seq_span = data_span / 4
let side_half_span = (data_span - seq_span) / 2

type table = Lt | Rt of int | Seq | Side of int

type region = {
  name : string;
  first : int;
  span : int;
  table : table option;
  stale_ok : bool;
}

let row ?table ?(stale_ok = false) name first span =
  { name; first; span; table; stale_ok }

let slot_a = row "meta/slot-a" (slot_base 0) slot_pages
let slot_b = row "meta/slot-b" (slot_base 1) slot_pages
let slot i = if i = 0 then slot_a else slot_b

let lt = row ~table:Lt "lt" (region_base lt_region) data_span

let rt i =
  row ~table:(Rt i) (Printf.sprintf "rt%d" i) (region_base (rt_region i))
    data_span

let seq = row ~table:Seq "seq" (region_base 5) seq_span

let side_row half name =
  row ~table:(Side half) name
    (seq.first + seq_span + (half * side_half_span))
    side_half_span

let side_a = side_row 0 "side/a"
let side_b = side_row 1 "side/b"
let side half = if half = 0 then side_a else side_b

let epoch = row ~stale_ok:true "meta/epoch" epoch_page 1
let journal = row ~stale_ok:true "journal" (region_base 6) data_span

let[@spine.domain_safe "never written: the layout is fixed"] regions =
  Array.concat
    [ [| slot_a; slot_b; epoch; lt |];
      Array.init 4 rt;
      [| seq; side_a; side_b; journal |] ]

(* the index in [regions] of the region holding [page], or -1 *)
let region_index page =
  let rec go i =
    if i = Array.length regions then -1
    else
      let r = regions.(i) in
      if page >= r.first && page < r.first + r.span then i else go (i + 1)
  in
  go 0

let region_name page =
  match region_index page with
  | -1 -> if page < meta_span then "meta" else "data"
  | i -> regions.(i).name

let in_prefix prefix page =
  let i = region_index page in
  i >= 0 && page - regions.(i).first < prefix.(i)

let prefix_pages ~page_size used =
  Array.map
    (fun r ->
      match r.table with
      | Some table -> (used table + page_size - 1) / page_size
      | None -> 0)
    regions

let table pool ?name r ~used =
  let ps = Pagestore.Device.page_size (Pagestore.Buffer_pool.device pool) in
  Pagestore.Paged_bytes.make pool
    ~region:(Option.value name ~default:r.name)
    ~base_page:r.first ~capacity:(r.span * ps) ~used

let pin_top_lt pages page =
  pages > 0 && page >= lt.first && page < lt.first + pages
