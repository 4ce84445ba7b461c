(* The page regions of a persistent index file, written out by hand
   from docs/ROBUSTNESS.md ("Region table") instead of read from
   Spine.Region_map: a region the library's table leaves out then still
   shows up here, as debris or as a page nothing scrubs.  Page numbers
   are logical pages, the same at any page size. *)

let meta_span = 16384
let data_span = 262144

type region = {
  name : string;
  first : int;
  span : int;
  journaled : bool;  (* holds a table whose committed prefix is journaled *)
}

let seq_base = meta_span + (5 * data_span)
let side_half = data_span / 4 * 3 / 2

let regions =
  let r ?(journaled = false) name first span = { name; first; span; journaled } in
  [ r "meta/slot-a" 0 4096;
    r "meta/slot-b" 4096 4096;
    r "meta/epoch" (2 * 4096) 1;
    r ~journaled:true "lt" meta_span data_span;
    r ~journaled:true "rt0" (meta_span + (1 * data_span)) data_span;
    r ~journaled:true "rt1" (meta_span + (2 * data_span)) data_span;
    r ~journaled:true "rt2" (meta_span + (3 * data_span)) data_span;
    r ~journaled:true "rt3" (meta_span + (4 * data_span)) data_span;
    r ~journaled:true "seq" seq_base (data_span / 4);
    r ~journaled:true "side/a" (seq_base + (data_span / 4)) side_half;
    r ~journaled:true "side/b" (seq_base + (data_span / 4) + side_half)
      side_half;
    r "journal" (meta_span + (6 * data_span)) data_span ]

let region name =
  match List.find_opt (fun r -> String.equal r.name name) regions with
  | Some r -> r
  | None -> Alcotest.failf "unexpected region %S" name

let base name = (region name).first
