module Paged_bytes = Pagestore.Paged_bytes
module P = Paged_store.P

(* A record:
     +0   u32 key, bits 0..31
     +4   u16 key, bits 32..47 (keys stay below 2^43)
     +6   u16 flags: bit 0 = anchor table (else overflow), bit 1 = removal
     +8   u32 value (0 for a removal) *)
let record_bytes = 12

(* Both halves report a full table under one name. *)
let name = "side"

(* Replaying stays within twice the live entries: a flush that finds
   the log longer than that (and than this floor) rewrites it from the
   tables first. *)
let compact_floor = 1 lsl 14

type t = {
  pool : Pagestore.Buffer_pool.t;
  mutable tab : Paged_bytes.t;
  mutable half : int;  (* the half [tab] lies in *)
  mutable committed_half : int;  (* the half the committed log lies in *)
}

let half_table pool ~half ~used =
  Region_map.table pool ~name (Region_map.side half) ~used

let create pool =
  { pool; tab = half_table pool ~half:0 ~used:0; half = 0; committed_half = 0 }

let records t = Paged_bytes.used t.tab / record_bytes
let half t = t.half
let commit t = t.committed_half <- t.half

let put tab table key v =
  let off = Paged_bytes.alloc tab record_bytes in
  let flags =
    (match table with Compact_store.Overflow -> 0 | Compact_store.Anchors -> 1)
    lor (if v < 0 then 2 else 0)
  in
  Paged_bytes.set_u32 tab off (key land 0xFFFF_FFFF);
  Paged_bytes.set_u16 tab (off + 4) (key lsr 32);
  Paged_bytes.set_u16 tab (off + 6) flags;
  Paged_bytes.set_u32 tab (off + 8) (Int.max v 0)

let fill t core =
  Xutil.Int_tbl.iter (fun k v -> put t.tab Compact_store.Overflow k v)
    core.P.overflow;
  Xutil.Int_tbl.iter (fun k v -> put t.tab Compact_store.Anchors k v)
    core.P.anchors

(* Rewrite the log from the tables as they stand, one record per live
   entry, into the half the committed records are not in.  Nothing
   there is committed, so the rewrite needs no journal entries however
   large the tables are, and a crash before the next commit leaves the
   committed log as it was.  A second compaction before that commit
   rewrites the same half again.  Tables larger than a half fail typed
   ([Region_full] naming "side"). *)
let compact t core =
  let half = 1 - t.committed_half in
  t.tab <- half_table t.pool ~half ~used:0;
  t.half <- half;
  fill t core

let compact_if_long t core =
  if
    records t
    > Int.max compact_floor
        (2 * (Xutil.Int_tbl.length core.P.overflow
              + Xutil.Int_tbl.length core.P.anchors))
  then compact t core

(* Append the change, or, when the log's half is full, compact it (the
   tables already hold the change).  A half the live entries alone
   nearly fill would compact at every change, so past seven eighths it
   fails typed instead. *)
let append t core table key v =
  let page_size =
    Pagestore.Device.page_size (Pagestore.Buffer_pool.device t.pool)
  in
  let capacity = (Region_map.side t.half).span * page_size in
  if Paged_bytes.used t.tab + record_bytes <= capacity then put t.tab table key v
  else begin
    compact t core;
    if Paged_bytes.used t.tab > capacity / 8 * 7 then
      Spine_error.raise_error (Spine_error.Region_full { region = name; capacity })
  end

let replay pool ~half ~records =
  let tab = half_table pool ~half ~used:(records * record_bytes) in
  let page_size =
    Pagestore.Device.page_size (Pagestore.Buffer_pool.device pool)
  in
  let overflow = Xutil.Int_tbl.create 16 in
  let anchors = Xutil.Int_tbl.create 16 in
  for r = 0 to records - 1 do
    let off = r * record_bytes in
    let key =
      Paged_bytes.get_u32 tab off lor (Paged_bytes.get_u16 tab (off + 4) lsl 32)
    in
    let flags = Paged_bytes.get_u16 tab (off + 6) in
    let v = Paged_bytes.get_u32 tab (off + 8) in
    if flags land lnot 3 <> 0 then
      Spine_error.corrupt ~region:name
        ~page:((Region_map.side half).first + (off / page_size))
        "side-log record %d has flags 0x%x" r flags;
    let table = if flags land 1 = 1 then anchors else overflow in
    if flags land 2 <> 0 then Xutil.Int_tbl.remove table key
    else Xutil.Int_tbl.replace table key v
  done;
  ({ pool; tab; half; committed_half = half }, overflow, anchors)
