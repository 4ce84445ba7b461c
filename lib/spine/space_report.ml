(* Backend-agnostic index space accounting.  Stores report measured
   bytes per named component (Store_sig.space_components); paged
   backends add their pagestore/buffer-pool footprint on top via
   Engine.pack's [space_extra].  This module only aggregates and
   formats — it deliberately depends on nothing so Engine can use it
   without a cycle through Compact. *)

type component = {
  comp : string;
  bytes : int;
}

type t = {
  backend : string;
  chars : int;
  components : component list;
}

let make ~backend ~chars components =
  { backend;
    chars;
    components = List.map (fun (comp, bytes) -> { comp; bytes }) components }

(* The pagestore/buffer-pool components duplicate index bytes already
   attributed to a store component (the pool caches device pages; the
   simulated disk mirrors the in-memory tables), so the index footprint
   proper is the store components only. *)
let is_storage_overlay comp =
  String.length comp >= 10 && String.sub comp 0 10 = "pagestore_"
  || String.length comp >= 11 && String.sub comp 0 11 = "bufferpool_"

let total_bytes t =
  List.fold_left (fun acc c -> acc + c.bytes) 0 t.components

let index_bytes t =
  List.fold_left
    (fun acc c -> if is_storage_overlay c.comp then acc else acc + c.bytes)
    0 t.components

let bytes_per_char t =
  float_of_int (index_bytes t) /. float_of_int (Int.max 1 t.chars)

let rows t =
  let total = Int.max 1 (total_bytes t) in
  let chars = Int.max 1 t.chars in
  List.map
    (fun c ->
      [ c.comp;
        string_of_int c.bytes;
        Printf.sprintf "%.2f" (float_of_int c.bytes /. float_of_int chars);
        Printf.sprintf "%.1f%%" (100.0 *. float_of_int c.bytes /. float_of_int total) ])
    t.components
  @ [ [ "total";
        string_of_int (total_bytes t);
        Printf.sprintf "%.2f" (float_of_int (total_bytes t) /. float_of_int chars);
        "100.0%" ] ]

let jsonl t =
  let comps =
    String.concat ","
      (List.map
         (fun c -> Printf.sprintf "\"%s\":%d" (Xutil.Json.escape c.comp) c.bytes)
         t.components)
  in
  Printf.sprintf
    "{\"backend\":\"%s\",\"chars\":%d,\"total_bytes\":%d,\
     \"index_bytes\":%d,\"bytes_per_char\":%.4f,\"components\":{%s}}"
    (Xutil.Json.escape t.backend) t.chars (total_bytes t) (index_bytes t)
    (bytes_per_char t) comps

let set_gauges t =
  List.iter
    (fun c ->
      Telemetry.set
        (Telemetry.gauge
           (Printf.sprintf "space.%s.%s_bytes" t.backend c.comp))
        (float_of_int c.bytes))
    t.components;
  Telemetry.set
    (Telemetry.gauge (Printf.sprintf "space.%s.total_bytes" t.backend))
    (float_of_int (total_bytes t))
