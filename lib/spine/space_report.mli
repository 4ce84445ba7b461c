(** Backend-agnostic index space accounting.

    Where {!Space} prices the paper's static Table 2 model, this module
    carries the {e measured} footprint of a live index, attributed to
    named components: every store reports
    {!Store_sig.S.space_components} (vertebrae, links, ribs, extribs,
    …) and paged backends add their [pagestore_pages] /
    [bufferpool_frames] overlay through {!Engine.pack}'s [space_extra].
    {!Engine.space} builds one of these for any backend; the CLI
    ([spine stats --space]) and the workload runner render it as a
    table, JSONL, or telemetry gauges. *)

type component = {
  comp : string;  (** component name, e.g. ["ribs"] *)
  bytes : int;    (** measured live bytes *)
}

type t = {
  backend : string;  (** the owning engine's backend name *)
  chars : int;       (** indexed characters *)
  components : component list;
}

val make : backend:string -> chars:int -> (string * int) list -> t

val bytes_per_char : t -> float
(** The index components' bytes per indexed character — comparable to
    the paper's "less than 12 bytes per indexed character" headline.
    [pagestore_*] / [bufferpool_*] overlays cache or mirror bytes
    already attributed to a store component, so they are excluded
    from the index footprint proper. *)

val rows : t -> string list list
(** [[component; bytes; bytes/char; share]] rows plus a total row (the
    sum over every component, storage overlays included), for
    {!Report.Table.print}-style rendering. *)

val jsonl : t -> string
(** The whole report as one JSON line. *)

val set_gauges : t -> unit
(** Publish every component as a telemetry gauge
    [space.<backend>.<component>_bytes] (plus
    [space.<backend>.total_bytes]); a no-op value-wise while telemetry
    is disabled. *)
