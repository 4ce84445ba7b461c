(** Bench-side spans for the traced run.

    The traced run wraps every request, and every public call inside
    it, in a span named after the layer the call enters
    ([search.descent], [search.scan], [persist.flush], ...).  Spans of
    one request share its request id.  Aggregates per name (calls,
    total and self time, where self time is the span's duration minus
    the part its child spans cover) are kept for every span; only the
    first [keep] spans are kept individually, for the Chrome trace
    file, so memory stays bounded on long runs. *)

type t

val create : keep:int -> unit -> t

val span : t -> string -> req:int -> (unit -> 'a) -> 'a
(** [span t name ~req f] runs [f] as a span nested in the innermost
    open span, recording it even when [f] raises. *)

val calls : t -> string -> int
val self_ns : t -> string -> int
(** Summed self time of every span with this name; [0] if none ran. *)

val write_chrome : t -> string -> unit
(** Write the kept spans as a Chrome trace-event JSON file ("X"
    complete events, microsecond timestamps, [args] carrying the span
    id, its parent's id and the request id). *)
