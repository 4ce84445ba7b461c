(** One bit per node id in a [Bytes.t]: bit [node land 7] of byte
    [node lsr 3].  The occurrence scan's target bitmap: the search sets
    the bit of every node it buffers, and the Link Table walks test
    the bit of each link destination.  Both accessors are
    bounds-checked: the bitmap must hold a bit for every node the scan
    can meet ([(nodes + 7) / 8] bytes). *)

val set : Bytes.t -> int -> unit
(** [set b node] sets [node]'s bit. *)

val mem : Bytes.t -> int -> bool
(** [mem b node] is whether [node]'s bit is set. *)
