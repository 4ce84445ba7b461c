(** Growable vectors of unboxed integers.

    Both index implementations are array-based for cache behaviour and
    GC friendliness (a pointer-per-node representation would triple the
    footprint and defeat the space comparison); this is the shared
    growable backing store. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** Bounds-checked by assertion only; hot path. *)

val set : t -> int -> int -> unit

val push : t -> int -> unit
(** Append, growing capacity geometrically. *)

val pop : t -> int
(** Remove and return the last element. @raise Invalid_argument if empty. *)

val clear : t -> unit

val blit_to_array : t -> int array
(** Copy out the contents. *)

val iter : t -> f:(int -> unit) -> unit

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

(* spine-lint: allow unused-export -- the tests' binary-search reference scan *)
val binary_search : t -> int -> int option
(** [binary_search t v] finds the index of [v] assuming the vector is
    sorted ascending; [None] if absent: the target-node-buffer lookup
    of the paper's all-occurrences search, as the test suite's
    reference scan runs it. *)
