(** The SPINE index — in-memory flavour.

    Online construction over the hashtable-backed {!Fast_store}, plus
    the raw structure access the paper's worked example is checked
    against.  Queries go through {!engine}; see {!Compact} for the
    paper's packed Link-Table/Rib-Table layout.

    Positions are 0-based; node [i] of the backbone is the end of the
    prefix of length [i], so a pattern occurrence with end node [e] and
    length [l] starts at position [e - l]. *)

type t = Fast_store.t
(** Transparently the underlying store, so modules layered on top
    ({!Serialize}, {!Validate}, {!Align}) can operate on it directly. *)

val engine : t -> Engine.t
(** Pack the index as a capability-aware engine (backend "fast").
    Build once and reuse; see {!Engine.pack}. *)

(** {2 Construction} *)

val create : ?capacity:int -> Bioseq.Alphabet.t -> t
(** An empty index (just the root node). *)

val append : t -> int -> unit
(** Append one character code. The index is fully usable between
    appends — construction is online, and the index of a prefix is the
    initial fragment of the index (prefix-partitionability). *)

val append_string : t -> string -> unit

val of_seq : Bioseq.Packed_seq.t -> t
(** Index a whole sequence. *)

val of_string : Bioseq.Alphabet.t -> string -> t

(** {2 Accounting} *)

val model_bytes : t -> int
(** Bytes a C implementation with the paper's optimised field widths
    would use (Section 5 space model). *)

(** {2 Raw structure access}

    Exposed for the test suite (the paper's Figure 3 is checked
    edge-for-edge) and for the serializer. *)

val link : t -> int -> int * int
(** [(dest, lel)] of a node's backward link. *)

val rib : t -> int -> int -> (int * int) option
(** [(dest, pt)] of the rib leaving a node with a given code. *)

val extrib : t -> int -> (int * int * int) option
(** [(dest, pt, prt)] of the extrib anchored at a node. *)

val store : t -> Fast_store.t
(** The underlying store ([t] is transparently equal to it). *)

val of_store : Fast_store.t -> t
(** Wrap an already-populated store (used by {!Serialize}). *)
