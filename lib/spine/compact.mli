(** The SPINE index, in memory, in the paper's optimised Section 5
    layout.

    Online construction over {!Compact_store}: the paper's Link Table +
    Rib Tables with 2-byte labels and an overflow side table.  This is
    the representation whose space the paper reports ("less than 12
    bytes per indexed character"); {!Persistent} and {!Disk} page the
    very same bytes through a buffer pool.  Queries go through
    {!engine}.

    Positions are 0-based; node [i] of the backbone is the end of the
    prefix of length [i], so a pattern occurrence with end node [e] and
    length [l] starts at position [e - l]. *)

type t = Compact_store.t
(** Transparently the underlying store: its Section 5 space accounting
    ({!Compact_store.space}, {!Compact_store.bytes_per_char}) applies
    directly, as do {!Validate} and {!Persistent.of_compact}. *)

val engine : t -> Engine.t
(** Pack as an engine (backend "compact").  Build once
    and reuse. *)

(** {2 Construction} *)

val create : ?capacity:int -> Bioseq.Alphabet.t -> t
(** An empty index (just the root node), for a text without the
    separator code; {!Generalized} builds its own with
    {!Compact_store.create}[ ~separator:true]. *)

val append : t -> int -> unit
(** Append one character code.  The index is fully usable between
    appends — construction is online, and the index of a prefix is the
    initial fragment of the index (prefix-partitionability). *)

val of_seq : Bioseq.Packed_seq.t -> t
(** Index a whole sequence (with the [separator] layout if it holds the
    separator code). *)

val of_string : Bioseq.Alphabet.t -> string -> t

