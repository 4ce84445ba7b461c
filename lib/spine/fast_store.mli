(** Hashtable-backed SPINE store, optimised for in-memory construction
    and search speed.

    Links are dense (every node has one) and live in flat vectors; ribs
    and extribs are sparse (Table 4: under 35 % of nodes carry any) and
    live in int-specialised hashtables ({!Xutil.Int_tbl} — no generic
    hashing on the lookup path) keyed by [(node << code_bits) | code].
    Rib payloads are packed into a single immediate integer to avoid
    allocating on the construction hot path.

    Implements {!Store_sig.S}; see there for the node/edge
    vocabulary. *)

type t

val create : ?capacity:int -> Bioseq.Alphabet.t -> t

val alphabet : t -> Bioseq.Alphabet.t
val length : t -> int
val sequence : t -> Bioseq.Packed_seq.t
val char_at : t -> int -> int
val append_char : t -> int -> unit
val link_dest : t -> int -> int
val link_lel : t -> int -> int
val scan_links : t -> from:int -> min_lel:int -> (int -> int -> unit) -> unit
val set_link : t -> int -> dest:int -> lel:int -> unit
val find_rib : t -> int -> int -> (int * int) option
val add_rib : t -> int -> code:int -> dest:int -> pt:int -> unit
val find_extrib : t -> int -> (int * int * int * int) option
val add_extrib : t -> int -> dest:int -> pt:int -> prt:int -> anchor:int -> unit
val fold_ribs : t -> int -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a

val model_bytes : t -> int
(** Memory model for the comparison tables: what a C implementation of
    this logical structure would allocate, using the paper's optimised
    field widths (Section 5): 4-byte destinations, 2-byte numeric
    labels, bit-packed character labels. *)

val rib_count : t -> int
val extrib_count : t -> int

val space_components : t -> (string * int) list
(** Measured live bytes of this OCaml representation per component
    ([vertebrae]/[links]/[ribs]/[extribs]); see {!Store_sig.S}. *)
