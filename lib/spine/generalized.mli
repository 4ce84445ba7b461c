(** Generalized SPINE: one index over several strings.

    The paper notes that "a single SPINE index can be used to index
    multiple different strings, using techniques similar to those
    employed in Generalized Suffix Trees".  Strings are appended to one
    backbone separated by the alphabet's reserved separator code; query
    patterns never contain the separator, so no match can span two
    strings, and global positions translate back to
    [(string id, local position)]. *)

type t

val create : Bioseq.Alphabet.t -> t

val add : t -> ?name:string -> Bioseq.Packed_seq.t -> int
(** Append one more string to the index (online); returns its id.
    @raise Invalid_argument if the sequence's alphabet differs. *)

val count : t -> int
(** Number of strings indexed. *)

val name : t -> int -> string

val engine : t -> Engine.t
(** The underlying index packed once as an engine
    ({!Compact.engine}); positions it returns are global backbone
    positions, which {!occurrences} translates to per-string ones.
    Pack query patterns against it ({!Engine.pattern}). *)

type hit = {
  string_id : int;
  pos : int;      (** 0-based start within that string *)
}

val occurrences : t -> Bioseq.Packed_seq.Pattern.t -> hit list
(** All occurrences of a packed pattern across all indexed strings,
    ordered by (id, position). *)
