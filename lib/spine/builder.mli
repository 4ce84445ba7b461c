(** Online SPINE construction (Section 3 of the paper).

    One {!Make.append} call per data character.  The link chain of the
    new node's parent is traversed upstream; at each visited node a rib
    is created unless a forward edge for the new character already
    exists, in which case the traversal stops and the new node's link is
    installed according to the paper's four cases (see the
    implementation for the case-by-case commentary).  The
    hand-validated construction trace for the paper's example string
    [aaccacaaca] (Figure 3) is enforced by the test suite. *)

(** Construction is counted through {!Probe}: [build.case1] ..
    [build.case4], [build.ribs_created], [build.extribs_created] and
    [build.links_created], plus the [build.upstream_hops] histogram of
    the link-chain length walked per appended character. *)

module Make (S : Store_sig.S) : sig
  val append : S.t -> int -> unit
  (** [append t c] extends the index by the alphabet code [c]:
      amortised O(1) over the whole string (Theorem 1). *)

  val append_seq : S.t -> Bioseq.Packed_seq.t -> unit

  val append_string : S.t -> string -> unit
  (** Encodes each character with the store's alphabet; raises
      [Invalid_argument] on characters outside it. *)
end
