(* spine-lint: allow-file missing-mli — signature-only module; an .mli
   would duplicate the module type verbatim *)

(** Storage abstraction for the SPINE index.

    The SPINE algorithms (online construction, valid-path search,
    streaming matching, {!Validate}) are written once, as functors over
    this signature.  One layout implements it: {!Compact_store}, the
    paper's Section 5 Link Table plus fanout-segregated Rib Tables with
    2-byte numeric labels and an overflow table, held in memory
    ({!Compact}) or on buffer-pool pages ({!Paged_store}, behind
    {!Persistent} and {!Disk}).

    Node/edge vocabulary follows the paper: node [i] represents the
    backbone prefix of length [i] (root is node 0); the vertebra out of
    node [i] carries character [char_at t i]; ribs carry [(dest, pt)];
    the at-most-one extrib anchored at a node carries
    [(dest, pt, prt)]; every node except the root has a backward link
    [(dest, lel)]. *)

module type S = sig
  type t

  val alphabet : t -> Bioseq.Alphabet.t

  val length : t -> int
  (** Characters appended so far; the backbone has [length t + 1]
      nodes. *)

  val char_at : t -> int -> int
  (** Character label of the vertebra from node [i] to node [i + 1],
      i.e. the [i]-th (0-based) character of the data string. *)

  val sequence : t -> Bioseq.Packed_seq.t
  (** The whole data string as its packed row.  Vertebra labels are
      contiguous text characters (node [i]'s vertebra run spells
      [text[i..]]), so the scan paths extend matches word-at-a-time
      against this row instead of one {!char_at} per step. *)

  val append_char : t -> int -> unit
  (** Extend the backbone by one character, creating the new tail node
      with an unset link. Only {!Builder} should call this. *)

  val link_dest : t -> int -> int
  val link_lel : t -> int -> int

  val scan_links :
    t -> from:int -> min_lel:int -> marks:Bytes.t ->
    (int -> int -> int -> unit) -> unit
  (** [scan_links t ~from ~min_lel ~marks f] calls [f node lel dest],
      in ascending node order, for every node in [from .. length t]
      ([from >= 0]) whose link LEL is at least [min_lel] and whose link
      destination [dest] has its bit set in [marks]
      ({!Xutil.Node_bits}; the bitmap must hold a bit for every node)
      — exactly those nodes.  This is the occurrence scan's whole
      admission test run next to the data: the stores walk their link
      column, read the LEL and the destination together and hand over
      only the candidates.

      The bitmap is live during the scan: a node's [dest] bit is
      tested when the walk reaches it, after [f] has run for every
      earlier node, so a bit [f] sets (the scan marks each hit as a
      new target) counts for every later node.  [f] must not write the
      store. *)

  val set_link : t -> int -> dest:int -> lel:int -> unit

  val find_rib : t -> int -> int -> (int * int) option
  (** [find_rib t node code] is [Some (dest, pt)] if a rib labelled
      [code] leaves [node]. *)

  val add_rib : t -> int -> code:int -> dest:int -> pt:int -> unit

  val find_extrib : t -> int -> (int * int * int * int) option
  (** [(dest, pt, prt, anchor)] of the extrib stored at the node, if
      any.  [anchor] is the destination node of the extrib's parent rib:
      extrib chains from different ribs physically merge (a node stores
      at most one extrib), and when two parent ribs share a PT value the
      paper's PRT label alone cannot attribute a chain element to its
      rib — [(anchor, prt)] can, because ribs pointing at the same node
      are created in the same step with distinct PTs.  This field is a
      correction this implementation adds to the paper's scheme; see
      DESIGN.md. *)

  val add_extrib : t -> int -> dest:int -> pt:int -> prt:int -> anchor:int -> unit

  val fold_ribs : t -> int -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a
  (** [fold_ribs t node ~init ~f] folds [f acc code dest pt] over the
      ribs leaving [node]. *)

  val space_components : t -> (string * int) list
  (** Measured live bytes of the store, attributed to named components
      (["vertebrae"], ["links"], ["ribs"], ["extribs"], …).  The sum is
      the store's whole footprint: anything the store allocates must be
      attributed to some component.  {!Engine.space} aggregates this
      into a {!Space_report.t}. *)
end
