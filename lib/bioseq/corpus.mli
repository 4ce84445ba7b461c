(** The paper's evaluation corpus, reproduced synthetically.

    Section 5/6 of the paper evaluates on four DNA strings — E.coli
    (3.5 Mbp), C.elegans (15.5 Mbp), Human chromosome 21 (28.5 Mbp),
    Human chromosome 19 (57.5 Mbp) — and three proteomes — E.coli residue
    (1.5 M), Yeast residue (3.1 M), Drosophila residue (7.5 M).

    Each corpus entry here is a named deterministic generator profile with
    the paper's length.  Because a pure-OCaml testbed is slower per
    character than the paper's C prototype, experiments run at a
    configurable [scale] (default 1/10 of the paper's lengths); the
    reported comparisons are index-vs-index on identical inputs, so the
    scale factor cancels out of every relative result. *)

type t = {
  name : string;            (** paper's label, e.g. "HC21" *)
  description : string;
  alphabet : Alphabet.t;
  paper_length : int;       (** characters in the paper's real string *)
  seed : int;               (** deterministic generation seed *)
  profile : Synthetic.repeat_profile;
}

(** E.coli genome, 3.5 M characters in the paper. *)
val eco : t

(** C.elegans genome, 15.5 M characters. *)
val cel : t

(** E.coli proteome, 1.5 M residues. *)
val eco_r : t

val dna : t list
(** [eco; cel; hc21; hc19], the order used by the paper's figures. *)

val proteins : t list
(** [eco_r; yeast_r; dros_r]. *)

val find : string -> t option
(** Case-insensitive lookup by name. *)

val find_exn : string -> t
(** Like {!find} but for corpora known to exist (the experiment
    harness's own tables).
    @raise Invalid_argument naming the missing corpus, instead of the
    anonymous [Option.get] failure. *)

val scaled_length : scale:float -> t -> int
(** [scaled_length ~scale c] is [c.paper_length] scaled and clamped to at
    least 1000 characters. *)

val load : ?scale:float -> t -> Packed_seq.t
(** Generate the synthetic stand-in string (default [scale = 0.1]).
    Deterministic: same corpus and scale always produce the same
    string. *)
