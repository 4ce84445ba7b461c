(** Minimal FASTA reader/writer.

    Real genome distributions (the paper uses E.coli, C.elegans and two
    human chromosomes) ship as FASTA; this module lets the CLI and the
    examples index user-supplied FASTA files.  Characters are normalised
    to lower case for DNA; characters outside the target alphabet (e.g.
    the ambiguity code [N]) are skipped, matching how MUMmer-era tools
    preprocessed chromosomes. *)

type record = {
  header : string;        (** text after ['>'], without the newline *)
  seq : Packed_seq.t;
}

val read_file : Alphabet.t -> string -> record list
(** Read and parse a file. *)
