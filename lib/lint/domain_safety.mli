(** Interprocedural domain-safety analysis (rules L9/L10/L11).

    Operates on the same [.cmt] typed ASTs as the per-file rules in
    {!Lint}.  {!scan_file} is called once per compiled module inside
    the driver's cmt loop: it returns the file-local findings
    (module-level mutable values for L10, unchecked [unsafe_*]
    accesses for L11) and accumulates a per-function summary of writes
    and calls into the shared {!t}.  After every file has been
    scanned, {!finalize} runs a fixpoint over the summaries and
    reports every write that escapes from the engine's query surface
    (L9), together with a per-module certification table.

    Writes through [Atomic], [Domain.DLS], under a directly-held
    [Mutex] (including closures passed to a same-file function that
    takes one, e.g. a [locked t f] helper) and inside bindings
    annotated [@spine.domain_safe "reason"] are absorbed; files
    carrying [@@@spine.checked_boundary "reason"] waive L11.

    The analysis is deliberately approximate; the approximations and
    their rationale are documented in docs/STATIC_ANALYSIS.md. *)

type mutability =
  | Immutable
  | Mutable of string  (** the mutable constituent, e.g. ["ref cell"] *)
  | Guarded of string  (** shareable by construction: Atomic/Mutex/DLS *)
  | Unknown            (** abstract type; not judged *)

type t
(** Accumulated function summaries across scanned files. *)

val create : unit -> t

type site = { st_line : int; st_col : int; st_msg : string }

val scan_file :
  t -> source:string -> Typedtree.structure -> site list * site list
(** [scan_file t ~source str] walks one compiled module.  Returns
    [(l10, l11)]: the module-level mutable-value sites and the
    unchecked unsafe-access sites of this file (both empty when the
    relevant waiver attribute is present).  Call under the same
    [Load_path]/[Envaux] setup as the other rules so type expansion
    can see the .cmi files this module was compiled against. *)

type l9 = {
  l9_file : string;
  l9_line : int;
  l9_col : int;
  l9_msg : string;
}

type cert_row = {
  cm_module : string;   (** source-file module exposing query roots *)
  cm_verdict : string;  (** ["certified"], ["certified (guarded)"],
                            ["certified (annotated)"] or ["UNSAFE"] *)
  cm_witness : string;  (** why: escape chain or absorption site *)
}

val query_roots : Typedtree.signature -> string list
(** The query surface of a compiled engine interface: the names of its
    values whose first parameter is the interface's own [t]
    ([contains_pattern], [matching_statistics], [cursor], ...). *)

val finalize :
  t -> roots_in:(string -> bool) -> roots:string list ->
  l9 list * cert_row list
(** Run the call-graph fixpoint and report.  [roots] names the queries
    ({!Lint.run} passes {!query_roots} of [engine.mli]).  A function of
    such a name in a file [roots_in] selects ([lib/spine/], or
    everything for fixture trees) is a query root when it belongs to
    [Engine] or a call from [Engine]'s queries reaches it.  L9 findings
    are deduplicated by write site; the first witness chain encountered
    is kept. *)
