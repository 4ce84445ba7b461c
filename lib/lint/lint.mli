(** spine-lint: static analysis over the typed ASTs in [_build].

    The driver walks the [.cmt] files dune leaves next to every
    compiled module (via [compiler-libs]) and enforces the repo's
    hot-path and correctness invariants — the compile-time counterpart
    of the telemetry subsystem.  Rules are scoped by source path: the
    hot-path rules only fire inside [lib/spine], [lib/pagestore] and
    [lib/bioseq]; the hygiene rules cover all of [lib/].

    Any finding can be silenced at the offending line (or the line
    above it) with

    {v (* spine-lint: allow <rule> [<rule> ...] [-- <reason>] *) v}

    or for a whole file with [(* spine-lint: allow-file <rule> *)].
    Suppressed findings are still collected and reported separately so
    the waiver surface stays visible; a line waiver's reason is
    appended to its finding's message.  See docs/STATIC_ANALYSIS.md. *)

module Domain_safety : module type of Domain_safety
(** The interprocedural domain-safety pass (rules L9/L10/L11), re-
    exported so callers can name its certification and site types. *)

type severity = Error | Warning

type rule =
  | Poly_compare
      (** L1: no polymorphic [compare]/[=]/[min]/[max]/[Hashtbl.hash]/
          [Hashtbl] on hot-path libraries.  Comparisons whose argument
          type the compiler specialises (int, char, bool, unit, string,
          bytes, float, int32, int64, nativeint) are fine; [Stdlib.min]
          and [Stdlib.max] are ordinary functions, flagged at every
          type. *)
  | Obj_magic     (** L2: no [Obj.magic]/[Obj.repr]/[Obj.obj]. *)
  | Catch_all     (** L3: no [try ... with _ ->] swallowing exceptions. *)
  | Direct_stdout
      (** L4: no direct stdout printing from library code; route
          through [lib/report] or [lib/telemetry]. *)
  | Missing_mli
      (** L5: every module in [lib/spine] and [lib/pagestore] has a
          [.mli]. *)
  | Partial_call
      (** L6: no [List.hd]/[List.tl]/[Option.get] in library code. *)
  | Raw_clock
      (** L7: no [Unix.gettimeofday]/[Unix.time]/[Sys.time] in library
          code; timings come from [Xutil.Stopwatch]'s monotonic
          clock. *)
  | Bare_failwith
      (** L8: no bare [failwith]/[Failure] raises in the typed-error
          storage stack ([lib/pagestore], and the modules of the
          persistent index file in [lib/spine]: [persistent.ml],
          [region_map.ml], [meta_slot.ml], [preimage_journal.ml] and
          [side_log.ml]); failures there are typed [Spine_error.Error]
          values. *)
  | Shared_mutation
      (** L9: no write reachable from the engine's query surface
          (the read operations rooted in [lib/spine]) may touch state
          that outlives the call — a module-level value, a field of
          the shared store argument, or state behind a stored closure
          — unless it goes through [Atomic]/[Domain.DLS], runs under
          a [Mutex], or the binding is annotated
          [@spine.domain_safe "reason"].  Interprocedural; only
          reported when {!run} is called with [~domains:true]. *)
  | Global_mutable
      (** L10: no module-level mutable value in [lib/spine] or
          [lib/pagestore] without a Mutex/Atomic guard or a
          [@spine.domain_safe "reason"] annotation. *)
  | Unguarded_unsafe
      (** L11: no [Array.unsafe_*]/[Bytes.unsafe_*]/
          [Bigarray...unsafe_*] in library code outside modules that
          declare [@@@spine.checked_boundary "reason"]. *)
  | Unused_export
      (** L12: every [val] of a [lib/] interface — a submodule's, a
          functor result's and a functor-returned module type's
          included; a parameter-only module type's members are
          requirements and never judged — has a use outside its own
          unit: an identifier resolving to its declaration, or a
          module passed to a functor or packed as a first-class module
          where the target signature names it.  No use at all is an
          error; uses from [test/] alone are a "test-only" warning.
          Judged only when the scan holds units outside [lib/]. *)

val all_rules : rule list

val rule_id : rule -> string
(** Stable kebab-case id used in output and suppression comments:
    ["poly-compare"], ["obj-magic"], ["catch-all"], ["stdout"],
    ["missing-mli"], ["partial-call"], ["raw-clock"],
    ["bare-failwith"], ["shared-mutation"], ["global-mutable"],
    ["unguarded-unsafe"], ["unused-export"].  The short aliases
    ["l1"].["l12"] are accepted by {!rule_of_id}. *)

val rule_of_id : string -> rule option
val rule_doc : rule -> string
val default_severity : rule -> severity
val severity_id : severity -> string

type finding = {
  rule : rule;
  severity : severity;
  file : string;  (** source path relative to the repo root *)
  line : int;
  col : int;
  message : string;
}

type result = {
  findings : finding list;    (** unsuppressed, sorted by file/line *)
  suppressed : finding list;
  files_scanned : int;        (** [.cmt] files read *)
  certification : Domain_safety.cert_row list;
      (** per-module verdicts for the query surface; populated only
          when {!run} was called with [~domains:true] *)
}

val run :
  ?all_paths:bool ->
  ?demote:rule list ->
  ?only:rule list ->
  ?except:rule list ->
  ?domains:bool ->
  build_dir:string ->
  source_root:string ->
  unit ->
  (result, string) Stdlib.result
(** Scan every [.cmt] under [build_dir].  [source_root] is the
    directory the cmt-recorded source paths (and the [.mli] existence
    checks of rule L5) resolve against — with dune this is the build
    context root, since both cmts and copied sources live there.
    [all_paths] disables path scoping so fixture trees outside [lib/]
    can be linted (tests use this); L12 then judges every interface
    and counts a unit named [test_*] as test code.  [demote]
    downgrades the listed rules to [Warning].  [only]/[except] restrict which rules run
    ([only = []] means all).  [domains] enables the interprocedural
    domain-safety pass: per-function summaries are collected from
    every library module, rule L9 fires on writes escaping the query
    surface, and [certification] is populated.  [Error _] is returned
    only for environmental failures (unreadable build dir, or an L12
    functor argument or packed module, or an L1 comparison's argument
    type, that cannot be expanded because a load-path directory of its
    unit exists under neither root), never for findings. *)

val jsonl : finding list -> string list
(** One JSON object per finding, in the style of the telemetry
    exporter:
    [{"rule":"poly-compare","severity":"error","file":"...","line":3,
      "col":10,"message":"..."}]. *)

val table_rows : finding list -> string list list
(** [[rule; severity; file:line:col; message]] rows for
    {!Report.Table.print}-style rendering. *)

val cert_table_rows : Domain_safety.cert_row list -> string list list
(** [[module; verdict; witness]] rows of the certification table. *)

val cert_jsonl : Domain_safety.cert_row list -> string list
(** One JSON object per certification row:
    [{"module":"Engine","verdict":"certified","witness":"..."}]. *)
