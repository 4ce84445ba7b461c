(** The bench-trajectory regression gate.

    [bench/main.exe] writes a machine-readable trajectory
    ([BENCH_spine.json]: wall seconds per experiment, Bechamel
    nanoseconds-per-run per microbench) and the repository commits one
    as the baseline.  This module parses two such artifacts and
    classifies every benchmark's movement against a relative
    tolerance; [spine_cli bench-compare] turns the classification into
    an exit code so CI fails on a regression {e or} on a benchmark
    that silently disappeared.

    The container ships no JSON library, so {!Json} is a minimal but
    grammar-complete recursive-descent parser. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse_exn : string -> t
  val parse : string -> (t, string) result
  val member : string -> t -> t option
  (** [member key (Obj _)] is the field's value; [None] on a missing
      key or a non-object. *)
end

(** {1 The artifact schema} *)

type entry = {
  group : string;  (** top-level array name: ["experiments"], ["micro"] *)
  name : string;
  unit_ : string;  (** the measurement field's key: ["wall_s"], ["ns_per_run"] *)
  value : float option;  (** [None] when the artifact recorded [null]
                             (a failed OLS fit) *)
}

type baseline = { schema : string; entries : entry list }

val load : path:string -> (baseline, string) result
(** Read and parse an artifact.  Every top-level array of
    [{"name": …, "<unit>": <number|null>}] objects contributes
    entries, so schema growth (a new group) needs no parser change.
    [Error] on an unreadable file, malformed JSON or a missing
    ["schema"] field. *)

(** {1 Comparison} *)

type verdict =
  | Ok_within     (** within tolerance (including improvements) *)
  | Regressed     (** new value exceeds old by more than tolerance *)
  | Added         (** only in the new artifact — informational *)
  | Removed       (** dropped from the new artifact — a failure: a
                      silently vanished benchmark hides a regression *)
  | Incomparable  (** [null] (failed fit) on either side *)

type comparison = {
  c_group : string;
  c_name : string;
  c_unit : string;
  c_old : float option;
  c_new : float option;
  c_ratio : float option;  (** new / old where both are measured *)
  c_verdict : verdict;
}

val compare_baselines :
  ?floors:(string * float) list ->
  tolerance:float -> baseline -> baseline -> comparison list
(** [compare_baselines ~tolerance old new_] classifies every benchmark
    present in either artifact.  [tolerance] is relative: a benchmark
    regresses when [new > old * (1 + tolerance)].  [floors] maps a
    unit (e.g. ["wall_s"]) to an absolute noise floor: when both sides
    sit at or below the floor the ratio is meaningless timer noise and
    the verdict stays [Ok_within] — this is what lets a gate keep
    sub-millisecond benchmarks in the trajectory without flaking on
    them.  Entries are matched by [(group, name)]; old-artifact order
    is preserved, additions follow. *)

val failures : comparison list -> comparison list
(** The subset that should fail a gate: [Regressed] and [Removed]. *)

val verdict_string : verdict -> string
val rows : comparison list -> string list list
(** [[group; name; unit; old; new; ratio; verdict]] rows for
    {!Report.Table.print}. *)
