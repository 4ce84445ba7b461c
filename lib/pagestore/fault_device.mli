(** Deterministic fault injection for {!Device}.

    A fault {e plan} is a seed plus a list of {e arms}; attaching it to
    a device (via {!Device.set_hooks}) makes the device misbehave in
    precisely scripted ways:

    - [Read_error] / [Write_error]: the operation raises a {e transient}
      typed {!Spine_error.Error} ([Io_failed]) — what the buffer pool's
      retry path is for.
    - [Bit_flip]: the page is stored with one randomly chosen bit
      inverted (media corruption {e after} the checksum was computed,
      so integrity checking must catch it on read-back).
    - [Torn_write n]: only the first [n] physical bytes of the write
      land; the device then {e freezes} — a sector-granularity power
      cut.
    - [Crash]: the write (and every subsequent write) is silently
      dropped — the file image is frozen exactly as it was, simulating
      a process kill at that point.

    Every decision is a pure function of the plan (seed, arm order) and
    the device-operation sequence, so any failing trial replays from
    its plan string alone.

    Plans parse from the [SPINE_FAULTS] environment variable; see
    {!parse} for the grammar. *)

type kind = Fault_spec.kind =
  | Read_error
  | Write_error
  | Bit_flip
  | Torn_write of int  (** physical bytes that land before the cut *)
  | Crash

type arm
(** One scripted fault: a kind, an optional inclusive page range it
    applies to, [after] = number of matching operations to let through
    first, [times] = how many times it fires (consecutive operations
    for the error kinds). *)

val arm : ?pages:int * int -> ?after:int -> ?times:int -> kind -> arm
(** [after] defaults to 0, [times] to 1. *)

type t

val create : ?seed:int -> arm list -> t
(** A fresh plan ([seed] defaults to 1; it drives bit-flip placement). *)

val attach : t -> Device.t -> unit
(** Install the plan as the device's fault hooks (replacing any). *)

(* spine-lint: allow unused-export -- tests remove a fault plan mid-run *)
val detach : Device.t -> unit

val frozen : t -> bool
(** True once a [Torn_write] or [Crash] arm fired: the device image is
    fixed, all further writes are dropped. *)

type stats = {
  read_errors : int;
  write_errors : int;
  bit_flips : int;
  torn_writes : int;
  crashes : int;
  dropped_writes : int;  (** writes swallowed after the freeze *)
}

(* spine-lint: allow unused-export -- tests count the injected faults *)
val stats : t -> stats

(** {2 The [SPINE_FAULTS] grammar}

    The grammar and its typed parser live in {!Fault_spec}; these
    wrappers instantiate a parsed spec as a live plan. *)

val of_spec : Fault_spec.t -> t
(** Instantiate a typed spec (seed defaulting as {!create}). *)

(* spine-lint: allow unused-export -- tests parse specs without the variable *)
val parse : string -> (t, string) result
(** [Fault_spec.parse] rendered through {!Fault_spec.error_to_string} —
    the historical message strings, byte for byte. *)

(* spine-lint: allow unused-export -- tests set and clear the variable *)
val env_var : string
(** ["SPINE_FAULTS"]. *)

val of_env : unit -> t option
(** Plan from [SPINE_FAULTS] ([None] when unset or empty).
    @raise Invalid_argument when the variable is set but malformed —
    a scripted fault run with a typo should fail loudly, not run
    clean. *)
