(** The [SPINE_FAULTS] grammar, parsed to a typed plan description.

    {[ spec  := item (';' item)*
       item  := 'seed=' INT | kind (':' opt)*
       kind  := 'read_error' | 'write_error' | 'flip' | 'torn' | 'crash'
       opt   := 'page=' INT ['-' INT] | 'after=' INT | 'times=' INT
              | 'keep=' INT   (torn only) ]}

    Example: ["seed=7;flip:after=12;read_error:page=0-16:times=3"].

    {!Fault_device} instantiates a parsed spec as a live fault plan;
    the scenario harness ({!Scenario}) embeds the same grammar in its
    fault stages.  Parse failures are a typed {!error} whose
    {!error_to_string} rendering is byte-identical to the historical
    [Fault_device.parse] messages — [SPINE_FAULTS] diagnostics are part
    of the CLI surface. *)

type kind =
  | Read_error
  | Write_error
  | Bit_flip
  | Torn_write of int  (** physical bytes that land before the cut *)
  | Crash

type arm_spec = {
  s_kind : kind;
  s_pages : (int * int) option;  (** inclusive page range; [None] = all *)
  s_after : int;   (** matching operations let through first *)
  s_times : int;   (** how many times the arm fires *)
}

type t = {
  seed : int option;  (** [seed=] item, if present *)
  arms : arm_spec list;
}

type error =
  | Not_a_number of string
  | Negative of string * int     (** option key, offending value *)
  | Unknown_kind of string
  | Malformed_option of string   (** no [=] separator *)
  | Unknown_option of string
  | Empty_page_range of string   (** [page=lo-hi] with [hi < lo] *)
  | Misplaced_keep               (** [keep=] on a non-torn kind *)
  | Empty_item

val error_to_string : error -> string
(** The historical [Fault_device.parse] message for this error,
    byte for byte. *)

val parse : string -> (t, error) result
