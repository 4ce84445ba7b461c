(** Typed errors for the storage stack.

    Every failure the disk vertical can signal — checksum mismatches,
    I/O errors (real or injected), buffer-pool exhaustion, use after
    close — is a constructor of {!t} raised as {!Error}, replacing the
    stringly [Failure] exceptions the stack used to throw.  Callers can
    match precisely: retry on transient {!Io_failed}, surface
    {!Corrupt} with its region and page, treat {!Closed} as a
    programming error.

    This library sits below both [pagestore] and [spine] so the same
    error type flows through the whole vertical. *)

type io_op = Read | Write | Sync

type t =
  | Corrupt of { region : string; page : int; detail : string }
      (** Data failed validation: bad checksum, bad magic, impossible
          structure.  [region] names the on-disk area ("meta", "lt",
          "rt0".."rt3", "seq", "snapshot", …); [page] is the page id, or
          [-1] when the payload is not page-addressed (then [detail]
          carries a byte offset where useful). *)
  | Io_failed of { op : io_op; page : int; transient : bool; detail : string }
      (** The operating system (or the fault injector) refused the
          operation.  [transient] marks errors worth retrying. *)
  | Pool_exhausted of { frames : int; latched : int }
      (** Every buffer-pool frame is latched by a live [with_page]
          caller; no victim can be chosen even after a retry pass. *)
  | Closed of string  (** Operation on a closed handle. *)
  | Timeout of { op : string; deadline_ns : int; elapsed_ns : int }
      (** The operation overran its per-query deadline (armed by the
          resilience layer, checked cooperatively in the paged hot
          paths — see [Pagestore.Deadline]).  The caller got {e no}
          partial result. *)
  | Overloaded of { op : string; state : string }
      (** Load shed: the circuit breaker is open (or still probing in
          half-open) and the request was rejected without touching the
          engine.  [state] names the breaker state that shed it. *)
  | Region_full of { region : string; capacity : int }
      (** A paged table needed more than the [capacity] bytes of its
          fixed page region ("lt", "rt0".."rt3", "seq"), so the index
          cannot grow further at this page size. *)

exception Error of t

val to_string : t -> string
(** One-line human rendering; also installed as the [Printexc] printer
    for {!Error}. *)

val raise_error : t -> 'a

val corrupt :
  region:string -> ?page:int ->
  ('a, unit, string, 'b) format4 -> 'a
(** [corrupt ~region ~page fmt …] raises [Error (Corrupt …)] with a
    formatted detail ([page] defaults to [-1]). *)

val io_failed :
  op:io_op -> ?page:int -> ?transient:bool ->
  ('a, unit, string, 'b) format4 -> 'a
(** Raise [Error (Io_failed …)] ([page] defaults to [-1], [transient]
    to [false]). *)

val timeout : op:string -> deadline_ns:int -> elapsed_ns:int -> 'a
(** Raise [Error (Timeout …)]. *)

val overloaded : op:string -> state:string -> 'a
(** Raise [Error (Overloaded …)]. *)
