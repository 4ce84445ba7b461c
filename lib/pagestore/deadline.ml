(* Cooperative per-query deadlines (see deadline.mli).  The ambient
   deadline lives in a Domain.DLS slot, like the probe counts and the
   open profile scopes: arming is one save/restore, a check is one DLS
   read plus a compare when armed, one DLS read when not — cheap enough
   for the paged hot paths to call unconditionally. *)

type ctx = {
  d_op : string;
  d_armed_ns : int;
  d_deadline_ns : int;  (* absolute, on d_clock's timeline *)
  d_clock : unit -> int;
}

let slot : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let remaining_ns () =
  match !(Domain.DLS.get slot) with
  | None -> None
  | Some c -> Some (c.d_deadline_ns - c.d_clock ())

(* The context is Domain.DLS state, so both the read and the stored
   clock closure are per-domain by construction: each domain arms and
   observes only its own deadline, and the clock is either the process
   wall clock or a test-owned virtual clock scoped to the same call. *)
let[@spine.domain_safe
     "deadline context and its clock closure live in a Domain.DLS slot; \
      per-domain by construction"] check () =
  match !(Domain.DLS.get slot) with
  | None -> ()
  | Some c ->
    let now = c.d_clock () in
    if now > c.d_deadline_ns then
      Spine_error.timeout ~op:c.d_op
        ~deadline_ns:(c.d_deadline_ns - c.d_armed_ns)
        ~elapsed_ns:(now - c.d_armed_ns)

let with_deadline ?(clock = Xutil.Stopwatch.now_ns) ~op ~deadline_ns f =
  let r = Domain.DLS.get slot in
  let prev = !r in
  let now = clock () in
  r :=
    Some
      { d_op = op; d_armed_ns = now; d_deadline_ns = now + deadline_ns;
        d_clock = clock };
  Fun.protect ~finally:(fun () -> r := prev) f
