(* Deterministic fault injection over Device, in the spirit of
   crash-consistency test harnesses (ALICE, LevelDB's torn-write
   checks): every fault a plan injects is a pure function of the plan's
   seed and the sequence of device operations, so a failing trial is
   replayable from its SPINE_FAULTS string alone. *)

let c_read_errors = Telemetry.counter "fault.read_errors"
let c_write_errors = Telemetry.counter "fault.write_errors"
let c_bit_flips = Telemetry.counter "fault.bit_flips"
let c_torn_writes = Telemetry.counter "fault.torn_writes"
let c_crashes = Telemetry.counter "fault.crashes"
let c_dropped = Telemetry.counter "fault.dropped_writes"

type kind = Fault_spec.kind =
  | Read_error
  | Write_error
  | Bit_flip
  | Torn_write of int
  | Crash

type arm = {
  kind : kind;
  pages : (int * int) option;
  mutable after : int;
  mutable times : int;
}

let arm ?pages ?(after = 0) ?(times = 1) kind = { kind; pages; after; times }

type stats = {
  read_errors : int;
  write_errors : int;
  bit_flips : int;
  torn_writes : int;
  crashes : int;
  dropped_writes : int;
}

type t = {
  seed : int;
  arms : arm list;
  rng : Xutil.Splitmix.t;
  mutable frozen : bool;
  mutable read_errors : int;
  mutable write_errors : int;
  mutable bit_flips : int;
  mutable torn_writes : int;
  mutable crashes : int;
  mutable dropped_writes : int;
}

let create ?(seed = 1) arms =
  { seed; arms;
    rng =
      Xutil.Splitmix.of_state
        (Int64.of_int (if seed = 0 then 0x9E3779B9 else seed));
    frozen = false;
    read_errors = 0; write_errors = 0; bit_flips = 0; torn_writes = 0;
    crashes = 0; dropped_writes = 0 }

let frozen t = t.frozen

let stats t =
  { read_errors = t.read_errors; write_errors = t.write_errors;
    bit_flips = t.bit_flips; torn_writes = t.torn_writes;
    crashes = t.crashes; dropped_writes = t.dropped_writes }

let rand_below t n = if n <= 1 then 0 else Xutil.Splitmix.bits62 t.rng mod n

let page_matches a page =
  match a.pages with
  | None -> true
  | Some (lo, hi) -> page >= lo && page <= hi

(* Does this armed fault fire for this operation?  [after] skips that
   many matching operations first; [times] bounds how often it fires. *)
let triggers a page =
  if a.times <= 0 || not (page_matches a page) then false
  else if a.after > 0 then begin
    a.after <- a.after - 1;
    false
  end
  else begin
    a.times <- a.times - 1;
    true
  end

let is_read_kind = function Read_error -> true | _ -> false

let on_read t ~page =
  if not t.frozen then
    List.iter
      (fun a ->
        if is_read_kind a.kind && triggers a page then begin
          t.read_errors <- t.read_errors + 1;
          Telemetry.incr c_read_errors;
          if Trace.on () then
            Trace.instant "fault.read_error" [ Trace.Int ("page", page) ];
          Spine_error.io_failed ~op:Spine_error.Read ~page ~transient:true
            "injected read error (seed %d)" t.seed
        end)
      t.arms

let flip_one_bit t phys =
  let b = Bytes.copy phys in
  (* stay clear of the trailer's 4 reserved bytes: a flip there is the
     one spot integrity checking deliberately does not cover *)
  let span = Int.max 1 (Bytes.length b - 4) in
  let byte = rand_below t span in
  let bit = rand_below t 8 in
  Bytes.set b byte
    (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  b

let on_write t ~page ~phys =
  if t.frozen then begin
    t.dropped_writes <- t.dropped_writes + 1;
    Telemetry.incr c_dropped;
    Device.Dropped
  end
  else begin
    let verdict = ref Device.Write_through in
    (try
       List.iter
         (fun a ->
           if not (is_read_kind a.kind) && triggers a page then begin
             (match a.kind with
              | Read_error -> ()
              | Write_error ->
                t.write_errors <- t.write_errors + 1;
                Telemetry.incr c_write_errors;
                if Trace.on () then
                  Trace.instant "fault.write_error" [ Trace.Int ("page", page) ];
                Spine_error.io_failed ~op:Spine_error.Write ~page
                  ~transient:true "injected write error (seed %d)" t.seed
              | Bit_flip ->
                t.bit_flips <- t.bit_flips + 1;
                Telemetry.incr c_bit_flips;
                if Trace.on () then
                  Trace.instant "fault.bit_flip" [ Trace.Int ("page", page) ];
                verdict := Device.Tampered (flip_one_bit t phys)
              | Torn_write keep ->
                t.torn_writes <- t.torn_writes + 1;
                Telemetry.incr c_torn_writes;
                if Trace.on () then
                  Trace.instant "fault.torn_write"
                    [ Trace.Int ("page", page); Trace.Int ("keep", keep) ];
                t.frozen <- true;
                verdict := Device.Torn keep
              | Crash ->
                t.crashes <- t.crashes + 1;
                Telemetry.incr c_crashes;
                if Trace.on () then
                  Trace.instant "fault.crash" [ Trace.Int ("page", page) ];
                t.frozen <- true;
                verdict := Device.Dropped);
             raise Exit
           end)
         t.arms
     with Exit -> ());
    !verdict
  end

let attach t dev =
  Device.set_hooks dev
    (Some
       { Device.on_read = (fun ~page -> on_read t ~page);
         on_write = (fun ~page ~phys -> on_write t ~page ~phys) })

let detach dev = Device.set_hooks dev None

(* --- SPINE_FAULTS grammar ---

   The grammar and its typed parser live in Fault_spec (the scenario
   harness embeds the same spec strings in its fault stages); this end
   only instantiates a parsed spec as a live plan. *)

let of_spec (s : Fault_spec.t) =
  create ?seed:s.Fault_spec.seed
    (List.map
       (fun (a : Fault_spec.arm_spec) ->
         { kind = a.Fault_spec.s_kind; pages = a.Fault_spec.s_pages;
           after = a.Fault_spec.s_after; times = a.Fault_spec.s_times })
       s.Fault_spec.arms)

let parse spec =
  match Fault_spec.parse spec with
  | Ok s -> Ok (of_spec s)
  | Error e -> Error (Fault_spec.error_to_string e)

let env_var = "SPINE_FAULTS"

let of_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some spec ->
    (match parse spec with
     | Ok t -> Some t
     | Error msg ->
       invalid_arg (Printf.sprintf "%s: %s (in %S)" env_var msg spec))
