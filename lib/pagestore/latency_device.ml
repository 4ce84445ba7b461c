(* Seeded latency injection over Device (see latency_device.mli).  The
   injector is a hook *wrapper*: it chains onto whatever hooks are
   already installed (a Fault_device plan, a test probe), sleeps a
   deterministic per-op delay, then delegates — so latency and faults
   compose in one scenario. *)

let c_ops = Telemetry.counter "latency.injected_ops"
let h_ns = Telemetry.histogram "latency.injected_ns"

type config = {
  read_ns : int;
  write_ns : int;
  jitter_ns : int;
  seed : int;
}

type t = {
  config : config;
  sleep_ns : int -> unit;
  rng : Xutil.Splitmix.t;
  mutable inner : Device.hooks option;
  mutable attached : Device.t option;
}

let create ?(sleep_ns = fun ns -> Unix.sleepf (float_of_int ns /. 1e9))
    config =
  { config; sleep_ns;
    rng =
      Xutil.Splitmix.of_state
        (Int64.of_int (if config.seed = 0 then 0x9E3779B9 else config.seed));
    inner = None; attached = None }

let delay_for t base =
  if base <= 0 && t.config.jitter_ns <= 0 then 0
  else begin
    let jitter =
      if t.config.jitter_ns <= 0 then 0
      else Xutil.Splitmix.bits62 t.rng mod (t.config.jitter_ns + 1)
    in
    Int.max 0 (base + jitter)
  end

let inject t ~what ~page base =
  let ns = delay_for t base in
  if ns > 0 then begin
    (* fail fast if the query's deadline is already overrun, and never
       sleep past it by more than the truncation below *)
    Deadline.check ();
    let ns =
      match Deadline.remaining_ns () with
      | None -> ns
      | Some rem -> Int.min ns (Int.max 0 rem)
    in
    if ns > 0 then begin
      t.sleep_ns ns;
      Telemetry.incr c_ops;
      Telemetry.observe h_ns ns;
      Probe.add Probe.injected_delay_ns ns;
      if Trace.on () then
        Trace.instant "latency.inject"
          [ Trace.Str ("op", what); Trace.Int ("page", page);
            Trace.Int ("ns", ns) ]
    end
  end

let hooks t =
  { Device.on_read =
      (fun ~page ->
        inject t ~what:"read" ~page t.config.read_ns;
        match t.inner with Some h -> h.Device.on_read ~page | None -> ());
    on_write =
      (fun ~page ~phys ->
        inject t ~what:"write" ~page t.config.write_ns;
        match t.inner with
        | Some h -> h.Device.on_write ~page ~phys
        | None -> Device.Write_through) }

let attach t dev =
  (match t.attached with
   | Some _ -> invalid_arg "Latency_device.attach: already attached"
   | None -> ());
  t.inner <- Device.hooks dev;
  t.attached <- Some dev;
  Device.set_hooks dev (Some (hooks t))

let detach t =
  match t.attached with
  | None -> ()
  | Some dev ->
    Device.set_hooks dev t.inner;
    t.inner <- None;
    t.attached <- None
