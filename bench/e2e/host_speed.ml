let iterations = 100_000

(* Four independent chains of integer operations: the loop is bound by
   the core's issue width, the resource a busy neighbour on the same
   physical core takes away, rather than by the latency of one chain. *)
let probe () =
  let t0 = Xutil.Stopwatch.now_ns () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to iterations do
    a := (!a + i) lxor (!a lsr 3);
    b := (!b + i) lxor (!b lsr 5);
    c := (!c + i) lxor (!c lsr 7);
    d := (!d + i) lxor (!d lsr 11)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d));
  float_of_int (Xutil.Stopwatch.now_ns () - t0) /. float_of_int iterations

let reference = 1.5

type meter = { mutable sum : float; mutable n : int; mutable last : int }

let meter () = { sum = 0.; n = 0; last = 0 }

let interval_ns = 25_000_000

let sample m =
  m.sum <- m.sum +. probe ();
  m.n <- m.n + 1;
  m.last <- Xutil.Stopwatch.now_ns ()

let tick m = if Xutil.Stopwatch.now_ns () - m.last >= interval_ns then sample m

let reading m =
  if m.n = 0 then invalid_arg "Host_speed.reading: no probe taken";
  let r = m.sum /. float_of_int m.n in
  m.sum <- 0.;
  m.n <- 0;
  r

let exponent = 0.75

let scale reading = (reference /. reading) ** exponent
