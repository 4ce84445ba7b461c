(* A manually advanced monotonic clock (see virtual_clock.mli). *)

type t = { mutable now : int }

let create ?(start = 0) () = { now = start }
let now t () = t.now
let advance t ns = if ns > 0 then t.now <- t.now + ns
