type io_op = Read | Write | Sync

type t =
  | Corrupt of { region : string; page : int; detail : string }
  | Io_failed of { op : io_op; page : int; transient : bool; detail : string }
  | Pool_exhausted of { frames : int; latched : int }
  | Closed of string
  | Timeout of { op : string; deadline_ns : int; elapsed_ns : int }
  | Overloaded of { op : string; state : string }
  | Region_full of { region : string; capacity : int }

exception Error of t

let op_name = function Read -> "read" | Write -> "write" | Sync -> "sync"

let to_string = function
  | Corrupt { region; page; detail } ->
    if page < 0 then Printf.sprintf "corrupt %s: %s" region detail
    else Printf.sprintf "corrupt %s (page %d): %s" region page detail
  | Io_failed { op; page; transient; detail } ->
    Printf.sprintf "%s%s failed%s: %s"
      (if transient then "transient " else "")
      (op_name op)
      (if page < 0 then "" else Printf.sprintf " (page %d)" page)
      detail
  | Pool_exhausted { frames; latched } ->
    Printf.sprintf
      "buffer pool exhausted: all %d frames held (%d latched by callers)"
      frames latched
  | Closed what -> Printf.sprintf "%s is closed" what
  | Timeout { op; deadline_ns; elapsed_ns } ->
    Printf.sprintf "%s timed out: %.3f ms elapsed against a %.3f ms deadline"
      op
      (float_of_int elapsed_ns /. 1e6)
      (float_of_int deadline_ns /. 1e6)
  | Overloaded { op; state } ->
    Printf.sprintf "%s shed: circuit breaker %s" op state
  | Region_full { region; capacity } ->
    Printf.sprintf "region %s is full: its %d bytes are allocated" region
      capacity

let raise_error e = raise (Error e)

let timeout ~op ~deadline_ns ~elapsed_ns =
  raise (Error (Timeout { op; deadline_ns; elapsed_ns }))

let overloaded ~op ~state = raise (Error (Overloaded { op; state }))

let corrupt ~region ?(page = -1) fmt =
  Printf.ksprintf (fun detail -> raise (Error (Corrupt { region; page; detail }))) fmt

let io_failed ~op ?(page = -1) ?(transient = false) fmt =
  Printf.ksprintf
    (fun detail -> raise (Error (Io_failed { op; page; transient; detail })))
    fmt

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Spine_error.Error: " ^ to_string e)
    | _ -> None)
