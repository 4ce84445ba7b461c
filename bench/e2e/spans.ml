type frame = { id : int; start : int; mutable child_ns : int }

type agg = { mutable calls : int; mutable self : int }

type event = {
  name : string;
  ev_id : int;
  parent : int;
  req : int;
  ev_start : int;
  dur : int;
}

type t = {
  origin : int;
  keep : int;
  mutable next_id : int;
  mutable stack : frame list;
  aggs : (string, agg) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable kept : int;
}

let now = Xutil.Stopwatch.now_ns

let create ~keep () =
  { origin = now (); keep; next_id = 0; stack = []; aggs = Hashtbl.create 16;
    events = []; kept = 0 }

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; self = 0 } in
    Hashtbl.replace t.aggs name a;
    a

let span t name ~req f =
  let parent = match t.stack with fr :: _ -> fr.id | [] -> -1 in
  let fr = { id = t.next_id; start = now (); child_ns = 0 } in
  t.next_id <- t.next_id + 1;
  t.stack <- fr :: t.stack;
  let finish () =
    let dur = now () - fr.start in
    (match t.stack with
     | _ :: (up :: _ as rest) -> up.child_ns <- up.child_ns + dur; t.stack <- rest
     | _ :: [] | [] -> t.stack <- []);
    let a = agg t name in
    a.calls <- a.calls + 1;
    a.self <- a.self + dur - fr.child_ns;
    if t.kept < t.keep then begin
      t.events <-
        { name; ev_id = fr.id; parent; req; ev_start = fr.start; dur } :: t.events;
      t.kept <- t.kept + 1
    end
  in
  Fun.protect ~finally:finish f

let calls t name = match Hashtbl.find_opt t.aggs name with Some a -> a.calls | None -> 0
let self_ns t name = match Hashtbl.find_opt t.aggs name with Some a -> a.self | None -> 0

let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      List.iteri
        (fun i e ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
            (if i = 0 then "" else ",")
            e.name
            (float_of_int (e.ev_start - t.origin) /. 1e3)
            (float_of_int e.dur /. 1e3)
            e.ev_id e.parent e.req)
        (List.rev t.events);
      output_string oc "\n]}\n")
