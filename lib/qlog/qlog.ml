(* Append-only JSONL query log (see qlog.mli).  One process-global,
   mutex-guarded sink: the hot path takes the lock only when a path is
   configured, and emission is one formatted line + flush — cheap
   relative to any query worth logging. *)

let c_requests = Telemetry.counter "qlog.requests"
let c_rotations = Telemetry.counter "qlog.rotations"

let default_max_bytes = 16 * 1024 * 1024

type sink = {
  mutable sk_path : string option;
  mutable sk_max_bytes : int;
  mutable sk_oc : out_channel option;
  mutable sk_bytes : int;
  mutable sk_seq : int;
  mutable sk_t0 : int option;  (* monotonic ns of the first record *)
}

let sink =
  { sk_path = Sys.getenv_opt "SPINE_QLOG";
    sk_max_bytes =
      (match Sys.getenv_opt "SPINE_QLOG_MAX_BYTES" with
      | Some s ->
        (match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ -> default_max_bytes)
      | None -> default_max_bytes);
    sk_oc = None;
    sk_bytes = 0;
    sk_seq = 0;
    sk_t0 = None }

let lock = Mutex.create ()

let active () = Mutex.protect lock (fun () -> sink.sk_path <> None)

let close_locked () =
  match sink.sk_oc with
  | None -> ()
  | Some oc ->
    sink.sk_oc <- None;
    close_out_noerr oc

let set_path p =
  Mutex.protect lock (fun () ->
      close_locked ();
      sink.sk_path <- p;
      sink.sk_bytes <- 0;
      sink.sk_seq <- 0;
      sink.sk_t0 <- None)

let open_locked path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  sink.sk_oc <- Some oc;
  sink.sk_bytes <- out_channel_length oc;
  oc

let rotate_locked path =
  close_locked ();
  (* one rotation generation is enough for a cap, and it keeps the
     on-disk footprint bounded at 2 * max_bytes *)
  (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
  sink.sk_bytes <- 0;
  Telemetry.incr c_rotations

(* --- record rendering --- *)

(* FNV-1a 64-bit over the patterns (0x1f between patterns so ["ab";"c"]
   and ["a";"bc"] differ).  Int64 throughout: the offset basis exceeds
   OCaml's native 63-bit int literal range. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_patterns pats =
  let h = ref fnv_offset in
  let mix byte =
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  in
  List.iter
    (fun s ->
      String.iter (fun c -> mix (Char.code c)) s;
      mix 0x1f)
    pats;
  Printf.sprintf "%016Lx" !h

let render ~seq ~offset_ns ~op ~backend ~patterns ~hits ~found ~latency_ns
    ~costs =
  let pats =
    String.concat ","
      (List.map (fun p -> Printf.sprintf "\"%s\"" (Xutil.Json.escape p)) patterns)
  in
  let pattern_len =
    List.fold_left (fun acc p -> acc + String.length p) 0 patterns
  in
  let cost_fields =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
         (Profile.fields costs))
  in
  Printf.sprintf
    "{\"qlog\":1,\"seq\":%d,\"offset_ns\":%d,\"op\":\"%s\",\
     \"backend\":\"%s\",\"patterns\":[%s],\"pattern_len\":%d,\
     \"pattern_hash\":\"%s\",\"hits\":%d,\"found\":%d,\
     \"latency_ns\":%d,\"costs\":{%s}}"
    seq offset_ns (Xutil.Json.escape op) (Xutil.Json.escape backend) pats
    pattern_len
    (hash_patterns patterns) hits found latency_ns cost_fields

let emit ~op ~backend ~patterns ~hits ~found ~latency_ns ~costs =
  Mutex.protect lock (fun () ->
      match sink.sk_path with
      | None -> ()
      | Some path ->
        let now = Xutil.Stopwatch.now_ns () in
        let t0 =
          match sink.sk_t0 with
          | Some t0 -> t0
          | None ->
            sink.sk_t0 <- Some now;
            now
        in
        let line =
          render ~seq:sink.sk_seq ~offset_ns:(now - t0) ~op ~backend
            ~patterns ~hits ~found ~latency_ns ~costs
        in
        sink.sk_seq <- sink.sk_seq + 1;
        let len = String.length line + 1 in
        if sink.sk_oc <> None && sink.sk_bytes > 0
           && sink.sk_bytes + len > sink.sk_max_bytes
        then rotate_locked path;
        let oc =
          match sink.sk_oc with Some oc -> oc | None -> open_locked path
        in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        sink.sk_bytes <- sink.sk_bytes + len;
        Telemetry.incr c_requests)

(* --- reading a log back --- *)

type record = {
  q_seq : int;
  q_offset_ns : int;
  q_op : string;
  q_backend : string;
  q_patterns : string list;
  q_hits : int;
  q_found : int;
  q_latency_ns : int;
  q_costs : (string * int) list;
}

let parse_record j =
  let module J = Bench_gate.Json in
  let int_mem k =
    match J.member k j with
    | Some (J.Num f) -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "missing numeric field %S" k)
  in
  let str_mem k =
    match J.member k j with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" k)
  in
  let ( let* ) = Result.bind in
  let* v = int_mem "qlog" in
  if v <> 1 then Error (Printf.sprintf "unsupported qlog version %d" v)
  else
    let* q_seq = int_mem "seq" in
    let* q_offset_ns = int_mem "offset_ns" in
    let* q_op = str_mem "op" in
    let* q_backend = str_mem "backend" in
    let* q_patterns =
      match J.member "patterns" j with
      | Some (J.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | J.Str s -> Ok (s :: acc)
            | _ -> Error "non-string pattern")
          (Ok []) items
        |> Result.map List.rev
      | _ -> Error "missing \"patterns\" array"
    in
    let* q_hits = int_mem "hits" in
    let* q_found = int_mem "found" in
    let* q_latency_ns = int_mem "latency_ns" in
    let* q_costs =
      match J.member "costs" j with
      | Some (J.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | J.Num f -> Ok ((k, int_of_float f) :: acc)
            | _ -> Error (Printf.sprintf "non-numeric cost %S" k))
          (Ok []) kvs
        |> Result.map List.rev
      | _ -> Error "missing \"costs\" object"
    in
    Ok { q_seq; q_offset_ns; q_op; q_backend; q_patterns; q_hits; q_found;
         q_latency_ns; q_costs }

let read_file ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (lineno + 1) acc
          | line -> (
            match Bench_gate.Json.parse line with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok j -> (
              match parse_record j with
              | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
              | Ok r -> go (lineno + 1) (r :: acc)))
        in
        go 1 [])
