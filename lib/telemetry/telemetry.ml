(* The registry is a mutex-guarded hashtable keyed by metric name;
   metrics themselves hold [Atomic.t] cells so an update is one flag
   check plus one lock-free atomic store — no allocation, no lookup,
   and safe to race from parallel domains sharing one post-build index
   (the domain-safety contract spine-lint L9/L10 certifies).  The hot
   events do not come through here at all: they are counted per domain
   by [Probe], whose global totals are registered below as ordinary
   counters and brought up to date (for the calling domain) by every
   read.  Registration goes through the lock, but every metric is
   registered once at module initialisation, never from the hot path. *)

let enabled =
  Atomic.make
    (match Sys.getenv_opt "SPINE_TELEMETRY" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let is_enabled () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

(* 63 log2 buckets cover every positive OCaml int. *)
let hist_buckets = 63

type histogram = {
  h_name : string;
  h_counts : int Atomic.t array;
  h_total : int Atomic.t;
  h_sum : int Atomic.t;
}

type span = {
  s_name : string;
  s_calls : int Atomic.t;
  s_total_ns : int Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Span of span

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register name make =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> existing
      | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m)

(* the probe-backed counters: the cell is the event's global total *)
let () =
  List.iter
    (fun (ev, name) ->
      Hashtbl.replace registry name
        (Counter { c_name = name; c_value = Probe.total ev }))
    Probe.counters

let kind_error name =
  invalid_arg
    (Printf.sprintf "Telemetry: %S already registered as another kind" name)

let counter name =
  match
    register name (fun () ->
        Counter { c_name = name; c_value = Atomic.make 0 })
  with
  | Counter c -> c
  | _ -> kind_error name

let incr c =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value 1)

let add c n =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value n)

let counter_value c =
  Probe.fold ();
  Atomic.get c.c_value

let gauge name =
  match
    register name (fun () -> Gauge { g_name = name; g_value = Atomic.make 0.0 })
  with
  | Gauge g -> g
  | _ -> kind_error name

let set g v = if Atomic.get enabled then Atomic.set g.g_value v

let histogram name =
  match
    register name (fun () ->
        Histogram
          { h_name = name;
            h_counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
            h_total = Atomic.make 0;
            h_sum = Atomic.make 0 })
  with
  | Histogram h -> h
  | _ -> kind_error name

(* bucket 0 holds v <= 0; v >= 1 lands in bucket floor(log2 v) + 1 *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    !b
  end

let observe h v =
  if Atomic.get enabled then begin
    let b = bucket_of v in
    ignore (Atomic.fetch_and_add h.h_counts.(b) 1);
    ignore (Atomic.fetch_and_add h.h_total 1);
    ignore (Atomic.fetch_and_add h.h_sum v)
  end

let bucket_bounds i =
  if i <= 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

(* Interpolated quantile over log-bucket counts: find the bucket holding
   the target rank, then place the value linearly within the bucket's
   [lo, hi] range by the rank's position among that bucket's
   observations.  Exact for the single-value buckets 0 and 1; an upper
   bound (the bucket ceiling) for q = 1. *)
let quantile ~counts ~total q =
  if total <= 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.max 1.0 (Float.round (q *. float_of_int total)) in
    let rec find i cum =
      if i >= Array.length counts then
        (* rank beyond the recorded counts (inconsistent total): clamp
           to the ceiling of the last occupied bucket *)
        let rec last j = if j < 0 then 0.0 else if counts.(j) > 0 then float_of_int (snd (bucket_bounds j)) else last (j - 1) in
        last (Array.length counts - 1)
      else begin
        let c = counts.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= rank then begin
          let lo, hi = bucket_bounds i in
          let f = (rank -. float_of_int cum) /. float_of_int c in
          float_of_int lo +. (f *. float_of_int (hi - lo))
        end
        else find (i + 1) cum'
      end
    in
    find 0 0
  end


let span name =
  match
    register name (fun () ->
        Span { s_name = name; s_calls = Atomic.make 0; s_total_ns = Atomic.make 0 })
  with
  | Span s -> s
  | _ -> kind_error name

let with_span s f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Xutil.Stopwatch.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        ignore (Atomic.fetch_and_add s.s_calls 1);
        ignore
          (Atomic.fetch_and_add s.s_total_ns (Xutil.Stopwatch.now_ns () - t0)))
      f
  end

(* --- snapshots --- *)

type value =
  | Count of int
  | Level of float
  | Dist of { counts : int array; total : int; sum : int }
  | Timing of { calls : int; total_ns : int }

type snapshot = (string * value) list

let snapshot () =
  Probe.fold ();
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | Counter c -> Count (Atomic.get c.c_value)
            | Gauge g -> Level (Atomic.get g.g_value)
            | Histogram h ->
              Dist
                { counts = Array.map Atomic.get h.h_counts;
                  total = Atomic.get h.h_total;
                  sum = Atomic.get h.h_sum }
            | Span s ->
              Timing
                { calls = Atomic.get s.s_calls;
                  total_ns = Atomic.get s.s_total_ns }
          in
          (name, v) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let diff later earlier =
  List.map
    (fun (name, v) ->
      let v' =
        match (v, List.assoc_opt name earlier) with
        | Count a, Some (Count b) -> Count (a - b)
        | Dist a, Some (Dist b) ->
          Dist
            { counts = Array.mapi (fun i x -> x - b.counts.(i)) a.counts;
              total = a.total - b.total;
              sum = a.sum - b.sum }
        | Timing a, Some (Timing b) ->
          Timing { calls = a.calls - b.calls; total_ns = a.total_ns - b.total_ns }
        | _ -> v
      in
      (name, v'))
    later

let reset () =
  Probe.fold ();
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.h_counts;
            Atomic.set h.h_total 0;
            Atomic.set h.h_sum 0
          | Span s ->
            Atomic.set s.s_calls 0;
            Atomic.set s.s_total_ns 0)
        registry)

let find snap name = List.assoc_opt name snap

(* --- exporters --- *)

let is_zero = function
  | Count 0 -> true
  | Level 0.0 -> true
  | Dist { total = 0; _ } -> true
  | Timing { calls = 0; _ } -> true
  | _ -> false

let dist_detail counts =
  let parts = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if counts.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      let range = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi in
      parts := Printf.sprintf "%s:%d" range counts.(i) :: !parts
    end
  done;
  String.concat " " !parts

let print_table ?(title = "telemetry") ?(omit_zero = false) snap =
  let rows =
    List.filter_map
      (fun (name, v) ->
        if omit_zero && is_zero v then None
        else
          Some
            (match v with
            | Count n -> [ name; "counter"; Report.Table.fmt_int n; "" ]
            | Level x -> [ name; "gauge"; Report.Table.fmt_float x; "" ]
            | Dist { counts; total; sum } ->
              [ name; "histogram"; Report.Table.fmt_int total;
                Printf.sprintf "sum=%d  %s" sum (dist_detail counts) ]
            | Timing { calls; total_ns } ->
              [ name; "span"; Report.Table.fmt_int calls;
                Printf.sprintf "%.3f ms" (float_of_int total_ns /. 1e6) ]))
      snap
  in
  if rows <> [] then
    Report.Table.print ~title ~headers:[ "metric"; "kind"; "value"; "detail" ]
      rows

let jsonl snap =
  List.map
    (fun (name, v) ->
      let name = Xutil.Json.escape name in
      match v with
      | Count n ->
        Printf.sprintf "{\"metric\":\"%s\",\"kind\":\"counter\",\"value\":%d}" name n
      | Level x ->
        Printf.sprintf "{\"metric\":\"%s\",\"kind\":\"gauge\",\"value\":%.17g}" name x
      | Dist { counts; total; sum } ->
        let buckets =
          let parts = ref [] in
          for i = hist_buckets - 1 downto 0 do
            if counts.(i) > 0 then begin
              let lo, hi = bucket_bounds i in
              parts := Printf.sprintf "[%d,%d,%d]" lo hi counts.(i) :: !parts
            end
          done;
          String.concat "," !parts
        in
        let qn q =
          let v = quantile ~counts ~total q in
          if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.6g" v
        in
        Printf.sprintf
          "{\"metric\":\"%s\",\"kind\":\"histogram\",\"total\":%d,\"sum\":%d,\
           \"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s,\"buckets\":[%s]}"
          name total sum (qn 0.5) (qn 0.9) (qn 0.99) (qn 1.0) buckets
      | Timing { calls; total_ns } ->
        Printf.sprintf
          "{\"metric\":\"%s\",\"kind\":\"span\",\"calls\":%d,\"total_ns\":%d}"
          name calls total_ns)
    snap

(* Atomic exposition writes: a scraper (or the bench gate) must never
   observe a half-written metrics file, so both exporters write to a
   sibling temp file and rename it into place — rename is atomic on
   POSIX when source and destination share a filesystem, which a
   sibling path guarantees. *)
let write_atomic ~path lines =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         List.iter
           (fun line ->
             output_string oc line;
             output_char oc '\n')
           lines)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_jsonl ~path snap = write_atomic ~path (jsonl snap)

(* --- Prometheus text exposition --- *)

let prom_name prefix name =
  let buf = Buffer.create (String.length prefix + String.length name) in
  Buffer.add_string buf prefix;
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Every emitted family carries a # HELP line (exposition-format
   linters and some scrapers warn on TYPE-without-HELP).  The help text
   is the registry name plus what the family measures — the registry
   has no per-metric description channel, and the source name is the
   most useful thing a dashboard tooltip can show. *)
let prom_help n name what = Printf.sprintf "# HELP %s %s (%s)" n name what

let prometheus ?(prefix = "spine_") snap =
  List.concat_map
    (fun (name, v) ->
      let n = prom_name prefix name in
      match v with
      | Count c ->
        [ prom_help n name "counter";
          Printf.sprintf "# TYPE %s counter" n;
          Printf.sprintf "%s %d" n c ]
      | Level x ->
        [ prom_help n name "gauge";
          Printf.sprintf "# TYPE %s gauge" n;
          Printf.sprintf "%s %s" n (prom_float x) ]
      | Dist { counts; total; sum } ->
        (* cumulative buckets at the occupied boundaries only — any
           subset of boundaries is a valid Prometheus histogram *)
        let buckets = ref [] and cum = ref 0 in
        for i = 0 to hist_buckets - 1 do
          if counts.(i) > 0 then begin
            cum := !cum + counts.(i);
            let _, hi = bucket_bounds i in
            buckets :=
              Printf.sprintf "%s_bucket{le=\"%d\"} %d" n hi !cum :: !buckets
          end
        done;
        let q p tag =
          Printf.sprintf "%s_quantile{q=\"%s\"} %s" n tag
            (prom_float (quantile ~counts ~total p))
        in
        prom_help n name "log2-bucketed histogram"
        :: Printf.sprintf "# TYPE %s histogram" n
        :: List.rev_append !buckets
             [ Printf.sprintf "%s_bucket{le=\"+Inf\"} %d" n total;
               Printf.sprintf "%s_sum %d" n sum;
               Printf.sprintf "%s_count %d" n total;
               prom_help (n ^ "_quantile") name "interpolated quantiles";
               Printf.sprintf "# TYPE %s_quantile gauge" n;
               q 0.5 "0.5"; q 0.9 "0.9"; q 0.99 "0.99"; q 1.0 "1" ]
      | Timing { calls; total_ns } ->
        [ prom_help (n ^ "_calls") name "span call count";
          Printf.sprintf "# TYPE %s_calls counter" n;
          Printf.sprintf "%s_calls %d" n calls;
          prom_help (n ^ "_ns_total") name "span total nanoseconds";
          Printf.sprintf "# TYPE %s_ns_total counter" n;
          Printf.sprintf "%s_ns_total %d" n total_ns ])
    snap

let write_prometheus ?prefix ~path snap =
  write_atomic ~path (prometheus ?prefix snap)
