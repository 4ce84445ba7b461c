(* The `spine` command-line tool: build, persist, query and inspect
   SPINE indexes over FASTA, raw text, or the built-in synthetic
   corpora. *)

open Cmdliner

let alphabet_of_string = function
  | "dna" -> Ok Bioseq.Alphabet.dna
  | "protein" -> Ok Bioseq.Alphabet.protein
  | "byte" -> Ok Bioseq.Alphabet.byte
  | other -> Error (Printf.sprintf "unknown alphabet %S" other)

let alphabet_arg =
  let doc = "Alphabet: dna, protein or byte." in
  Arg.(value & opt string "dna" & info [ "alphabet"; "a" ] ~docv:"ALPHA" ~doc)

(* The characters of [s] in [alphabet], skipping any outside it. *)
let seq_of_literal alphabet s =
  let seq = Bioseq.Packed_seq.create alphabet in
  String.iter
    (fun c ->
      match Bioseq.Alphabet.encode_opt alphabet c with
      | Some code -> Bioseq.Packed_seq.append seq code
      | None -> ())
    s;
  seq

(* Every source-reading command: the alphabet name, then a --seq
   literal if given, else exactly one of --fasta, --synthetic, --text. *)
let sequence_of_source ?seq_str ~alphabet ~fasta ~synthetic ~scale ~text () =
  Result.bind (alphabet_of_string alphabet) @@ fun alphabet ->
  match seq_str, fasta, synthetic, text with
  | Some s, _, _, _ -> Ok (seq_of_literal alphabet s)
  | None, Some path, None, None ->
    (match Bioseq.Fasta.read_file alphabet path with
     | [] -> Error "FASTA file contains no records"
     | records ->
       (* concatenate multi-record files, as genome tools do *)
       let seq = Bioseq.Packed_seq.create alphabet in
       List.iter
         (fun { Bioseq.Fasta.seq = s; _ } ->
           Bioseq.Packed_seq.iteri s ~f:(fun _ c -> Bioseq.Packed_seq.append seq c))
         records;
       Ok seq)
  | None, None, Some name, None ->
    (match Bioseq.Corpus.find name with
     | Some corpus -> Ok (Bioseq.Corpus.load ~scale corpus)
     | None -> Error (Printf.sprintf "unknown corpus %S" name))
  | None, None, None, Some path ->
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Ok (seq_of_literal alphabet contents)
  | None, _, _, _ ->
    Error "provide exactly one of --fasta, --synthetic, --text"

let fasta_arg =
  Arg.(value & opt (some string) None
       & info [ "fasta"; "f" ] ~docv:"FILE" ~doc:"Input FASTA file.")

let synthetic_arg =
  Arg.(value & opt (some string) None
       & info [ "synthetic"; "s" ] ~docv:"CORPUS"
           ~doc:"Built-in synthetic corpus (ECO, CEL, HC21, HC19, ECO-R, \
                 YEAST-R, DROS-R).")

let scale_arg =
  Arg.(value & opt float 0.01
       & info [ "scale" ] ~docv:"FRACTION"
           ~doc:"Scale for --synthetic corpora.")

let text_arg =
  Arg.(value & opt (some string) None
       & info [ "text"; "t" ] ~docv:"FILE" ~doc:"Input plain-text file.")

let index_arg ~doc =
  Arg.(required & opt (some string) None
       & info [ "index"; "i" ] ~docv:"FILE" ~doc)

(* --stats turns telemetry collection on for the run and prints every
   touched metric afterwards; SPINE_TELEMETRY=1 enables collection for
   callers that scrape the table themselves. *)
let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Collect telemetry during the run and print the touched \
                 counters, histograms and spans afterwards.")

let with_stats stats f =
  if stats then Telemetry.set_enabled true;
  let code = f () in
  if stats then
    Telemetry.print_table ~title:"telemetry" ~omit_zero:true
      (Telemetry.snapshot ());
  code

(* Every --jsonl and --report-jsonl sink: JSON lines to FILE, or to
   stdout for "-"; nothing without the option. *)
let write_jsonl dest lines =
  match dest with
  | None -> ()
  | Some "-" -> List.iter print_endline lines
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* An index file written by [spine build], loaded into memory without
   writing to it.  Typed errors propagate: the handler at the bottom
   prints them.  Loading is setup, like parsing an input: its page
   reads are not the run that --stats reports, so the telemetry starts
   afresh after it. *)
let load_compact path =
  let idx = Spine.Persistent.load ~path in
  Telemetry.reset ();
  idx

(* --- build --- *)

let build_cmd =
  let out =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output index file.")
  in
  let run alphabet fasta synthetic scale text out stats =
    match sequence_of_source ~alphabet ~fasta ~synthetic ~scale ~text () with
    | Error e -> prerr_endline e; 1
    | Ok seq ->
      if stats then Telemetry.set_enabled true;
      let built, secs =
        Xutil.Stopwatch.time (fun () ->
            let idx = Spine.Compact.of_seq seq in
            (* --stats reports the construction; writing the file is a
               few page runs and one commit *)
            let built = Telemetry.snapshot () in
            Spine.Persistent.close (Spine.Persistent.of_compact ~path:out idx);
            built)
      in
      Printf.printf "indexed %d chars in %.2fs -> %s\n"
        (Bioseq.Packed_seq.length seq) secs out;
      if stats then
        Telemetry.print_table ~title:"telemetry" ~omit_zero:true built;
      0
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Build a SPINE index in memory and save it as a persistent \
             index file, which every -i reader loads and `spine scrub` \
             checks.")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ out $ stats_arg)

(* --- query --- *)

(* Every backend is driven through the same Engine code path: build (or
   open) the chosen backend, pack it, and resolve all patterns with one
   Engine.run_batch — a single shared backbone scan. *)

let backend_conv =
  Arg.enum
    [ ("compact", `Compact); ("persistent", `Persistent); ("disk", `Disk) ]

let backend_arg =
  Arg.(value & opt backend_conv `Compact
       & info [ "backend"; "b" ] ~docv:"BACKEND"
           ~doc:"Storage backend: compact (the paper's Section 5 layout \
                 in memory), persistent (that layout in a paged, \
                 crash-consistent file) or disk (that layout through a \
                 bounded buffer pool over a simulated disk).")

let seq_literal_arg =
  Arg.(value & opt (some string) None
       & info [ "seq" ] ~docv:"STRING"
           ~doc:"Index this literal string (alternative to --fasta, \
                 --synthetic, --text).")

(* Shared by query, stats --space, workload and trace: build the chosen
   backend from an in-memory sequence and pack it into an engine,
   returning a cleanup to run when done (persistent uses a scratch
   file). *)
let engine_of_source ~backend ~frames ~page_size seq =
  match backend with
  | `Compact -> (Spine.Compact.engine (Spine.Compact.of_seq seq), ignore)
  | `Disk ->
    let config =
      { Spine.Disk.default_config with Spine.Disk.frames; page_size }
    in
    (Spine.Disk.engine (Spine.Disk.build ~config seq), ignore)
  | `Persistent ->
    (* a transient paged index in a scratch file, removed afterwards *)
    let path = Filename.temp_file "spine_query" ".db" in
    let p =
      Spine.Persistent.create ~frames ~page_size ~path
        (Bioseq.Packed_seq.alphabet seq)
    in
    Spine.Persistent.append_seq p seq;
    ( Spine.Persistent.engine p,
      fun () ->
        Spine.Persistent.close p;
        (try Sys.remove path with Sys_error _ -> ()) )

let frames_arg =
  Arg.(value & opt int Spine.Disk.default_config.Spine.Disk.frames
       & info [ "frames" ] ~docv:"N"
           ~doc:"Buffer-pool frames (persistent/disk backends).")

let page_size_arg =
  Arg.(value & opt int Spine.Disk.default_config.Spine.Disk.page_size
       & info [ "page-size" ] ~docv:"BYTES"
           ~doc:"Device page size (persistent/disk backends).")

let index_opt_arg =
  Arg.(value & opt (some string) None
       & info [ "index"; "i" ] ~docv:"FILE"
           ~doc:"Existing index file from spine build, loaded into \
                 memory (backend compact) or opened in place (backend \
                 persistent).  Alternative to the input sources.")

(* The full engine-acquisition story shared by query, stats --space,
   explain and replay: an existing index file (--index, compact or
   persistent) or any input source through [engine_of_source], with the
   incompatible combinations diagnosed. *)
let acquire_engine ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str ~backend
    ~index ~frames ~page_size =
  let has_source =
    fasta <> None || synthetic <> None || text <> None || seq_str <> None
  in
  match index, has_source with
  | Some _, true ->
    Error "provide either --index or an input source, not both"
  | Some file, false ->
    (try
       match backend with
       | `Compact -> Ok (Spine.Compact.engine (load_compact file), ignore)
       | `Persistent ->
         let p = Spine.Persistent.open_ ~frames ~path:file () in
         Ok (Spine.Persistent.engine p, fun () -> Spine.Persistent.close p)
       | `Disk ->
         Error "--backend disk builds from an input source \
                (--text, --fasta, --synthetic, --seq), not --index"
     with Spine_error.Error e -> Error ("spine: " ^ Spine_error.to_string e))
  | None, _ ->
    Result.map
      (engine_of_source ~backend ~frames ~page_size)
      (sequence_of_source ?seq_str ~alphabet ~fasta ~synthetic ~scale ~text ())

let query_cmd =
  let patterns =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"PATTERN"
             ~doc:"Pattern(s) to search for; several patterns share one \
                   batched backbone scan.")
  in
  let limit =
    Arg.(value & opt int 20
         & info [ "limit" ] ~docv:"N"
             ~doc:"Print at most N positions per pattern.")
  in
  let frames = frames_arg in
  let page_size = page_size_arg in
  let run alphabet fasta synthetic scale text seq_str backend index patterns
      limit frames page_size stats =
    with_stats stats @@ fun () ->
    match
      acquire_engine ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str
        ~backend ~index ~frames ~page_size
    with
    | Error e -> prerr_endline e; 1
    | Ok (engine, cleanup) ->
      let finish code = cleanup (); code in
      let encoded =
        List.map (fun p -> (p, Spine.Engine.encode engine p)) patterns
      in
      if List.exists (fun (_, codes) -> codes = None) encoded then begin
        prerr_endline "pattern contains characters outside the alphabet";
        finish 1
      end
      else begin
        (* profile only when the qlog needs the costs: `spine explain`
           is the dedicated profiling surface, and an unconditional
           profile here would put wall-clock-dependent rollups into
           the deterministic --stats output *)
        let codes = List.filter_map (fun (_, codes) -> codes) encoded in
        let items =
          if Qlog.active () then begin
            let items, prof =
              Spine.Engine.profiled engine (fun () ->
                  Spine.Engine.run_batch engine codes)
            in
            let hits =
              List.fold_left
                (fun a it -> if it.Spine.Engine.count > 0 then a + 1 else a)
                0 items
            in
            let found =
              List.fold_left (fun a it -> a + it.Spine.Engine.count) 0 items
            in
            Qlog.emit ~op:"batch" ~backend:(Spine.Engine.backend engine)
              ~patterns ~hits ~found ~latency_ns:prof.Profile.wall_ns
              ~costs:prof;
            items
          end
          else Spine.Engine.run_batch engine codes
        in
        let many = List.length items > 1 in
        List.iter2
          (fun (pat, _) { Spine.Engine.count; positions; _ } ->
            if many then Printf.printf "%s: %d occurrence(s)\n" pat count
            else Printf.printf "%d occurrence(s)\n" count;
            List.iteri
              (fun k pos ->
                if k < limit then Printf.printf "  position %d\n" pos)
              positions;
            if count > limit then
              Printf.printf "  ... (%d more)\n" (count - limit))
          encoded items;
        finish 0
      end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Find all occurrences of one or more patterns through any \
             storage backend (one batched backbone scan).")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ backend_arg $ index_opt_arg
          $ patterns $ limit $ frames $ page_size $ stats_arg)

(* --- stats --- *)

let stats_cmd =
  let index =
    Arg.(value & opt (some string) None
         & info [ "index"; "i" ] ~docv:"FILE"
             ~doc:"Index file from spine build.  Required unless \
                   --space builds from an input source.")
  in
  let space =
    Arg.(value & flag
         & info [ "space" ]
             ~doc:"Report the measured space footprint attributed to \
                   components (vertebrae, links, ribs, extribs, pages, \
                   pool frames) instead of structure statistics; works \
                   on every --backend.")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"With --space, also write the report as one JSON line \
                   (- for stdout).")
  in
  let space_run ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str ~backend
      ~index ~jsonl_out ~frames ~page_size =
    match
      acquire_engine ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str
        ~backend ~index ~frames ~page_size
    with
    | Error e -> prerr_endline e; 1
    | Ok (engine, cleanup) ->
      Fun.protect ~finally:cleanup (fun () ->
          let report = Spine.Engine.space engine in
          Report.Table.print
            ~title:
              (Printf.sprintf "space (%s, %d chars)"
                 report.Spine.Space_report.backend
                 report.Spine.Space_report.chars)
            ~note:
              (Printf.sprintf "index footprint %.2f bytes/char"
                 (Spine.Space_report.bytes_per_char report))
            ~headers:[ "component"; "bytes"; "bytes/char"; "share" ]
            (Spine.Space_report.rows report);
          write_jsonl jsonl_out [ Spine.Space_report.jsonl report ];
          0)
  in
  let structure_run index =
    let idx = load_compact index in
    let e = Spine.Compact.engine idx in
    let { Spine.Engine.vertebras; ribs; extribs; links } =
      Spine.Engine.edge_counts e
    in
    let m = Spine.Engine.label_maxima e in
    Printf.printf "characters        %d\n" (Spine.Engine.length e);
    Printf.printf "nodes             %d\n" (Spine.Engine.node_count e);
    Printf.printf "vertebras         %d\n" vertebras;
    Printf.printf "ribs              %d\n" ribs;
    Printf.printf "extribs           %d\n" extribs;
    Printf.printf "links             %d\n" links;
    Printf.printf "max PT            %d\n" m.Spine.Engine.max_pt;
    Printf.printf "max LEL           %d\n" m.Spine.Engine.max_lel;
    Printf.printf "max PRT           %d\n" m.Spine.Engine.max_prt;
    Printf.printf "bytes/char        %.2f\n" (Spine.Compact_store.bytes_per_char idx);
    0
  in
  let run alphabet fasta synthetic scale text seq_str backend index space
      jsonl_out frames page_size =
    if space then
      space_run ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str ~backend
        ~index ~jsonl_out ~frames ~page_size
    else
      match index with
      | Some index -> structure_run index
      | None ->
        prerr_endline "provide --index FILE (or use --space with a source)";
        1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print structure statistics of an index, or (--space) its \
             measured per-component space footprint on any backend.")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ backend_arg $ index $ space
          $ jsonl_out $ frames_arg $ page_size_arg)

(* --- workload --- *)

let workload_cmd =
  let requests =
    Arg.(value & opt int Workload.default_config.Workload.requests
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"Number of requests.")
  in
  let seed =
    Arg.(value & opt int Workload.default_config.Workload.seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Workload generator seed.")
  in
  let min_len =
    Arg.(value & opt int Workload.default_config.Workload.min_len
         & info [ "min-len" ] ~docv:"N" ~doc:"Minimum pattern length.")
  in
  let max_len =
    Arg.(value & opt int Workload.default_config.Workload.max_len
         & info [ "max-len" ] ~docv:"N" ~doc:"Maximum pattern length.")
  in
  let batch_size =
    Arg.(value & opt int Workload.default_config.Workload.batch_size
         & info [ "batch-size" ] ~docv:"N" ~doc:"Patterns per batch request.")
  in
  let cursor_steps =
    Arg.(value & opt int Workload.default_config.Workload.cursor_steps
         & info [ "cursor-steps" ] ~docv:"N"
             ~doc:"Extensions per cursor request.")
  in
  let miss_fraction =
    Arg.(value & opt float Workload.default_config.Workload.miss_fraction
         & info [ "miss-fraction" ] ~docv:"P"
             ~doc:"Probability of a random (likely missing) pattern.")
  in
  let mix =
    Arg.(value & opt (t3 ~sep:',' int int int) (6, 2, 2)
         & info [ "mix" ] ~docv:"S,B,C"
             ~doc:"Relative weights of single,batch,cursor requests.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"RPS"
             ~doc:"Open-loop request rate (requests/second); latency is \
                   measured from each request's scheduled start.  \
                   Default: closed loop.")
  in
  let slowest =
    Arg.(value & opt int Workload.default_config.Workload.slowest
         & info [ "slowest" ] ~docv:"K"
             ~doc:"Report the K slowest requests of the run.")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Write a full telemetry snapshot to FILE after the \
                   run (and periodically with --metrics-every).")
  in
  let metrics_format =
    Arg.(value & opt (enum [ ("prom", `Prom); ("jsonl", `Jsonl) ]) `Prom
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Metrics exposition format: prom (Prometheus text) or \
                   jsonl.")
  in
  let metrics_every =
    Arg.(value & opt int 0
         & info [ "metrics-every" ] ~docv:"N"
             ~doc:"Rewrite the --metrics file every N completed requests \
                   (0: only at the end).")
  in
  let report_jsonl =
    Arg.(value & opt (some string) None
         & info [ "report-jsonl" ] ~docv:"FILE"
             ~doc:"Also write the per-operation latency report as JSON \
                   lines (- for stdout).")
  in
  let write_metrics path format =
    match format with
    | `Prom -> Telemetry.write_prometheus ~path (Telemetry.snapshot ())
    | `Jsonl -> Telemetry.write_jsonl ~path (Telemetry.snapshot ())
  in
  let run alphabet fasta synthetic scale text seq_str backend frames page_size
      requests seed min_len max_len batch_size cursor_steps miss_fraction
      (mix_s, mix_b, mix_c) rate slowest metrics metrics_format metrics_every
      report_jsonl =
    match
      sequence_of_source ?seq_str ~alphabet ~fasta ~synthetic ~scale ~text ()
    with
    | Error e -> prerr_endline e; 1
    | Ok seq ->
      let engine, cleanup = engine_of_source ~backend ~frames ~page_size seq in
      Fun.protect ~finally:cleanup (fun () ->
          let config =
            { Workload.requests; seed; min_len; max_len; batch_size;
              cursor_steps; miss_fraction;
              mix = { Workload.single = mix_s; batch = mix_b; cursor = mix_c };
              rate;
              slowest;
              tick_every = (if metrics = None then 0 else metrics_every) }
          in
          let on_tick =
            match metrics with
            | Some path when metrics_every > 0 ->
              Some (fun _done -> write_metrics path metrics_format)
            | _ -> None
          in
          (* an exposition sink was requested: collect for the whole
             command so the space gauges and the run's histograms land
             in the same snapshot *)
          if metrics <> None then Telemetry.set_enabled true;
          ignore (Spine.Engine.space engine);
          let report = Workload.run ~config ?on_tick engine seq in
          Workload.print report;
          (match metrics with
           | Some path -> write_metrics path metrics_format
           | None -> ());
          write_jsonl report_jsonl (Workload.jsonl report);
          0)
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Drive a backend with a deterministic mix of single, \
             batched and cursor queries; report per-operation latency \
             quantiles, the slowest requests, and optionally a metrics \
             snapshot (Prometheus text or JSONL).")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ backend_arg $ frames_arg
          $ page_size_arg $ requests $ seed $ min_len $ max_len $ batch_size
          $ cursor_steps $ miss_fraction $ mix $ rate $ slowest $ metrics
          $ metrics_format $ metrics_every $ report_jsonl)

(* --- explain --- *)

let explain_cmd =
  let patterns =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"PATTERN"
             ~doc:"Pattern(s) to profile; each runs as its own \
                   individually-attributed query.")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Also write one JSON line per pattern with every \
                   profile field (- for stdout).")
  in
  let run alphabet fasta synthetic scale text seq_str backend index patterns
      jsonl_out frames page_size stats =
    with_stats stats @@ fun () ->
    match
      acquire_engine ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str
        ~backend ~index ~frames ~page_size
    with
    | Error e -> prerr_endline e; 1
    | Ok (engine, cleanup) ->
      Fun.protect ~finally:cleanup (fun () ->
          let backend_name = Spine.Engine.backend engine in
          let bad = ref false in
          let results =
            List.filter_map
              (fun pat ->
                match Spine.Engine.encode engine pat with
                | None ->
                  Printf.eprintf "pattern %S is outside the alphabet\n" pat;
                  bad := true;
                  None
                | Some codes ->
                  let occs, prof =
                    Spine.Engine.profiled engine (fun () ->
                        Spine.Engine.occurrences_pattern engine
                          (Spine.Engine.pattern engine codes))
                  in
                  let count = List.length occs in
                  if Qlog.active () then
                    Qlog.emit ~op:"single" ~backend:backend_name
                      ~patterns:[ pat ]
                      ~hits:(if count > 0 then 1 else 0)
                      ~found:count ~latency_ns:prof.Profile.wall_ns
                      ~costs:prof;
                  Some (pat, count, prof))
              patterns
          in
          Report.Table.print
            ~title:(Printf.sprintf "explain (%s)" backend_name)
            ~headers:
              [ "pattern"; "occ"; "steps v/r/e/l"; "descent"; "scan";
                "pool h/m/e"; "dev r/w B"; "alloc B"; "wall ms" ]
            (List.map
               (fun (pat, count, p) ->
                 [ pat; string_of_int count;
                   Printf.sprintf "%d/%d/%d/%d" p.Profile.vertebra_steps
                     p.Profile.rib_steps p.Profile.extrib_steps
                     p.Profile.link_steps;
                   string_of_int p.Profile.descent_depth;
                   string_of_int p.Profile.scan_nodes;
                   Printf.sprintf "%d/%d/%d" p.Profile.pool_hits
                     p.Profile.pool_misses p.Profile.pool_evictions;
                   Printf.sprintf "%d/%d" p.Profile.device_read_bytes
                     p.Profile.device_write_bytes;
                   string_of_int p.Profile.alloc_bytes;
                   Printf.sprintf "%.3f"
                     (float_of_int p.Profile.wall_ns /. 1e6) ])
               results);
          write_jsonl jsonl_out
            (List.map
               (fun (pat, count, p) ->
                 Printf.sprintf
                   "{\"explain\":\"%s\",\"backend\":\"%s\",\
                    \"occurrences\":%d,%s}"
                   (Xutil.Json.escape pat) (Xutil.Json.escape backend_name)
                   count
                   (String.concat ","
                      (List.map
                         (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
                         (Profile.fields p))))
               results);
          if !bad then 1 else 0)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run pattern queries with per-query cost attribution: \
             traversal steps by edge family, descent depth, \
             occurrence-scan length, buffer-pool and device traffic \
             caused by each individual query, allocation and wall \
             time.")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ backend_arg $ index_opt_arg $ patterns
          $ jsonl_out $ frames_arg $ page_size_arg $ stats_arg)

(* --- replay --- *)

let replay_cmd =
  let log =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"LOG" ~doc:"Recorded query log (qlog JSONL).")
  in
  let closed_loop =
    Arg.(value & flag
         & info [ "closed-loop" ]
             ~doc:"Issue requests back-to-back instead of honoring the \
                   recorded inter-arrival gaps.")
  in
  let tolerance =
    Arg.(value & opt float 0.25
         & info [ "tolerance" ] ~docv:"FRACTION"
             ~doc:"Relative drift allowed before a latency quantile or \
                   cost counter counts as regressed.")
  in
  let latency_floor =
    Arg.(value & opt float 1e6
         & info [ "latency-floor-ns" ] ~docv:"NS"
             ~doc:"Noise floor for latency comparisons: when both sides \
                   are at or below this, the delta is timer noise and \
                   never fails the gate.")
  in
  let report_jsonl =
    Arg.(value & opt (some string) None
         & info [ "report-jsonl" ] ~docv:"FILE"
             ~doc:"Also write the replayed report and every comparison \
                   row as JSON lines (- for stdout).")
  in
  let run alphabet fasta synthetic scale text seq_str backend index frames
      page_size log closed_loop tolerance latency_floor report_jsonl =
    (* replay must never append to the log it is reading *)
    Qlog.set_path None;
    match Qlog.read_file ~path:log with
    | Error e -> Printf.eprintf "replay: %s: %s\n" log e; 2
    | Ok [] -> Printf.eprintf "replay: %s: empty log\n" log; 2
    | Ok records ->
      (match
         acquire_engine ~alphabet ~fasta ~synthetic ~scale ~text ~seq_str
           ~backend ~index ~frames ~page_size
       with
       | Error e -> prerr_endline e; 2
       | Ok (engine, cleanup) ->
         Fun.protect ~finally:cleanup (fun () ->
             let backend_name = Spine.Engine.backend engine in
             (match
                List.find_opt
                  (fun (r : Qlog.record) -> r.Qlog.q_backend <> backend_name)
                  records
              with
              | Some r ->
                Printf.eprintf
                  "replay: warning: log was recorded on backend %s, \
                   replaying on %s\n"
                  r.Qlog.q_backend backend_name
              | None -> ());
             match
               Replay.drive_records ~closed_loop ~tolerance
                 ~latency_floor_ns:latency_floor ~engine records
             with
             | Error e -> Printf.eprintf "replay: %s\n" e; 2
             | Ok outcome ->
               Replay.print outcome;
               write_jsonl report_jsonl (Replay.jsonl outcome);
               (match Bench_gate.failures outcome.Replay.rp_comparisons with
                | [] ->
                  Printf.printf
                    "replay: ok (%d request(s), %d comparison(s))\n"
                    outcome.Replay.rp_requests
                    (List.length outcome.Replay.rp_comparisons);
                  0
                | failures ->
                  Printf.printf "replay: %d failure(s)\n"
                    (List.length failures);
                  List.iter
                    (fun c ->
                      Printf.printf "  %s/%s: %s\n" c.Bench_gate.c_group
                        c.Bench_gate.c_name
                        (Bench_gate.verdict_string c.Bench_gate.c_verdict))
                    failures;
                  1)))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-drive a recorded query log against a backend and gate \
             on the recorded-vs-replayed delta: per-op latency \
             quantiles (noise-floored) and deterministic cost \
             counters.  Exit 0 on pass, 1 on regression, 2 on a \
             malformed log.")
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ backend_arg $ index_opt_arg $ frames_arg
          $ page_size_arg $ log $ closed_loop $ tolerance $ latency_floor
          $ report_jsonl)

(* --- bench-compare --- *)

let bench_compare_cmd =
  let old_path =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OLD" ~doc:"Baseline BENCH_spine.json.")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"NEW" ~doc:"Candidate BENCH_spine.json.")
  in
  let tolerance =
    Arg.(value & opt float 0.25
         & info [ "tolerance" ] ~docv:"FRACTION"
             ~doc:"Relative slowdown allowed before a benchmark counts \
                   as regressed (0.25 = 25% slower).")
  in
  let floors =
    Arg.(value & opt_all (pair ~sep:'=' string float) []
         & info [ "floor" ] ~docv:"UNIT=VALUE"
             ~doc:"Noise floor for a unit (repeatable), e.g. \
                   wall_s=0.01: when both sides of a comparison are at \
                   or below the floor, the ratio is timer noise and \
                   never counts as a regression.")
  in
  let run old_path new_path tolerance floors =
    match Bench_gate.load ~path:old_path, Bench_gate.load ~path:new_path with
    | Error e, _ ->
      Printf.eprintf "bench-compare: %s: %s\n" old_path e; 2
    | _, Error e ->
      Printf.eprintf "bench-compare: %s: %s\n" new_path e; 2
    | Ok old_b, Ok new_b ->
      let comparisons =
        Bench_gate.compare_baselines ~floors ~tolerance old_b new_b
      in
      Report.Table.print
        ~title:
          (Printf.sprintf "bench trajectory (tolerance %.0f%%)"
             (100.0 *. tolerance))
        ~headers:[ "group"; "name"; "unit"; "old"; "new"; "ratio"; "verdict" ]
        (Bench_gate.rows comparisons);
      (match Bench_gate.failures comparisons with
       | [] ->
         Printf.printf "bench-compare: ok (%d benchmark(s))\n"
           (List.length comparisons);
         0
       | failures ->
         Printf.printf "bench-compare: %d failure(s)\n"
           (List.length failures);
         List.iter
           (fun c ->
             Printf.printf "  %s/%s: %s\n" c.Bench_gate.c_group
               c.Bench_gate.c_name
               (Bench_gate.verdict_string c.Bench_gate.c_verdict))
           failures;
         1)
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:"Compare two bench trajectory artifacts; exit 1 when any \
             benchmark regressed beyond the tolerance or disappeared, \
             2 when an artifact cannot be parsed.")
    Term.(const run $ old_path $ new_path $ tolerance $ floors)

(* --- match --- *)

let match_cmd =
  let query_file =
    Arg.(required & opt (some string) None
         & info [ "query"; "q" ] ~docv:"FILE" ~doc:"Query FASTA file.")
  in
  let threshold =
    Arg.(value & opt int 20
         & info [ "threshold" ] ~docv:"LEN" ~doc:"Minimum match length.")
  in
  let run index query_file threshold stats =
    with_stats stats @@ fun () ->
    let e = Spine.Compact.engine (load_compact index) in
    match Bioseq.Fasta.read_file (Spine.Engine.alphabet e) query_file with
    | [] -> prerr_endline "query FASTA contains no records"; 1
    | { Bioseq.Fasta.seq = query; _ } :: _ ->
      let matches, stats =
        Spine.Engine.maximal_matches e ~threshold query
      in
      Printf.printf
        "%d maximal match(es) >= %d chars (checked %d nodes, %d suffix sets)\n"
        (List.length matches) threshold stats.Spine.Engine.nodes_checked
        stats.Spine.Engine.suffixes_checked;
      List.iter
        (fun { Spine.Engine.query_end; length; data_ends } ->
          Printf.printf "  query %d..%d  data:"
            (query_end - length + 1) query_end;
          List.iter
            (fun e -> Printf.printf " %d..%d" (e - length + 1) e)
            data_ends;
          print_newline ())
        matches;
      0
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Find maximal matching substrings between index and query.")
    Term.(const run $ index_arg ~doc:"Index file from spine build."
          $ query_file $ threshold $ stats_arg)

(* --- approx --- *)

let approx_cmd =
  let pattern =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATTERN" ~doc:"Pattern to search for.")
  in
  let errors =
    Arg.(value & opt int 1
         & info [ "errors"; "k" ] ~docv:"K" ~doc:"Error budget.")
  in
  let edit_flag =
    Arg.(value & flag
         & info [ "edit" ]
             ~doc:"Use edit distance (insertions/deletions/substitutions) \
                   instead of mismatches only.")
  in
  let limit =
    Arg.(value & opt int 20
         & info [ "limit" ] ~docv:"N" ~doc:"Print at most N hits.")
  in
  let run index pattern errors edit_flag limit =
    let idx = load_compact index in
    let alphabet = Spine.Compact_store.alphabet idx in
    match
      Array.init (String.length pattern)
        (fun i -> Bioseq.Alphabet.encode alphabet pattern.[i])
    with
    | exception Invalid_argument _ ->
      prerr_endline "pattern contains characters outside the alphabet"; 1
    | codes ->
      let hits =
        if edit_flag then Align.Approx.edit idx ~pattern:codes ~k:errors
        else Align.Approx.hamming idx ~pattern:codes ~k:errors
      in
      Printf.printf "%d hit(s) within %d %s\n" (List.length hits) errors
        (if edit_flag then "edit(s)" else "mismatch(es)");
      List.iteri
        (fun i { Align.Approx.pos; errors; match_len } ->
          if i < limit then
            Printf.printf "  position %d (%d error(s), %d chars)\n" pos
              errors match_len)
        hits;
      0
  in
  Cmd.v
    (Cmd.info "approx"
       ~doc:"Approximate (k-mismatch / k-edit) pattern search.")
    Term.(const run $ index_arg ~doc:"Index file from spine build."
          $ pattern $ errors $ edit_flag $ limit)

(* --- align --- *)

let align_cmd =
  let reference =
    Arg.(required & opt (some string) None
         & info [ "reference"; "r" ] ~docv:"FILE"
             ~doc:"Reference FASTA file.")
  in
  let query_file =
    Arg.(required & opt (some string) None
         & info [ "query"; "q" ] ~docv:"FILE" ~doc:"Query FASTA file.")
  in
  let threshold =
    Arg.(value & opt int 20
         & info [ "threshold" ] ~docv:"LEN" ~doc:"Minimum anchor length.")
  in
  let alphabet_arg' = alphabet_arg in
  let run alphabet reference query_file threshold =
    match alphabet_of_string alphabet with
    | Error e -> prerr_endline e; 1
    | Ok alphabet ->
      (match Bioseq.Fasta.read_file alphabet reference,
             Bioseq.Fasta.read_file alphabet query_file with
       | [], _ | _, [] -> prerr_endline "empty FASTA input"; 1
       | { Bioseq.Fasta.seq = r; _ } :: _, { Bioseq.Fasta.seq = q; _ } :: _ ->
         let chained, summary = Align.align ~threshold r q in
         Printf.printf
           "anchors %d  unique %d  chained %d  bases %d  coverage %.1f%%\n"
           summary.Align.anchors summary.Align.unique summary.Align.chained
           summary.Align.chained_bases (100.0 *. summary.Align.coverage);
         List.iteri
           (fun i { Align.ref_pos; query_pos; len } ->
             if i < 25 then
               Printf.printf "  ref %d..%d = query %d..%d (%d)\n" ref_pos
                 (ref_pos + len - 1) query_pos (query_pos + len - 1) len)
           chained;
         if List.length chained > 25 then
           Printf.printf "  ... (%d more segments)\n"
             (List.length chained - 25);
         0)
  in
  Cmd.v
    (Cmd.info "align"
       ~doc:"MUM-anchor alignment skeleton between two FASTA sequences.")
    Term.(const run $ alphabet_arg' $ reference $ query_file $ threshold)

(* --- trace --- *)

let trace_cmd =
  let queries =
    Arg.(value & opt_all string []
         & info [ "query"; "q" ] ~docv:"PATTERN"
             ~doc:"Pattern to search after building (repeatable); each \
                   query is traced as its own operation.")
  in
  let out =
    Arg.(value & opt string "spine_trace.json"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Trace output file.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Trace format: chrome (trace-event JSON for Perfetto / \
                   chrome://tracing) or jsonl.")
  in
  let run alphabet fasta synthetic scale text seq_str queries backend out
      format frames page_size =
    match
      sequence_of_source ?seq_str ~alphabet ~fasta ~synthetic ~scale ~text ()
    with
    | Error e -> prerr_endline e; 1
    | Ok seq ->
      Trace.set_enabled true;
      Trace.reset ();
      let engine, cleanup =
        Trace.with_op "build"
          [ Trace.Int ("length", Bioseq.Packed_seq.length seq) ]
          (fun () -> engine_of_source ~backend ~frames ~page_size seq)
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      let bad = ref false in
      List.iter
        (fun pattern ->
          match Spine.Engine.encode engine pattern with
          | None ->
            Printf.eprintf "pattern %S is outside the alphabet\n" pattern;
            bad := true
          | Some codes ->
            let occs =
              Trace.with_op "query" [ Trace.Str ("pattern", pattern) ]
                (fun () ->
                  Spine.Engine.occurrences_pattern engine
                    (Spine.Engine.pattern engine codes))
            in
            Printf.printf "query %s: %d occurrence(s)\n" pattern
              (List.length occs))
        queries;
      (match format with
       | `Chrome -> Trace.write_chrome ~path:out
       | `Jsonl -> Trace.write_jsonl ~path:out);
      Printf.printf "trace: %d event(s), %d dropped -> %s\n"
        (List.length (Trace.events ())) (Trace.dropped ()) out;
      (match Trace.slow_rows () with
       | [] -> ()
       | rows ->
         Report.Table.print ~title:"slow operations"
           ~headers:[ "op"; "name"; "ms"; "sampled"; "args" ] rows);
      if !bad then 1 else 0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Build (and optionally query) under per-operation event \
             tracing and export the trace."
       ~envs:
         [ Cmd.Env.info "SPINE_TRACE_SAMPLE"
             ~doc:"Per-operation sampling probability in [0,1].";
           Cmd.Env.info "SPINE_TRACE_SLOW_US"
             ~doc:"Slow-operation threshold in microseconds.";
           Cmd.Env.info "SPINE_TRACE_CAPACITY"
             ~doc:"Event ring capacity." ])
    Term.(const run $ alphabet_arg $ fasta_arg $ synthetic_arg $ scale_arg
          $ text_arg $ seq_literal_arg $ queries $ backend_arg $ out $ format
          $ frames_arg $ page_size_arg)

(* --- scrub --- *)

let scrub_cmd =
  let module P = Spine.Persistent in
  let deep =
    Arg.(value & flag
         & info [ "deep" ]
             ~doc:"After the checksum walk, open the index, check the \
                   paged structure's invariants, and cross-check it \
                   against a fresh in-memory build and a suffix tree of \
                   the recovered sequence (touches every Link-Table and \
                   Rib-Table page). Opening \
                   commits a fresh metadata generation on close, so \
                   this also repairs a torn metadata slot.")
  in
  let jsonl_out =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Also write the per-region report as JSON lines (- for \
                   stdout).")
  in
  let jsonl_lines (r : P.report) =
    let pages field =
      String.concat ","
        (List.map
           (fun (page, detail) ->
             Printf.sprintf "{\"page\":%d,\"detail\":\"%s\"}" page
               (Xutil.Json.escape detail))
           field)
    in
    Printf.sprintf
      "{\"path\":\"%s\",\"generation\":%d,\"commit_epoch\":%d,\
       \"clean\":%b,\"damaged_pages\":%d,\"stale_pages\":%d}"
      (Xutil.Json.escape r.P.report_path) r.P.report_generation
      r.P.report_commit_epoch r.P.report_clean r.P.damaged_pages
      r.P.stale_pages
    :: List.map
         (fun (slot, state) ->
           match state with
           | P.Slot_valid { generation; commit_epoch; clean } ->
             Printf.sprintf
               "{\"slot\":%d,\"valid\":true,\"generation\":%d,\
                \"commit_epoch\":%d,\"clean\":%b}"
               slot generation commit_epoch clean
           | P.Slot_invalid why ->
             Printf.sprintf "{\"slot\":%d,\"valid\":false,\"why\":\"%s\"}"
               slot (Xutil.Json.escape why))
         r.P.slots
    @ List.map
        (fun reg ->
          Printf.sprintf
            "{\"region\":\"%s\",\"scanned\":%d,\"ok\":%d,\"unwritten\":%d,\
             \"damaged\":[%s],\"stale\":[%s]}"
            (Xutil.Json.escape reg.P.region) reg.P.scanned reg.P.ok
            reg.P.unwritten (pages reg.P.damaged)
            (pages
               (List.map
                  (fun (page, epoch) -> (page, Printf.sprintf "epoch %d" epoch))
                  reg.P.stale)))
        r.P.regions
  in
  let deep_check path frames =
    match P.open_ ~frames ~path () with
    | exception Spine_error.Error e ->
      Printf.printf "deep: open failed: %s\n" (Spine_error.to_string e);
      1
    | p ->
      Fun.protect
        ~finally:(fun () -> try P.close p with Spine_error.Error _ -> ())
        (fun () ->
          try
            let seq = P.sequence p in
            let paged = P.engine p in
            let n = Spine.Engine.length paged in
            let module V = Spine.Validate.Make (Spine.Paged_store.P) in
            match V.check (P.store p) with
            | { Spine.Validate.where; what } :: _ as violations ->
              Printf.printf "deep: %d structural violation(s), first %s: %s\n"
                (List.length violations) where what;
              1
            | [] ->
              let fresh = Spine.Compact.engine (Spine.Compact.of_seq seq) in
              if
                Spine.Engine.rib_distribution paged
                <> Spine.Engine.rib_distribution fresh
              then begin
                print_endline
                  "deep: rib distribution diverges from a fresh build";
                1
              end
              else begin
                (* sampled query parity against a suffix tree, which
                   shares no code with the store under test *)
                let tree = Suffix_tree.build seq in
                let rng = Bioseq.Rng.create 7 in
                let bad = ref 0 in
                let probes = if n >= 4 then 64 else 0 in
                for _ = 1 to probes do
                  let len = 2 + Bioseq.Rng.int rng (min 10 (n - 1)) in
                  let pos = Bioseq.Rng.int rng (n - len) in
                  let pat =
                    Array.init len (fun k -> Bioseq.Packed_seq.get seq (pos + k))
                  in
                  let want =
                    List.sort Int.compare (Suffix_tree.occurrences tree pat)
                  in
                  if Spine.Engine.occurrences_pattern paged
                       (Spine.Engine.pattern paged pat) <> want
                  then incr bad
                done;
                if !bad > 0 then begin
                  Printf.printf "deep: %d/%d probe queries diverge\n" !bad
                    probes;
                  1
                end
                else begin
                  Printf.printf
                    "deep: structure valid and consistent with the oracles \
                     (%d probes)\n"
                    probes;
                  0
                end
              end
          with Spine_error.Error e ->
            Printf.printf "deep: %s\n" (Spine_error.to_string e);
            1)
  in
  let run index deep jsonl_out frames =
    match P.scrub ~path:index () with
    | exception Spine_error.Error e ->
      prerr_endline (Spine_error.to_string e);
      2
    | r ->
      if r.P.report_generation < 0 then
        Printf.printf "scrub %s: no recoverable metadata\n" index
      else
        Printf.printf "scrub %s: generation %d, commit epoch %d (%s)\n"
          index r.P.report_generation r.P.report_commit_epoch
          (if r.P.report_clean then "clean shutdown" else "crash-recoverable");
      List.iter
        (fun (slot, state) ->
          let name = if slot = 0 then "A" else "B" in
          match state with
          | P.Slot_valid { generation; commit_epoch; clean } ->
            Printf.printf "  slot %s: generation %d, commit epoch %d%s\n"
              name generation commit_epoch
              (if clean then ", clean" else "")
          | P.Slot_invalid why -> Printf.printf "  slot %s: %s\n" name why)
        r.P.slots;
      Report.Table.print ~title:"page regions"
        ~headers:[ "region"; "scanned"; "ok"; "unwritten"; "damaged"; "stale" ]
        (List.map
           (fun reg ->
             [ reg.P.region; string_of_int reg.P.scanned;
               string_of_int reg.P.ok; string_of_int reg.P.unwritten;
               string_of_int (List.length reg.P.damaged);
               string_of_int (List.length reg.P.stale) ])
           r.P.regions);
      List.iter
        (fun reg ->
          List.iter
            (fun (page, detail) ->
              Printf.printf "  damaged %s page %d: %s\n" reg.P.region page
                detail)
            reg.P.damaged;
          List.iter
            (fun (page, epoch) ->
              Printf.printf
                "  stale %s page %d: epoch %d beyond the committed ceiling\n"
                reg.P.region page epoch)
            reg.P.stale)
        r.P.regions;
      write_jsonl jsonl_out (jsonl_lines r);
      let deep_rc =
        if deep && r.P.report_generation >= 0 then deep_check index frames
        else 0
      in
      if r.P.damaged_pages + r.P.stale_pages > 0 || r.P.report_generation < 0
      then begin
        Printf.printf "scrub: %d damaged, %d stale page(s)\n"
          r.P.damaged_pages r.P.stale_pages;
        1
      end
      else begin
        print_endline "scrub: clean";
        deep_rc
      end
  in
  let frames =
    Arg.(value & opt int Spine.Disk.default_config.Spine.Disk.frames
         & info [ "frames" ] ~docv:"N"
             ~doc:"Buffer-pool frames for the --deep open.")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Walk every page of a persistent index file, validate \
             checksums, epochs and metadata slots, and report damage \
             per region.")
    Term.(const run $ index_arg ~doc:"Index file from spine build."
          $ deep $ jsonl_out $ frames)

(* --- scenario --- *)

let scenario_run_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Scenario file (JSONL stage list).")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"N"
             ~doc:"Override the scenario's seed: the same stages and \
                   expectations against a different deterministic storm.")
  in
  let report_jsonl =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Also write the run summary and every expectation \
                   result as JSON lines (- for stdout).")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Scratch directory for the scenario's index (kept \
                   afterwards); default is a removed temp directory.")
  in
  let run file seed report_jsonl dir =
    match Scenario.load ~path:file with
    | Error e -> Printf.eprintf "scenario: %s: %s\n" file e; 2
    | Ok sc ->
      (match Scenario.run ?seed ?dir sc with
       | Error e -> Printf.eprintf "scenario: %s: %s\n" sc.Scenario.sc_name e; 2
       | Ok result ->
         Scenario.print result;
         write_jsonl report_jsonl (Scenario.jsonl result);
         if Scenario.passed result then begin
           Printf.printf "scenario: %s: ok (%d expectation(s))\n"
             result.Scenario.r_name
             (List.length result.Scenario.r_checks);
           0
         end
         else begin
           let failed =
             List.filter
               (fun c -> not c.Scenario.c_pass)
               result.Scenario.r_checks
           in
           Printf.printf "scenario: %s: %d expectation(s) failed\n"
             result.Scenario.r_name (List.length failed);
           List.iter
             (fun c ->
               Printf.printf "  %s: %s\n" c.Scenario.c_name
                 c.Scenario.c_detail)
             failed;
           1
         end)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a chaos scenario: composed fault/latency/load \
             stages with kill -9 crash points, then gate on its named \
             expectations (query parity, scrub, p99 bounds, replay, \
             breaker state, counter reconciliation).  Exit 0 on pass, \
             1 naming each failed expectation, 2 on a malformed \
             scenario.")
    Term.(const run $ file $ seed $ report_jsonl $ dir)

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:"Deterministic chaos scenarios (fault/latency/load \
             composition with expectations).")
    [ scenario_run_cmd ]

let main_cmd =
  let doc = "SPINE string index (ICDE 2004 reproduction)" in
  Cmd.group (Cmd.info "spine" ~doc)
    [ build_cmd; query_cmd; stats_cmd; workload_cmd; explain_cmd;
      replay_cmd; bench_compare_cmd; match_cmd; approx_cmd; align_cmd;
      trace_cmd; scrub_cmd; scenario_cmd ]

(* Typed storage errors can surface lazily (a damaged page is only read
   mid-query); render them as a diagnosis, not an "internal error". *)
let () =
  try exit (Cmd.eval' ~catch:false main_cmd)
  with Spine_error.Error e ->
    Printf.eprintf "spine: %s\n" (Spine_error.to_string e);
    exit 1
