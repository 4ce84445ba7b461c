(* spine-lint entry point: scan the .cmt files under a build dir and
   report rule violations.  Exit 0 when clean, 1 on unsuppressed
   findings (or, with --domains, an UNSAFE certification verdict),
   2 on environmental failure (no build dir, no cmts, or a load path
   that resolves under neither root). *)

open Cmdliner

let print_table ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map String.length header)
      rows
  in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line row =
    Report.Say.line
      (String.concat "  " (List.map2 pad widths row) |> String.trim
      |> fun s -> "  " ^ s)
  in
  line header;
  List.iter line rows

let print_findings findings =
  print_table
    ~header:[ "RULE"; "SEVERITY"; "WHERE"; "MESSAGE" ]
    (Lint.table_rows findings)

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let run_lint build_dir source_root all_paths format errors_only demote
    only except domains out show_suppressed =
  let demote =
    if errors_only then
      List.filter
        (fun r -> Lint.default_severity r = Lint.Warning)
        Lint.all_rules
    else List.filter_map Lint.rule_of_id demote
  in
  let parse_rules what ids =
    List.filter_map
      (fun id ->
        match Lint.rule_of_id id with
        | Some r -> Some r
        | None ->
          Printf.eprintf "spine-lint: unknown rule %S in --%s (ignored)\n"
            id what;
          None)
      ids
  in
  let only_ids = only in
  let only = parse_rules "only" only in
  let except = parse_rules "except" except in
  if only_ids <> [] && only = [] then begin
    (* every id was unknown: running all rules here would silently
       invert the request *)
    prerr_endline "spine-lint: --only matched no known rules";
    2
  end
  else
  match
    Lint.run ~all_paths ~demote ~only ~except ~domains ~build_dir
      ~source_root ()
  with
  | Error msg ->
    prerr_endline ("spine-lint: " ^ msg);
    2
  | Ok res ->
    let blocking =
      if errors_only then
        List.filter (fun f -> f.Lint.severity = Lint.Error) res.findings
      else res.Lint.findings
    in
    let unsafe_modules =
      List.filter
        (fun (r : Lint.Domain_safety.cert_row) -> r.Lint.Domain_safety.cm_verdict = "UNSAFE")
        res.Lint.certification
    in
    (match format with
    | "jsonl" ->
      List.iter Report.Say.line (Lint.jsonl res.Lint.findings);
      if domains then
        List.iter Report.Say.line (Lint.cert_jsonl res.Lint.certification)
    | _ ->
      if res.Lint.findings = [] then
        Report.Say.printf "spine-lint: %d files scanned, no findings%s\n"
          res.Lint.files_scanned
          (match List.length res.Lint.suppressed with
          | 0 -> ""
          | n -> Printf.sprintf " (%d suppressed)" n)
      else begin
        print_findings res.Lint.findings;
        Report.Say.printf "spine-lint: %d finding(s) in %d files scanned\n"
          (List.length res.Lint.findings)
          res.Lint.files_scanned
      end;
      if domains then begin
        Report.Say.line "domain-safety certification:";
        print_table
          ~header:[ "MODULE"; "VERDICT"; "WITNESS" ]
          (Lint.cert_table_rows res.Lint.certification);
        Report.Say.printf
          "spine-lint: %d module(s) certified, %d unsafe\n"
          (List.length res.Lint.certification - List.length unsafe_modules)
          (List.length unsafe_modules)
      end;
      if show_suppressed && res.Lint.suppressed <> [] then begin
        Report.Say.line "suppressed:";
        print_findings res.Lint.suppressed
      end);
    (match out with
    | Some path -> write_lines path (Lint.cert_jsonl res.Lint.certification)
    | None -> ());
    if blocking = [] && unsafe_modules = [] then 0 else 1

let build_dir_arg =
  let doc = "Directory scanned (recursively) for .cmt files." in
  Arg.(value & opt string "_build/default" & info [ "build-dir" ] ~doc)

let source_root_arg =
  let doc =
    "Directory the source paths recorded in the .cmt files resolve \
     against; also where the .mli existence checks look."
  in
  Arg.(value & opt string "." & info [ "source-root" ] ~doc)

let all_paths_arg =
  let doc =
    "Disable path scoping and apply every rule to every scanned file \
     (used by the fixture tests)."
  in
  Arg.(value & flag & info [ "all-paths" ] ~doc)

let format_arg =
  let doc = "Output format: $(b,table) or $(b,jsonl)." in
  Arg.(
    value
    & opt (enum [ ("table", "table"); ("jsonl", "jsonl") ]) "table"
    & info [ "format" ] ~doc)

let errors_only_arg =
  let doc = "Only fail (exit 1) on error-severity findings." in
  Arg.(value & flag & info [ "errors-only" ] ~doc)

let demote_arg =
  let doc = "Downgrade $(docv) to warning severity (repeatable)." in
  Arg.(value & opt_all string [] & info [ "demote" ] ~docv:"RULE" ~doc)

let only_arg =
  let doc =
    "Run only $(docv) (repeatable; rule id or l1..l12 alias). \
     Default: every rule."
  in
  Arg.(value & opt_all string [] & info [ "only" ] ~docv:"RULE" ~doc)

let except_arg =
  let doc = "Skip $(docv) (repeatable; rule id or l1..l12 alias)." in
  Arg.(value & opt_all string [] & info [ "except" ] ~docv:"RULE" ~doc)

let domains_arg =
  let doc =
    "Run the interprocedural domain-safety pass: collect per-function \
     summaries from every library module, report writes escaping the \
     query surface (rule shared-mutation) and print the per-module \
     certification table.  Exit 1 if any module certifies UNSAFE."
  in
  Arg.(value & flag & info [ "domains" ] ~doc)

let out_arg =
  let doc =
    "Write the certification table as JSONL to $(docv) (with \
     --domains; the CI artifact)."
  in
  Arg.(
    value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let show_suppressed_arg =
  let doc = "Also list suppressed findings." in
  Arg.(value & flag & info [ "show-suppressed" ] ~doc)

let rules_cmd =
  let run_rules () =
    List.iter
      (fun r ->
        Report.Say.printf "%-17s %-7s %s\n" (Lint.rule_id r)
          (Lint.severity_id (Lint.default_severity r))
          (Lint.rule_doc r))
      Lint.all_rules;
    0
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List the rules, severities and what they enforce")
    Term.(const run_rules $ const ())

let lint_term =
  Term.(
    const run_lint $ build_dir_arg $ source_root_arg $ all_paths_arg
    $ format_arg $ errors_only_arg $ demote_arg $ only_arg $ except_arg
    $ domains_arg $ out_arg $ show_suppressed_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Scan a build dir's .cmt files for violations")
    lint_term

let main_cmd =
  let doc = "static analysis for the SPINE repo's typed ASTs" in
  Cmd.group ~default:lint_term
    (Cmd.info "spine-lint" ~doc)
    [ check_cmd; rules_cmd ]

let () = exit (Cmd.eval' main_cmd)
