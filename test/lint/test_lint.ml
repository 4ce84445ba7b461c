(* Per-rule coverage for spine-lint, driven over the compiled fixture
   library in ./fixtures: every rule must fire on its flagged fixture,
   stay quiet on the clean one, and respect suppression comments. *)

let result =
  lazy
    (match
       Lint.run ~all_paths:true ~build_dir:"fixtures" ~source_root:"../.." ()
     with
    | Ok r -> r
    | Error e -> Alcotest.failf "lint run failed: %s" e)

(* the interprocedural pass is opt-in, so the domain rules get their
   own lazy run (same fixtures, [~domains:true]) *)
let dresult =
  lazy
    (match
       Lint.run ~all_paths:true ~domains:true ~build_dir:"fixtures"
         ~source_root:"../.." ()
     with
    | Ok r -> r
    | Error e -> Alcotest.failf "domains lint run failed: %s" e)

let in_file file f = Filename.basename f.Lint.file = file

let findings_in file rule =
  List.filter
    (fun f -> f.Lint.rule = rule && in_file file f)
    (Lazy.force result).Lint.findings

let count file rule = List.length (findings_in file rule)

let check_int what expected actual = Alcotest.(check int) what expected actual

let test_poly_compare () =
  check_int "record =, first-class hash and Hashtbl.create flagged" 3
    (count "flag_poly.ml" Lint.Poly_compare);
  Alcotest.(check bool)
    "int = on line 7 is specialised, not flagged" false
    (List.exists (fun f -> f.Lint.line = 7)
       (findings_in "flag_poly.ml" Lint.Poly_compare))

let test_obj_magic () =
  check_int "Obj.magic flagged" 1 (count "flag_obj.ml" Lint.Obj_magic)

let test_catch_all () =
  let fs = findings_in "flag_catch.ml" Lint.Catch_all in
  check_int "only the catch-all handler flagged" 1 (List.length fs);
  check_int "flagged on the catch-all line" 4 (List.hd fs).Lint.line

let test_stdout () =
  check_int "print_endline and Printf.printf flagged" 2
    (count "flag_stdout.ml" Lint.Direct_stdout)

let test_partial_call () =
  check_int "List.hd, List.tl and Option.get flagged" 3
    (count "flag_partial.ml" Lint.Partial_call)

let test_raw_clock () =
  check_int "Unix.gettimeofday, Unix.time and Sys.time flagged" 3
    (count "flag_clock.ml" Lint.Raw_clock);
  check_int "monotonic fixture code not flagged" 0
    (count "clean_mod.ml" Lint.Raw_clock)

let test_bare_failwith () =
  check_int "failwith and raise Failure flagged" 2
    (count "flag_failwith.ml" Lint.Bare_failwith);
  check_int "typed-error-free fixture not flagged" 0
    (count "clean_mod.ml" Lint.Bare_failwith)

let test_missing_mli () =
  check_int "mli-less module flagged" 1
    (count "flag_missing.ml" Lint.Missing_mli);
  check_int "module with an mli not flagged" 0
    (count "clean_mod.ml" Lint.Missing_mli)

let test_global_mutable () =
  check_int "array and ref at module level flagged" 2
    (count "flag_global.ml" Lint.Global_mutable);
  check_int "Atomic and annotated bindings not flagged" 0
    (List.length
       (List.filter
          (fun f -> f.Lint.line > 6)
          (findings_in "flag_global.ml" Lint.Global_mutable)))

let test_unguarded_unsafe () =
  check_int "Array.unsafe_get and Bytes.unsafe_set flagged" 2
    (count "flag_unsafe.ml" Lint.Unguarded_unsafe);
  check_int "checked-boundary module not flagged" 0
    (count "checked_mod.ml" Lint.Unguarded_unsafe)

(* L12's verdicts in one interface: the export each finding names (the
   first word of its message) and its severity, in line order *)
let l12_in file =
  List.filter_map
    (fun f ->
      if f.Lint.rule = Lint.Unused_export && in_file file f then
        Some
          ( List.hd (String.split_on_char ' ' f.Lint.message),
            Lint.severity_id f.Lint.severity )
      else None)
    (Lazy.force result).Lint.findings

let check_l12 what expected file =
  Alcotest.(check (list (pair string string))) what expected (l12_in file)

let test_unused_export () =
  check_l12 "unused export flagged, test-only one warned"
    [ ("L12_api.unused", "error"); ("L12_api.for_tests", "warning") ]
    "l12_api.mli"

let test_l12_clean () =
  check_l12 "every export has a caller" [] "l12_clean.mli"

let test_l12_functor_argument () =
  check_l12 "a functor argument uses what the parameter names"
    [ ("L12_arg.spare", "error") ]
    "l12_arg.mli"

let test_l12_first_class () =
  check_l12 "a packed module uses what the package type names"
    [ ("L12_packed.extra", "error") ]
    "l12_packed.mli"

let test_l12_parameter_signature () =
  (* NEED.need is a requirement; S.run is used through the functor's
     result, S.idle is not *)
  check_l12 "only the returned module type's unused member"
    [ ("L12_param.S.idle", "error") ]
    "l12_param.mli"

let test_l12_test_only () =
  match
    List.filter
      (fun f -> f.Lint.severity = Lint.Warning && in_file "l12_api.mli" f)
      (Lazy.force result).Lint.findings
  with
  | [ f ] ->
    Alcotest.(check string) "named test-only"
      "L12_api.for_tests is used only from tests (test-only)" f.Lint.message
  | l -> Alcotest.failf "expected one test-only warning, got %d" (List.length l)

let test_l12_waiver () =
  match
    List.filter
      (fun f -> f.Lint.rule = Lint.Unused_export && in_file "l12_api.mli" f)
      (Lazy.force result).Lint.suppressed
  with
  | [ f ] ->
    Alcotest.(check string) "suppressed with its reason"
      "L12_api.waived is exported but no other unit uses it (waived: \
       fixture: a waived export)"
      f.Lint.message
  | l -> Alcotest.failf "expected one waived export, got %d" (List.length l)

let dfindings_in file =
  List.filter
    (fun f -> f.Lint.rule = Lint.Shared_mutation && in_file file f)
    (Lazy.force dresult).Lint.findings

let test_shared_mutation () =
  check_int "escape through a helper flagged at the write site" 1
    (List.length (dfindings_in "flag_share.ml"));
  check_int "escape behind a functor alias flagged" 1
    (List.length (dfindings_in "functor_share.ml"));
  check_int "escape from a packed-pattern root flagged" 1
    (List.length (dfindings_in "pattern_share.ml"));
  check_int "call-local mutation not flagged" 0
    (List.length (dfindings_in "clean_share.ml"));
  check_int "Mutex.protect-guarded write not flagged" 0
    (List.length (dfindings_in "guarded_share.ml"));
  check_int "annotated write not flagged" 0
    (List.length (dfindings_in "annotated_share.ml"));
  check_int "a query's name on a function no query reaches not flagged" 0
    (List.length (dfindings_in "unreached_share.ml"));
  Alcotest.(check bool)
    "no L9 findings without ~domains" true
    (List.for_all
       (fun f -> f.Lint.rule <> Lint.Shared_mutation)
       (Lazy.force result).Lint.findings)

let test_certification () =
  let rows = (Lazy.force dresult).Lint.certification in
  let verdict m =
    match
      List.find_opt
        (fun (r : Lint.Domain_safety.cert_row) ->
          r.Lint.Domain_safety.cm_module = m)
        rows
    with
    | Some r -> r.Lint.Domain_safety.cm_verdict
    | None -> Alcotest.failf "no certification row for %s" m
  in
  Alcotest.(check string) "escaping module" "UNSAFE" (verdict "Flag_share");
  Alcotest.(check string) "functor alias" "UNSAFE" (verdict "Functor_share");
  Alcotest.(check string) "packed-pattern root" "UNSAFE"
    (verdict "Pattern_share");
  Alcotest.(check string) "local-only module" "certified"
    (verdict "Clean_share");
  Alcotest.(check string) "mutex-guarded module" "certified (guarded)"
    (verdict "Guarded_share");
  Alcotest.(check string) "annotated module" "certified (annotated)"
    (verdict "Annotated_share");
  Alcotest.(check bool) "no row for a module no query reaches" false
    (List.exists
       (fun (r : Lint.Domain_safety.cert_row) ->
         r.Lint.Domain_safety.cm_module = "Unreached_share")
       rows);
  Alcotest.(check bool)
    "no certification rows without ~domains" true
    ((Lazy.force result).Lint.certification = [])

let test_only_except () =
  (match
     Lint.run ~all_paths:true ~only:[ Lint.Obj_magic ] ~build_dir:"fixtures"
       ~source_root:"../.." ()
   with
  | Error e -> Alcotest.failf "lint run failed: %s" e
  | Ok r ->
    Alcotest.(check bool)
      "--only restricts to the listed rule" true
      (r.Lint.findings <> []
      && List.for_all (fun f -> f.Lint.rule = Lint.Obj_magic) r.Lint.findings));
  match
    Lint.run ~all_paths:true ~except:[ Lint.Obj_magic ] ~build_dir:"fixtures"
      ~source_root:"../.." ()
  with
  | Error e -> Alcotest.failf "lint run failed: %s" e
  | Ok r ->
    Alcotest.(check bool)
      "--except drops the listed rule" true
      (r.Lint.findings <> []
      && List.for_all (fun f -> f.Lint.rule <> Lint.Obj_magic) r.Lint.findings)

let test_clean () =
  let offending =
    List.filter (in_file "clean_mod.ml") (Lazy.force result).Lint.findings
  in
  check_int "clean fixture has no findings" 0 (List.length offending)

let test_suppressed () =
  let r = Lazy.force result in
  let hits rule l =
    List.length
      (List.filter
         (fun f -> f.Lint.rule = rule && in_file "suppressed_mod.ml" f)
         l)
  in
  check_int "no unsuppressed findings in the suppression fixture" 0
    (List.length (List.filter (in_file "suppressed_mod.ml") r.Lint.findings));
  check_int "line waiver recorded as suppressed" 1
    (hits Lint.Obj_magic r.Lint.suppressed);
  check_int "same-line waiver recorded as suppressed" 1
    (hits Lint.Catch_all r.Lint.suppressed);
  check_int "file-wide waiver recorded as suppressed" 1
    (hits Lint.Missing_mli r.Lint.suppressed)

let test_demote () =
  match
    Lint.run ~all_paths:true ~demote:[ Lint.Obj_magic ]
      ~build_dir:"fixtures" ~source_root:"../.." ()
  with
  | Error e -> Alcotest.failf "lint run failed: %s" e
  | Ok r ->
    List.iter
      (fun f ->
        if f.Lint.rule = Lint.Obj_magic then
          Alcotest.(check string)
            "demoted rule reports as warning" "warning"
            (Lint.severity_id f.Lint.severity))
      r.Lint.findings

let test_rule_ids () =
  List.iter
    (fun r ->
      match Lint.rule_of_id (Lint.rule_id r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "rule id %s does not round-trip" (Lint.rule_id r))
    Lint.all_rules;
  Alcotest.(check bool)
    "unknown id rejected" true
    (Lint.rule_of_id "no-such-rule" = None)

let test_exporters () =
  let f =
    { Lint.rule = Lint.Obj_magic; severity = Lint.Error;
      file = "lib/x.ml"; line = 3; col = 10; message = "say \"hi\"" }
  in
  (match Lint.jsonl [ f ] with
  | [ line ] ->
    Alcotest.(check string)
      "jsonl line"
      "{\"rule\":\"obj-magic\",\"severity\":\"error\",\"file\":\"lib/x.ml\",\"line\":3,\"col\":10,\"message\":\"say \\\"hi\\\"\"}"
      line
  | l -> Alcotest.failf "expected one jsonl line, got %d" (List.length l));
  match Lint.table_rows [ f ] with
  | [ [ rule; sev; where; _msg ] ] ->
    Alcotest.(check string) "rule cell" "obj-magic" rule;
    Alcotest.(check string) "severity cell" "error" sev;
    Alcotest.(check string) "where cell" "lib/x.ml:3:10" where
  | _ -> Alcotest.fail "expected one 4-column row"

let () =
  Alcotest.run "spine_lint"
    [ ( "rules",
        [ Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "catch-all" `Quick test_catch_all;
          Alcotest.test_case "stdout" `Quick test_stdout;
          Alcotest.test_case "partial-call" `Quick test_partial_call;
          Alcotest.test_case "raw-clock" `Quick test_raw_clock;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "bare-failwith" `Quick test_bare_failwith;
          Alcotest.test_case "global-mutable" `Quick test_global_mutable;
          Alcotest.test_case "unguarded-unsafe" `Quick test_unguarded_unsafe;
          Alcotest.test_case "shared-mutation" `Quick test_shared_mutation;
          Alcotest.test_case "unused-export" `Quick test_unused_export ] );
      ( "behaviour",
        [ Alcotest.test_case "clean module" `Quick test_clean;
          Alcotest.test_case "suppressions" `Quick test_suppressed;
          Alcotest.test_case "demotion" `Quick test_demote;
          Alcotest.test_case "rule ids" `Quick test_rule_ids;
          Alcotest.test_case "certification" `Quick test_certification;
          Alcotest.test_case "only/except" `Quick test_only_except;
          Alcotest.test_case "exporters" `Quick test_exporters;
          Alcotest.test_case "unused-export: clean module" `Quick
            test_l12_clean;
          Alcotest.test_case "unused-export: functor argument" `Quick
            test_l12_functor_argument;
          Alcotest.test_case "unused-export: first-class module" `Quick
            test_l12_first_class;
          Alcotest.test_case "unused-export: parameter signature" `Quick
            test_l12_parameter_signature;
          Alcotest.test_case "unused-export: test-only" `Quick
            test_l12_test_only;
          Alcotest.test_case "unused-export: waiver" `Quick test_l12_waiver ] ) ]
