(* The driver reads the typed ASTs the compiler already produced
   ([.cmt] files, via compiler-libs) instead of re-parsing sources:
   every identifier below is a fully resolved [Path.t], so `open`
   tricks, aliases and shadowing cannot hide a violation, and the
   instantiated types at polymorphic-comparison call sites are
   available to tell an [int] equality (which the compiler
   specialises) from an [int option] one (which drops to the generic
   runtime walk). *)

(* the interprocedural pass lives in its own module; re-exported so
   CLI and tests can name its types through the library interface *)
module Domain_safety = Domain_safety

type severity = Error | Warning

type rule =
  | Poly_compare
  | Obj_magic
  | Catch_all
  | Direct_stdout
  | Missing_mli
  | Partial_call
  | Raw_clock
  | Bare_failwith
  | Shared_mutation
  | Global_mutable
  | Unguarded_unsafe
  | Unused_export

let all_rules =
  [ Poly_compare; Obj_magic; Catch_all; Direct_stdout; Missing_mli;
    Partial_call; Raw_clock; Bare_failwith; Shared_mutation;
    Global_mutable; Unguarded_unsafe; Unused_export ]

let rule_id = function
  | Poly_compare -> "poly-compare"
  | Obj_magic -> "obj-magic"
  | Catch_all -> "catch-all"
  | Direct_stdout -> "stdout"
  | Missing_mli -> "missing-mli"
  | Partial_call -> "partial-call"
  | Raw_clock -> "raw-clock"
  | Bare_failwith -> "bare-failwith"
  | Shared_mutation -> "shared-mutation"
  | Global_mutable -> "global-mutable"
  | Unguarded_unsafe -> "unguarded-unsafe"
  | Unused_export -> "unused-export"

let rule_of_id s =
  match String.lowercase_ascii s with
  | "poly-compare" | "l1" -> Some Poly_compare
  | "obj-magic" | "l2" -> Some Obj_magic
  | "catch-all" | "l3" -> Some Catch_all
  | "stdout" | "l4" -> Some Direct_stdout
  | "missing-mli" | "l5" -> Some Missing_mli
  | "partial-call" | "l6" -> Some Partial_call
  | "raw-clock" | "l7" -> Some Raw_clock
  | "bare-failwith" | "l8" -> Some Bare_failwith
  | "shared-mutation" | "l9" -> Some Shared_mutation
  | "global-mutable" | "l10" -> Some Global_mutable
  | "unguarded-unsafe" | "l11" -> Some Unguarded_unsafe
  | "unused-export" | "l12" -> Some Unused_export
  | _ -> None

let rule_doc = function
  | Poly_compare ->
    "no polymorphic compare/=/min/max/Hashtbl.hash or polymorphic \
     Hashtbl on hot-path libraries (lib/spine, lib/pagestore, lib/bioseq)"
  | Obj_magic -> "no Obj.magic/Obj.repr/Obj.obj in library code"
  | Catch_all -> "no catch-all `try ... with _ ->` swallowing exceptions"
  | Direct_stdout ->
    "no direct stdout printing from library code; route through \
     lib/report or lib/telemetry"
  | Missing_mli ->
    "every module in lib/spine and lib/pagestore has a .mli interface"
  | Partial_call ->
    "no partial stdlib calls (List.hd, List.tl, Option.get) in library code"
  | Raw_clock ->
    "no raw clock reads (Unix.gettimeofday, Unix.time, Sys.time) in \
     library code; time through Xutil.Stopwatch's monotonic clock"
  | Bare_failwith ->
    "no bare failwith/Failure raises in the typed-error storage stack \
     (lib/pagestore; persistent, region_map, meta_slot, \
     preimage_journal and side_log in lib/spine); raise a typed \
     Spine_error instead"
  | Shared_mutation ->
    "no write reachable from the engine's query surface may touch \
     state that outlives the call (module-level values, fields of the \
     shared store argument, stored closures) unless guarded by \
     Mutex/Atomic/Domain.DLS or annotated [@spine.domain_safe]"
  | Global_mutable ->
    "no module-level mutable value in lib/spine or lib/pagestore \
     without a Mutex/Atomic guard or a [@spine.domain_safe \
     \"reason\"] annotation"
  | Unguarded_unsafe ->
    "no Array.unsafe_*/Bytes.unsafe_* outside modules that declare \
     themselves a checked boundary with [@@@spine.checked_boundary \
     \"reason\"]"
  | Unused_export ->
    "every val of a lib/ interface has a caller in lib/, bin/, bench/ or \
     examples/ (a val only test/ calls is a test-only warning)"

let default_severity = function
  | Poly_compare | Obj_magic | Catch_all | Missing_mli | Raw_clock
  | Bare_failwith | Shared_mutation | Global_mutable | Unguarded_unsafe
  | Unused_export -> Error
  | Direct_stdout | Partial_call -> Warning

let severity_id = function Error -> "error" | Warning -> "warning"

type finding = {
  rule : rule;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

type result = {
  findings : finding list;
  suppressed : finding list;
  files_scanned : int;
  certification : Domain_safety.cert_row list;
      (* per-module query-surface verdicts; empty unless [domains] *)
}

(* ------------------------------------------------------------------ *)
(* Rule scoping by source path                                         *)

let hot_prefixes = [ "lib/spine/"; "lib/pagestore/"; "lib/bioseq/" ]
let stdout_exempt = [ "lib/report/"; "lib/telemetry/" ]
let mli_prefixes = [ "lib/spine/"; "lib/pagestore/" ]

(* the storage vertical that raises typed Spine_error values: the
   page store and the modules of the persistent index file *)
let typed_error_prefixes =
  "lib/pagestore/"
  :: List.map
       (fun m -> "lib/spine/" ^ m ^ ".ml")
       [ "persistent"; "region_map"; "meta_slot"; "preimage_journal";
         "side_log" ]

let starts_with_any prefixes file =
  List.exists (fun p -> String.starts_with ~prefix:p file) prefixes

let rule_in_scope ~all_paths rule file =
  all_paths
  ||
  match rule with
  | Poly_compare -> starts_with_any hot_prefixes file
  | Obj_magic | Catch_all | Partial_call | Raw_clock ->
    String.starts_with ~prefix:"lib/" file
  | Direct_stdout ->
    String.starts_with ~prefix:"lib/" file
    && not (starts_with_any stdout_exempt file)
  | Missing_mli -> starts_with_any mli_prefixes file
  | Bare_failwith -> starts_with_any typed_error_prefixes file
  (* L9 roots live on the engine's query surface *)
  | Shared_mutation -> String.starts_with ~prefix:"lib/spine/" file
  | Global_mutable ->
    starts_with_any [ "lib/spine/"; "lib/pagestore/" ] file
  | Unguarded_unsafe | Unused_export -> String.starts_with ~prefix:"lib/" file

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)

(* [Stdlib.Hashtbl.find] and friends flattened to ["Stdlib";"Hashtbl";
   "find"]; [None] for applications/extra-type paths we never match. *)
let path_parts p =
  let rec go p acc =
    match p with
    | Path.Pident id -> Some (Ident.name id :: acc)
    | Path.Pdot (q, s) -> go q (s :: acc)
    | _ -> None
  in
  go p []

let poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]

let stdout_names =
  [ "print_string"; "print_bytes"; "print_char"; "print_int";
    "print_float"; "print_endline"; "print_newline" ]

let classify_partial = function
  | [ "Stdlib"; "List"; "hd" ] -> Some "List.hd raises Failure on []"
  | [ "Stdlib"; "List"; "tl" ] -> Some "List.tl raises Failure on []"
  | [ "Stdlib"; "Option"; "get" ] ->
    Some "Option.get raises Invalid_argument on None"
  | _ -> None

let classify_stdout = function
  | [ "Stdlib"; name ] when List.mem name stdout_names ->
    Some (Printf.sprintf "%s writes directly to stdout" name)
  | [ "Stdlib"; "Printf"; "printf" ] ->
    Some "Printf.printf writes directly to stdout"
  | [ "Stdlib"; "Format"; ("printf" | "print_string" | "print_newline") as f ]
    ->
    Some (Printf.sprintf "Format.%s writes directly to stdout" f)
  | _ -> None

let classify_obj = function
  | [ "Stdlib"; "Obj"; ("magic" | "repr" | "obj") as f ] ->
    Some (Printf.sprintf "Obj.%s defeats the type system" f)
  | _ -> None

(* wall clocks jump (NTP) and Sys.time measures CPU, not elapsed, time;
   every repro timing must come from the one monotonic source *)
let classify_raw_clock = function
  | [ "Unix"; ("gettimeofday" | "time") as f ]
  | [ "UnixLabels"; ("gettimeofday" | "time") as f ] ->
    Some
      (Printf.sprintf
         "Unix.%s reads the adjustable wall clock (use \
          Xutil.Stopwatch.now_ns)"
         f)
  | [ "Stdlib"; "Sys"; "time" ] ->
    Some
      "Sys.time measures processor time, not elapsed time (use \
       Xutil.Stopwatch.now_ns)"
  | _ -> None

(* every value of the polymorphic Hashtbl interface hashes or compares
   generically; the specialised [Hashtbl.Make] tables resolve to their
   own module path and sail through *)
let classify_hashtbl = function
  | [ "Stdlib"; "Hashtbl"; "hash" ] ->
    Some "Hashtbl.hash is the generic structural hash"
  | [ "Stdlib"; "Hashtbl"; f ] ->
    Some
      (Printf.sprintf
         "polymorphic Hashtbl.%s hashes keys generically (use a \
          Hashtbl.Make-specialised table, e.g. Xutil.Int_tbl)"
         f)
  | _ -> None

let is_poly_op p =
  match path_parts p with
  | Some [ "Stdlib"; op ] -> List.mem op poly_ops
  | _ -> false

(* [Stdlib.min]/[Stdlib.max] are ordinary functions, not primitives the
   compiler specialises: every call compares generically, at [int] too *)
let classify_minmax = function
  | [ "Stdlib"; ("min" | "max") as f ] ->
    Some
      (Printf.sprintf
         "Stdlib.%s is a polymorphic function: it compares generically at \
          every type, int included (use Int.%s, or a monomorphic \
          comparison)"
         f f)
  | _ -> None

(* stringly errors in the storage stack: both [failwith "..."] and the
   spelled-out [raise (Failure "...")] *)
let classify_failwith = function
  | [ "Stdlib"; "failwith" ] ->
    Some
      "failwith raises a stringly Failure callers cannot match on \
       (raise a typed Spine_error.Error instead)"
  | _ -> None

(* cmt files store environments as summaries; rebuild enough of the
   typing env (from the load path recorded at compile time) to expand
   aliases like [Xutil.Int_tbl.key = int] before judging a comparison.
   [None] when the env cannot be rebuilt or the expanded head's
   declaration cannot be found: a .cmi on the load path is missing, so
   an alias that would expand to [int] reads as opaque. *)
let expand_type env ty =
  match Envaux.env_of_only_summary env with
  | exception (Envaux.Error _ | Env.Error _ | Persistent_env.Error _) -> None
  | env -> (
    let ty' =
      match Ctype.expand_head env ty with
      | ty' -> Some ty'
      | exception (Ctype.Cannot_expand | Ctype.Escape _) -> Some ty
      | exception (Env.Error _ | Persistent_env.Error _) -> None
    in
    match Option.map Types.get_desc ty' with
    | Some (Types.Tconstr (p, _, _)) -> (
      match Env.find_type p env with
      | _ -> ty'
      | exception (Not_found | Env.Error _ | Persistent_env.Error _) -> None)
    | _ -> ty')

(* argument types at which the compiler emits a specialised (non-
   generic) comparison: flagging [a = b] on ints would be noise *)
let specializable ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
    List.exists (Path.same p)
      [ Predef.path_int; Predef.path_char; Predef.path_bool;
        Predef.path_unit; Predef.path_string; Predef.path_bytes;
        Predef.path_float; Predef.path_int32; Predef.path_int64;
        Predef.path_nativeint ]
  | _ -> false

let type_to_string ty = Format.asprintf "%a" Printtyp.type_expr ty

(* ------------------------------------------------------------------ *)
(* Typedtree walk                                                      *)

type raw = { r_rule : rule; r_loc : Location.t; r_msg : string }

let collect_structure ~wants str =
  let found = ref [] in
  (* a comparison whose argument type could not be expanded *)
  let unresolved = ref false in
  let record r_rule loc r_msg =
    if wants r_rule then found := { r_rule; r_loc = loc; r_msg } :: !found
  in
  (* comparison operators judged benign at their application site (the
     argument type is specialisable); the ident visit skips them *)
  let cleared : (Location.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let open Typedtree in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
      match f.exp_desc with
      | Texp_ident (p, _, _) when is_poly_op p ->
        Hashtbl.replace cleared f.exp_loc ();
        let first_arg =
          List.find_map
            (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
            args
        in
        (match first_arg with
        | None ->
          record Poly_compare f.exp_loc
            (Printf.sprintf "polymorphic %s" (Path.last p))
        | Some a when specializable a.exp_type -> ()
        | Some a -> (
          match expand_type a.exp_env a.exp_type with
          | Some ty when specializable ty -> ()
          | expanded ->
            if Option.is_none expanded && wants Poly_compare then
              unresolved := true;
            record Poly_compare f.exp_loc
              (Printf.sprintf
                 "polymorphic %s at type %s drops to the generic runtime \
                  comparison (compare via a monomorphic function)"
                 (Path.last p)
                 (type_to_string a.exp_type))))
      | _ -> ())
    | Texp_ident (p, _, _) when not (Hashtbl.mem cleared e.exp_loc) -> (
      match path_parts p with
      | None -> ()
      | Some parts -> (
        (match classify_hashtbl parts with
        | Some msg -> record Poly_compare e.exp_loc msg
        | None -> (
          match classify_minmax parts with
          | Some msg -> record Poly_compare e.exp_loc msg
          | None ->
            if is_poly_op p then
              record Poly_compare e.exp_loc
                (Printf.sprintf
                   "polymorphic %s passed as a first-class function \
                    (hashes/compares generically at every call)"
                   (Path.last p))));
        (match classify_obj parts with
        | Some msg -> record Obj_magic e.exp_loc msg
        | None -> ());
        (match classify_stdout parts with
        | Some msg ->
          record Direct_stdout e.exp_loc
            (msg ^ " from library code (route through Report or Telemetry)")
        | None -> ());
        (match classify_raw_clock parts with
        | Some msg -> record Raw_clock e.exp_loc msg
        | None -> ());
        (match classify_failwith parts with
        | Some msg -> record Bare_failwith e.exp_loc msg
        | None -> ());
        match classify_partial parts with
        | Some msg ->
          record Partial_call e.exp_loc
            (msg ^ "; match the shape explicitly")
        | None -> ()))
    | Texp_construct (_, cd, _)
      when String.equal cd.Types.cstr_name "Failure"
           && (match Types.get_desc cd.Types.cstr_res with
              | Types.Tconstr (p, _, _) -> Path.same p Predef.path_exn
              | _ -> false) ->
      record Bare_failwith e.exp_loc
        "constructing the stringly Failure exception (raise a typed \
         Spine_error.Error instead)"
    | Texp_try (_, cases) ->
      List.iter
        (fun c ->
          match c.c_lhs.pat_desc with
          | Tpat_any ->
            record Catch_all c.c_lhs.pat_loc
              "catch-all handler swallows every exception, including \
               the ones that signal bugs (match the specific exceptions)"
          | _ -> ())
        cases
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter str;
  (List.rev !found, !unresolved)

(* ------------------------------------------------------------------ *)
(* L12: exports and their uses                                         *)

(* The module types a functor of [sg] returns.  Their members are
   exports; a module type only taken as a parameter states what a
   caller must provide, so nothing has to call its members. *)
let returned_modtypes (sg : Typedtree.signature) =
  let open Typedtree in
  let rec result mty =
    match mty.mty_desc with
    | Tmty_functor (_, r) | Tmty_with (r, _) -> result r
    | Tmty_ident (Path.Pident id, _) -> [ Ident.name id ]
    | _ -> []
  in
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_module { md_type = { mty_desc = Tmty_functor (_, r); _ }; _ } ->
        result r
      | _ -> [])
    sg.sig_items

(* every [val] of an interface, qualified below the unit name: those of
   submodules, functor results and returned module types included *)
let rec sig_exports prefix (sg : Typedtree.signature) =
  let open Typedtree in
  let returned = returned_modtypes sg in
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        [ (prefix ^ vd.val_name.txt, vd.val_val.Types.val_uid, vd.val_loc) ]
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } ->
        mty_exports (prefix ^ m ^ ".") md_type
      | Tsig_modtype { mtd_name = { txt = m; _ }; mtd_type = Some mty; _ }
        when List.mem m returned ->
        mty_exports (prefix ^ m ^ ".") mty
      | _ -> [])
    sg.sig_items

and mty_exports prefix (mty : Typedtree.module_type) =
  match mty.mty_desc with
  | Tmty_signature sg -> sig_exports prefix sg
  | Tmty_functor (_, r) -> mty_exports prefix r
  | _ -> []

let env_of summary =
  match Envaux.env_of_only_summary summary with
  | exception (Envaux.Error _ | Env.Error _ | Persistent_env.Error _) -> None
  | env -> Some env

(* [None] when the module type cannot be expanded to a signature: its
   .cmi is not on the load path *)
let sig_values env mty =
  match Env.scrape_alias env mty with
  | exception Not_found -> None
  | Types.Mty_signature sg ->
    Some
      (List.filter_map
         (function Types.Sig_value (id, vd, _) -> Some (id, vd) | _ -> None)
         sg)
  | Types.Mty_functor _ -> Some []
  | Types.Mty_ident _ | Types.Mty_alias _ -> None

(* A module passed where [target] is expected (a functor argument, a
   packed first-class module) uses each of its values [target] names;
   [None] when either side cannot be expanded. *)
let values_named env ~target arg =
  match (sig_values env target, sig_values env arg) with
  | Some wanted, Some given ->
    let wanted = List.map (fun (id, _) -> Ident.name id) wanted in
    Some
      (List.filter_map
         (fun (id, (vd : Types.value_description)) ->
           if List.mem (Ident.name id) wanted then Some vd.val_uid else None)
         given)
  | _ -> None

(* the uid of every exported value [str] uses, and whether some functor
   argument or packed module could not be expanded (its uses are then
   missing from the list) *)
let collect_uses str =
  let used = ref [] in
  let unresolved = ref false in
  let add = function
    | Some uids -> used := uids @ !used
    | None -> unresolved := true
  in
  let open Typedtree in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> used := vd.Types.val_uid :: !used
    | Texp_letop { let_; ands; _ } ->
      List.iter
        (fun b -> used := b.bop_op_val.Types.val_uid :: !used)
        (let_ :: ands)
    | Texp_pack me -> (
      (* the packed module itself, under the package type's coercion *)
      let rec packed me =
        match me.mod_desc with Tmod_constraint (m, _, _, _) -> packed m | _ -> me
      in
      match (Types.get_desc e.exp_type, env_of e.exp_env) with
      | Types.Tpackage (p, _), Some env ->
        add (values_named env ~target:(Types.Mty_ident p) (packed me).mod_type)
      | Types.Tpackage _, None -> unresolved := true
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_expr sub me =
    (match me.mod_desc with
    | Tmod_apply (f, arg, _) -> (
      match env_of me.mod_env with
      | Some env -> (
        match Env.scrape_alias env f.mod_type with
        | exception Not_found -> unresolved := true
        | Types.Mty_functor (Types.Named (_, target), _) ->
          add (values_named env ~target arg.mod_type)
        | Types.Mty_functor (Types.Unit, _) -> ()
        | _ -> unresolved := true)
      | None -> unresolved := true)
    | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let iter = { Tast_iterator.default_iterator with expr; module_expr } in
  iter.structure iter str;
  (!used, !unresolved)

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                *)

type suppressions = {
  by_line : (int, rule list * string) Hashtbl.t;  (* rules, reason *)
  file_wide : rule list;
}

let no_suppressions = { by_line = Hashtbl.create 1; file_wide = [] }

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let after s i = String.sub s i (String.length s - i)

(* [allow <rules> [-- <reason>]]; the reason is "" when absent *)
let parse_directive line =
  match find_substring line "spine-lint:" with
  | None -> None
  | Some i ->
    let rest =
      let tail = after line (i + 11) in
      match find_substring tail "*)" with
      | Some j -> String.sub tail 0 j
      | None -> tail
    in
    let rest, reason =
      match find_substring rest "--" with
      | Some j -> (String.sub rest 0 j, String.trim (after rest (j + 2)))
      | None -> (rest, "")
    in
    let tokens =
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char ',')
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    (match tokens with
    | directive :: rules
      when directive = "allow" || directive = "allow-file" ->
      Some (directive, List.filter_map rule_of_id rules, reason)
    | _ -> None)

let load_suppressions path =
  match In_channel.open_text path with
  | exception Sys_error _ -> no_suppressions
  | ic ->
    let by_line = Hashtbl.create 8 in
    let file_wide = ref [] in
    let rec go n =
      match In_channel.input_line ic with
      | None -> ()
      | Some line ->
        (match parse_directive line with
        | Some ("allow", rules, reason) ->
          Hashtbl.replace by_line n (rules, reason)
        | Some ("allow-file", rules, _) -> file_wide := rules @ !file_wide
        | _ -> ());
        go (n + 1)
    in
    go 1;
    In_channel.close ic;
    { by_line; file_wide = !file_wide }

(* a finding is waived by a directive on its own line or on the line
   directly above, or by a file-wide directive; [Some reason] when it
   is *)
let waiver sup rule line =
  let on n =
    match Hashtbl.find_opt sup.by_line n with
    | Some (rules, reason) when List.mem rule rules -> Some reason
    | _ -> None
  in
  if List.mem rule sup.file_wide then Some ""
  else match on line with Some r -> Some r | None -> on (line - 1)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)

let walk_cmts ?(suffix = ".cmt") root =
  let out = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun entry ->
          let p = Filename.concat dir entry in
          match Sys.is_directory p with
          | exception Sys_error _ -> ()
          | true -> go p
          | false -> if Filename.check_suffix p suffix then out := p :: !out)
        entries
  in
  go root;
  List.sort String.compare !out

(* The domain-safety roots: the queries of the compiled Engine
   interface (lib/spine/engine.mli; any engine.mli for fixture trees). *)
let engine_roots ~all_paths build_dir =
  List.find_map
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception (Cmt_format.Error _ | Sys_error _ | Failure _) -> None
      | { Cmt_format.cmt_sourcefile = Some src;
          cmt_annots = Cmt_format.Interface sg; _ }
        when (if all_paths then Filename.basename src = "engine.mli"
              else src = "lib/spine/engine.mli") ->
        Some (Domain_safety.query_roots sg)
      | _ -> None)
    (walk_cmts ~suffix:".cmti" build_dir)

let run ?(all_paths = false) ?(demote = []) ?(only = []) ?(except = [])
    ?(domains = false) ~build_dir ~source_root () =
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then
    Stdlib.Error (Printf.sprintf "build dir %S does not exist" build_dir)
  else begin
    let cmts = walk_cmts build_dir in
    let roots =
      if domains then engine_roots ~all_paths build_dir else Some []
    in
    match (cmts, roots) with
    | [], _ ->
      Stdlib.Error
        (Printf.sprintf
           "no .cmt files under %S (build first: dune build @check)"
           build_dir)
    | _, None ->
      Stdlib.Error
        (Printf.sprintf
           "no compiled engine.mli under %S to root the domain-safety \
            pass at (build first: dune build @check)"
           build_dir)
    | _, Some roots -> begin
      let flagged = ref [] and waived = ref [] and scanned = ref 0 in
      let rule_enabled r =
        (only = [] || List.mem r only) && not (List.mem r except)
      in
      (* interprocedural state shared across every scanned file *)
      let ds = Domain_safety.create () in
      (* suppressions are re-consulted after the cross-file fixpoint,
         when the L9 findings materialise *)
      let sups : (string, suppressions) Hashtbl.t = Hashtbl.create 64 in
      (* a module built in several modes leaves several cmts; scan once *)
      let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      let emit ?(severity = Error) sup rule (line, col) file message =
        let severity =
          if List.mem rule demote || default_severity rule = Warning then
            Warning
          else severity
        in
        let f = { rule; severity; file; line; col; message } in
        match waiver sup rule line with
        | None -> flagged := f :: !flagged
        | Some "" -> waived := f :: !waived
        | Some reason ->
          waived := { f with message = message ^ " (waived: " ^ reason ^ ")" }
                    :: !waived
      in
      (* L12: the uid of each lib/ export, and the units using each uid *)
      let l12 = rule_enabled Unused_export in
      let exports = ref [] in
      let users : string list Shape.Uid.Tbl.t = Shape.Uid.Tbl.create 4096 in
      let callers_seen = ref all_paths in
      (* the first unit where a rule could not expand what it judges
         (L12: a functor argument or packed module; L1: the type of a
         comparison) because a load-path directory of the unit exists
         under neither root, with what the rule could not expand *)
      let lost_dir = ref None in
      let under_roots p =
        if Filename.is_relative p then
          [ Filename.concat source_root p; Filename.concat build_dir p ]
        else [ p ]
      in
      let resolves p = List.exists Sys.file_exists (under_roots p) in
      let lose ~what src (cmt : Cmt_format.cmt_infos) =
        if Option.is_none !lost_dir then
          lost_dir :=
            Option.map
              (fun dir -> (what, src, dir))
              (List.find_opt (fun p -> not (resolves p)) cmt.cmt_loadpath)
      in
      List.iter
        (fun cmt_path ->
          match Cmt_format.read_cmt cmt_path with
          | exception (Cmt_format.Error _ | Sys_error _ | Failure _) -> ()
          | cmt -> (
            match cmt.Cmt_format.cmt_sourcefile with
            | None -> ()
            | Some src ->
              let src_on_disk = Filename.concat source_root src in
              let wants r = rule_enabled r && rule_in_scope ~all_paths r src in
              (* L9 summaries come from every library module, even ones
                 no per-file rule applies to *)
              let feeds_summaries =
                domains
                && (all_paths || String.starts_with ~prefix:"lib/" src)
              in
              if
                (List.exists wants all_rules || feeds_summaries || l12)
                && Sys.file_exists src_on_disk
                && not (Hashtbl.mem seen src)
              then begin
                Hashtbl.replace seen src ();
                incr scanned;
                let sup = load_suppressions src_on_disk in
                Hashtbl.replace sups src sup;
                (* L5 is a file-level property, not a tree walk *)
                if wants Missing_mli && Filename.check_suffix src ".ml" then begin
                  let mli =
                    Filename.chop_suffix src_on_disk ".ml" ^ ".mli"
                  in
                  if not (Sys.file_exists mli) then
                    emit sup Missing_mli (1, 0) src
                      (Printf.sprintf
                         "module %s has no .mli interface"
                         (Filename.basename src))
                end;
                match cmt.Cmt_format.cmt_annots with
                | Cmt_format.Implementation str ->
                  (* point cmi resolution at the load path recorded
                     when this module was compiled, so alias expansion
                     in [specializable] and L12's functor arguments
                     can see through .mli types; the entries are
                     relative to where the compiler ran (dune's build
                     context root), which is [source_root] or
                     [build_dir] depending on the invocation, so try
                     both (a missing directory is skipped) *)
                  Load_path.init ~auto_include:Load_path.no_auto_include
                    (List.concat_map under_roots cmt.Cmt_format.cmt_loadpath);
                  Envaux.reset_cache ();
                  if l12 then begin
                    let unit = Filename.remove_extension src in
                    if not (String.starts_with ~prefix:"lib/" src) then
                      callers_seen := true;
                    let uses, unresolved = collect_uses str in
                    (* uses hidden behind a load path that resolves
                       under neither root would read as unused exports *)
                    if unresolved then
                      lose src cmt
                        ~what:
                          "unused-export cannot expand a functor argument \
                           or packed module";
                    List.iter
                      (fun uid ->
                        let us =
                          Option.value ~default:[]
                            (Shape.Uid.Tbl.find_opt users uid)
                        in
                        if not (List.mem unit us) then
                          Shape.Uid.Tbl.replace users uid (unit :: us))
                      uses
                  end;
                  let raws, unresolved = collect_structure ~wants str in
                  (* a comparison type hidden behind such a load path
                     would read as polymorphic *)
                  if unresolved then
                    lose src cmt
                      ~what:"poly-compare cannot expand the type of a comparison";
                  List.iter
                    (fun { r_rule; r_loc; r_msg } ->
                      let pos = r_loc.Location.loc_start in
                      emit sup r_rule
                        ( pos.Lexing.pos_lnum,
                          pos.Lexing.pos_cnum - pos.Lexing.pos_bol )
                        src r_msg)
                    raws;
                  if
                    feeds_summaries || wants Global_mutable
                    || wants Unguarded_unsafe
                  then begin
                    let l10, l11 =
                      Domain_safety.scan_file ds ~source:src str
                    in
                    if wants Global_mutable then
                      List.iter
                        (fun (s : Domain_safety.site) ->
                          emit sup Global_mutable (s.st_line, s.st_col)
                            src s.st_msg)
                        l10;
                    if wants Unguarded_unsafe then
                      List.iter
                        (fun (s : Domain_safety.site) ->
                          emit sup Unguarded_unsafe (s.st_line, s.st_col)
                            src s.st_msg)
                        l11
                  end
                | _ -> ()
              end))
        cmts;
      if l12 then
        List.iter
          (fun cmti_path ->
            match Cmt_format.read_cmt cmti_path with
            | exception (Cmt_format.Error _ | Sys_error _ | Failure _) -> ()
            | { Cmt_format.cmt_sourcefile = Some src;
                cmt_annots = Cmt_format.Interface sg; _ }
              when rule_in_scope ~all_paths Unused_export src
                   && not (Hashtbl.mem seen src) ->
              Hashtbl.replace seen src ();
              let unit =
                String.capitalize_ascii
                  (Filename.basename (Filename.remove_extension src))
              in
              exports := (src, sig_exports (unit ^ ".") sg) :: !exports
            | _ -> ())
          (walk_cmts ~suffix:".cmti" build_dir);
      (* an export is judged only against a scan that holds callers: a
         lone library directory has none to show *)
      let is_test u =
        if all_paths then
          String.starts_with ~prefix:"test_" (Filename.basename u)
        else String.starts_with ~prefix:"test/" u
      in
      if !callers_seen then
        List.iter
          (fun (src, decls) ->
            let unit = Filename.remove_extension src in
            let sup = load_suppressions (Filename.concat source_root src) in
            List.iter
              (fun (name, uid, (loc : Location.t)) ->
                let others =
                  List.filter (fun u -> u <> unit)
                    (Option.value ~default:[]
                       (Shape.Uid.Tbl.find_opt users uid))
                in
                let pos = loc.loc_start in
                let at = (pos.pos_lnum, pos.pos_cnum - pos.pos_bol) in
                if others = [] then
                  emit sup Unused_export at src
                    (Printf.sprintf "%s is exported but no other unit uses it"
                       name)
                else if List.for_all is_test others then
                  emit ~severity:Warning sup Unused_export at src
                    (Printf.sprintf "%s is used only from tests (test-only)"
                       name))
              decls)
          !exports;
      (* the cross-file fixpoint: L9 findings and the certification
         table for every module exposing query-surface roots *)
      let certification =
        if not domains then []
        else begin
          let roots_in f =
            all_paths || String.starts_with ~prefix:"lib/spine/" f
          in
          let l9s, rows = Domain_safety.finalize ds ~roots_in ~roots in
          if rule_enabled Shared_mutation then
            List.iter
              (fun (f : Domain_safety.l9) ->
                let sup =
                  Option.value ~default:no_suppressions
                    (Hashtbl.find_opt sups f.l9_file)
                in
                emit sup Shared_mutation (f.l9_line, f.l9_col) f.l9_file
                  f.l9_msg)
              l9s;
          rows
        end
      in
      let order a b =
        match String.compare a.file b.file with
        | 0 -> (
          match compare a.line b.line with
          | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
          | c -> c)
        | c -> c
      in
      match !lost_dir with
      | Some (what, src, dir) ->
        (* an environmental failure, not a verdict: no finding stands *)
        Stdlib.Error
          (Printf.sprintf
             "%s in %s: its load path directory %S exists under neither \
              --source-root %S nor --build-dir %S (point them at the \
              directory the compiler ran in, e.g. _build/default)"
             what src dir source_root build_dir)
      | None ->
        Stdlib.Ok
          {
            findings = List.sort order !flagged;
            suppressed = List.sort order !waived;
            files_scanned = !scanned;
            certification;
          }
    end
  end

(* ------------------------------------------------------------------ *)
(* Exporters (formatting only; printing is the caller's business)      *)

let jsonl findings =
  List.map
    (fun f ->
      Printf.sprintf
        "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
        (rule_id f.rule) (severity_id f.severity) (Xutil.Json.escape f.file)
        f.line f.col (Xutil.Json.escape f.message))
    findings

let table_rows findings =
  List.map
    (fun f ->
      [ rule_id f.rule; severity_id f.severity;
        Printf.sprintf "%s:%d:%d" f.file f.line f.col; f.message ])
    findings

let cert_table_rows rows =
  List.map
    (fun (r : Domain_safety.cert_row) ->
      [ r.cm_module; r.cm_verdict; r.cm_witness ])
    rows

let cert_jsonl rows =
  List.map
    (fun (r : Domain_safety.cert_row) ->
      Printf.sprintf
        "{\"module\":\"%s\",\"verdict\":\"%s\",\"witness\":\"%s\"}"
        (Xutil.Json.escape r.cm_module) (Xutil.Json.escape r.cm_verdict)
        (Xutil.Json.escape r.cm_witness))
    rows
