(* Interprocedural domain-safety analysis over the same .cmt typed
   ASTs the per-file rules walk.  Three questions are answered:

   - L10 (global-mutable): which module-level values have a mutable
     type and no guard?  A module-level [ref]/[Hashtbl.t]/[Bytes.t] is
     shared by every domain that touches the module, whether or not
     any current code path writes it.
   - L11 (unguarded-unsafe): which functions reach for
     [Array.unsafe_*]/[Bytes.unsafe_*] outside a module that declared
     itself a checked boundary with [@@@spine.checked_boundary]?
   - L9 (shared-mutation): starting from the read operations of the
     engine's query surface, does any reachable function write state
     that outlives the call — a module-level value, a field of the
     (potentially shared) store argument, or state behind a stored
     closure?  Writes under a [Mutex], through [Atomic] or through
     [Domain.DLS] are absorbed; so are functions annotated
     [@spine.domain_safe "reason"].

   The unit of summary is the structure-level function (including
   functions inside functor bodies).  Locally let-bound lambdas are
   walked inline where they are defined, so a closure handed to a
   same-file lock-runner (a function that itself takes a [Mutex]) has
   its writes absorbed at the hand-off site.

   Known approximations, chosen to keep the analysis quiet rather
   than complete (each is documented in docs/STATIC_ANALYSIS.md):
   function results are treated as freshly allocated; calls through
   module paths that resolve to nothing we scanned are assumed pure;
   calls through functor parameters devirtualise by basename over
   every scanned summary; a query root invoking a caller-supplied
   callback is the caller's responsibility. *)

(* ------------------------------------------------------------------ *)
(* Paths and attributes                                                *)

let path_parts p =
  let rec go p acc =
    match p with
    | Path.Pident id -> Some (Ident.name id :: acc)
    | Path.Pdot (q, s) -> go q (s :: acc)
    | _ -> None
  in
  go p []

let path_head p =
  let rec go = function
    | Path.Pident id -> Some id
    | Path.Pdot (q, _) -> go q
    | _ -> None
  in
  go p

(* dune name-mangles wrapped-library modules as [Lib__Mod]; the part
   after the last [__] is the name the source spells *)
let demangle s =
  match String.rindex_opt s '_' with
  | Some i when i > 0 && s.[i - 1] = '_' ->
    String.sub s (i + 1) (String.length s - i - 1)
  | _ -> s

let normalize parts =
  let parts = List.map demangle parts in
  match parts with "Stdlib" :: rest when rest <> [] -> rest | _ -> parts

(* last module component and value name: ["Stdlib";"Bigarray";"Array1";
   "set"] becomes [("Array1","set")]; a bare operator has no module *)
let mod_and_name parts =
  match List.rev (normalize parts) with
  | [ name ] -> ("", name)
  | name :: m :: _ -> (m, name)
  | [] -> ("", "")

let attr_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [ {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        } ] ->
    Some s
  | _ -> None

let find_attr name attrs =
  List.find_opt
    (fun a -> String.equal a.Parsetree.attr_name.Location.txt name)
    attrs

let domain_safe_attr attrs =
  match find_attr "spine.domain_safe" attrs with
  | Some a -> Some (Option.value ~default:"" (attr_string a))
  | None -> None

(* ------------------------------------------------------------------ *)
(* Type-level mutability                                               *)

type mutability =
  | Immutable
  | Mutable of string  (** why: the mutable constituent *)
  | Guarded of string  (** safely shareable: Atomic/Mutex/DLS *)
  | Unknown            (** abstract; not judged *)

(* tables from the stdlib plus the repo's own mutable abstract types
   (their .mli hides the representation from [Ctype.expand_head]) *)
let known_mutable = function
  | "Hashtbl", "t" -> Some "hash table"
  | "Buffer", "t" -> Some "buffer"
  | "Queue", "t" -> Some "queue"
  | "Stack", "t" -> Some "stack"
  | ("Array1" | "Array2" | "Genarray"), "t" -> Some "bigarray"
  | "Int_tbl", "t" -> Some "hash table (Xutil.Int_tbl)"
  | "Int_vec", "t" -> Some "growable array (Xutil.Int_vec)"
  | "Packed_seq", "t" -> Some "growable sequence (Bioseq.Packed_seq)"
  | _ -> None

let known_guarded = function
  | "Atomic", "t" -> Some "Atomic.t"
  | "Mutex", "t" -> Some "Mutex.t"
  | "Semaphore", _ -> Some "Semaphore"
  | "Condition", "t" -> Some "Condition.t"
  | "DLS", "key" -> Some "Domain.DLS.key"
  | _ -> None

let expand_type env ty =
  match Envaux.env_of_only_summary env with
  | exception Envaux.Error _ -> ty
  | exception Env.Error _ -> ty
  | exception Persistent_env.Error _ -> ty
  | env -> (
    match Ctype.expand_head env ty with
    | ty' -> ty'
    | exception Ctype.Cannot_expand -> ty
    | exception Ctype.Escape _ -> ty
    | exception Env.Error _ -> ty
    | exception Persistent_env.Error _ -> ty)

let join a b =
  match (a, b) with
  | Mutable _, _ -> a
  | _, Mutable _ -> b
  | Unknown, _ -> a
  | _, Unknown -> b
  | Guarded _, _ -> a
  | _, Guarded _ -> b
  | Immutable, Immutable -> Immutable

let immutable_predefs =
  [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit;
    Predef.path_string; Predef.path_float; Predef.path_int32;
    Predef.path_int64; Predef.path_nativeint; Predef.path_exn ]

let rec classify ~depth ~visited env ty =
  if depth > 4 then Unknown
  else
    let ty = expand_type env ty in
    match Types.get_desc ty with
    | Types.Tarrow _ -> Immutable (* closures are not judged here *)
    | Types.Ttuple tys -> classify_list ~depth ~visited env tys
    | Types.Tconstr (p, args, _) -> (
      if Path.same p Predef.path_array then Mutable "array"
      else if Path.same p Predef.path_bytes then Mutable "bytes"
      else if Path.same p Predef.path_lazy_t then Mutable "lazy thunk"
      else if List.exists (Path.same p) immutable_predefs then Immutable
      else if
        Path.same p Predef.path_list || Path.same p Predef.path_option
      then classify_list ~depth ~visited env args
      else
        match path_parts p with
        | None -> Unknown
        | Some parts -> (
          let mn = mod_and_name parts in
          match (fst mn, snd mn) with
          | _, "ref" | "ref", _ -> Mutable "ref cell"
          | _ -> (
            match known_mutable mn with
            | Some why -> Mutable why
            | None -> (
              match known_guarded mn with
              | Some why -> Guarded why
              | None ->
                let key = Path.name p in
                if List.mem key visited then Immutable
                else
                  let visited = key :: visited in
                  classify_decl ~depth ~visited env p args))))
    | Types.Tvar _ | Types.Tunivar _ -> Unknown
    | _ -> Unknown

and classify_list ~depth ~visited env tys =
  List.fold_left
    (fun acc ty -> join acc (classify ~depth:(depth + 1) ~visited env ty))
    Immutable tys

(* look through the declaration: a record with a [mutable] label is
   the canonical shared-state carrier *)
and classify_decl ~depth ~visited env p args =
  match Envaux.env_of_only_summary env with
  | exception _ -> Unknown
  | env -> (
    match Env.find_type p env with
    | exception _ -> Unknown
    | decl -> (
      match decl.Types.type_kind with
      | Types.Type_record (labels, _) ->
        let mut =
          List.find_opt
            (fun l -> l.Types.ld_mutable = Asttypes.Mutable)
            labels
        in
        (match mut with
        | Some l ->
          Mutable
            (Printf.sprintf "record with mutable field %s"
               (Ident.name l.Types.ld_id))
        | None ->
          classify_list ~depth ~visited env
            (List.map (fun l -> l.Types.ld_type) labels))
      | Types.Type_variant (cstrs, _) ->
        List.fold_left
          (fun acc c ->
            match c.Types.cd_args with
            | Types.Cstr_tuple tys ->
              join acc (classify_list ~depth ~visited env tys)
            | Types.Cstr_record lbls ->
              if
                List.exists
                  (fun l -> l.Types.ld_mutable = Asttypes.Mutable)
                  lbls
              then Mutable "constructor with mutable field"
              else
                join acc
                  (classify_list ~depth ~visited env
                     (List.map (fun l -> l.Types.ld_type) lbls)))
          Immutable cstrs
      | Types.Type_abstract -> (
        (* alias? expand through the manifest if there is one *)
        match decl.Types.type_manifest with
        | Some ty -> classify ~depth:(depth + 1) ~visited env ty
        | None -> Unknown)
      | Types.Type_open -> Unknown
      | exception _ -> ignore args; Unknown))

let classify_type env ty = classify ~depth:0 ~visited:[] env ty

(* ------------------------------------------------------------------ *)
(* Value roots and effects                                             *)

type root =
  | Rlocal             (** allocated in this call; cannot be shared *)
  | Rparam of int      (** the n-th argument of the enclosing summary *)
  | Rglobal of string  (** a module-level value *)
  | Ropaque            (** provenance the analyzer cannot classify *)

type frame = { fr_fn : string; fr_file : string; fr_line : int }

type eff =
  | Eglobal of { path : string; desc : string; chain : frame list }
  | Eparam of { index : int; desc : string; chain : frame list }
  | Eopaque of { desc : string; chain : frame list }
  | Ecallsparam of { index : int; chain : frame list }

let eff_chain = function
  | Eglobal e -> e.chain
  | Eparam e -> e.chain
  | Eopaque e -> e.chain
  | Ecallsparam e -> e.chain

(* dedup key: site + what is written, ignoring the witness chain so
   the fixpoint terminates on cyclic call graphs *)
let eff_key e =
  let site =
    match List.rev (eff_chain e) with
    | { fr_file; fr_line; _ } :: _ -> Printf.sprintf "%s:%d" fr_file fr_line
    | [] -> ""
  in
  match e with
  | Eglobal { path; _ } -> "g:" ^ path ^ "@" ^ site
  | Eparam { index; _ } -> Printf.sprintf "p:%d@%s" index site
  | Eopaque _ -> "o:" ^ site
  | Ecallsparam { index; _ } -> Printf.sprintf "c:%d@%s" index site

type callee =
  | Exact of string * string  (** (module, name) global path *)
  | By_name of string         (** functor parameter / local alias *)

type call = {
  cl_callee : callee;
  cl_args : root array;
  cl_nargs : int;  (* syntactic args at the site, for By_name arity filtering *)
  cl_frame : frame;
}

type summary = {
  s_file_mod : string;   (* module named after the source file *)
  s_mod : string;        (* innermost enclosing module *)
  s_name : string;
  s_file : string;
  s_line : int;
  s_nparams : int;       (* syntactic (curried) parameter count *)
  s_own : eff list;
  s_calls : call list;
  s_annotated : string option;  (* [@spine.domain_safe] reason *)
  s_self_locks : bool;          (* body takes a Mutex directly *)
  s_own_notes : string list;    (* guard absorptions seen in the body *)
  (* fixpoint state *)
  mutable s_esc : eff list;
  mutable s_notes : string list;
}

type site = { st_line : int; st_col : int; st_msg : string }

type t = {
  mutable summaries : summary list;
  by_name : (string, summary list ref) Hashtbl.t;
}

let create () = { summaries = []; by_name = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Known externals                                                     *)

(* stdlib calls that mutate an argument in place: (module, fn) ->
   indices of the mutated positional arguments *)
let external_mutators = function
  | ( "Hashtbl",
      ( "add" | "replace" | "remove" | "reset" | "clear"
      | "filter_map_inplace" ) ) ->
    Some [ 0 ]
  | ( "Int_tbl",
      ( "add" | "replace" | "remove" | "reset" | "clear"
      | "filter_map_inplace" ) ) ->
    Some [ 0 ] (* Hashtbl.Make instance: same surface *)
  | "Array", ("set" | "unsafe_set" | "fill") -> Some [ 0 ]
  | "Array", ("sort" | "fast_sort" | "stable_sort") -> Some [ 1 ]
  | "Array", "blit" -> Some [ 2 ]
  | "Bytes", ("set" | "unsafe_set" | "fill" | "unsafe_fill") -> Some [ 0 ]
  | "Bytes", ("blit" | "blit_string" | "unsafe_blit") -> Some [ 2 ]
  | ( "Buffer",
      ( "add_char" | "add_string" | "add_bytes" | "add_substring"
      | "add_subbytes" | "add_buffer" | "clear" | "reset" | "truncate" ) )
    ->
    Some [ 0 ]
  | "Queue", ("push" | "add" | "pop" | "take" | "clear") -> Some [ 0 ]
  | "Queue", "transfer" -> Some [ 0; 1 ]
  | "Stack", "push" -> Some [ 1 ]
  | "Stack", ("pop" | "clear") -> Some [ 0 ]
  | "Array1", ("set" | "unsafe_set" | "fill") -> Some [ 0 ]
  | "Array1", "blit" -> Some [ 1 ]
  | "", (":=" | "incr" | "decr") -> Some [ 0 ]
  | _ -> None

(* modules whose operations are domain-safe by construction *)
let external_guarded = function
  | ("Atomic" | "DLS" | "Domain"), _ -> true
  | "Mutex", "unlock" -> true
  | _ -> false

let is_unsafe_access (m, name) =
  (match m with
  | "Array" | "Bytes" | "String" | "Array1" | "Array2" | "Genarray" ->
    true
  | _ -> false)
  && String.length name > 7
  && String.sub name 0 7 = "unsafe_"

(* stdlib/external module names we never try to resolve to scanned
   summaries: anything else with a global head falls through to Exact *)

(* ------------------------------------------------------------------ *)
(* Per-function walk                                                   *)

type wstate = {
  t : t;
  file : string;
  file_mod : string;
  (* idents of module-level values of this file -> dotted path *)
  file_globals : (string, string) Hashtbl.t;
  (* idents of same-file functions that take a Mutex in their body *)
  lock_runners : (string, unit) Hashtbl.t;
  (* same-file summary names, for Pident call resolution *)
  local_fns : (string, string) Hashtbl.t;  (* unique_name -> fn name *)
  renv : (string, root) Hashtbl.t;
  mutable guard_depth : int;
  mutable own : eff list;
  mutable calls : call list;
  mutable notes : string list;
  mutable self_locks : bool;
  mutable l11 : site list;
  cur_fn : string;
}

let note st n = if not (List.mem n st.notes) then st.notes <- n :: st.notes

let frame_of st (loc : Location.t) =
  {
    fr_fn = st.file_mod ^ "." ^ st.cur_fn;
    fr_file = st.file;
    fr_line = loc.Location.loc_start.Lexing.pos_lnum;
  }

let record_eff st loc mk =
  if st.guard_depth > 0 then note st "mutex-guarded write absorbed"
  else st.own <- mk (frame_of st loc) :: st.own

let record_site lst (loc : Location.t) msg =
  let pos = loc.Location.loc_start in
  { st_line = pos.Lexing.pos_lnum;
    st_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    st_msg = msg }
  :: lst

let lookup_root st id =
  let key = Ident.unique_name id in
  match Hashtbl.find_opt st.renv key with
  | Some r -> r
  | None -> (
    match Hashtbl.find_opt st.file_globals key with
    | Some path -> Rglobal path
    | None ->
      if Ident.global id then Rglobal (Ident.name id) else Rlocal)

let rank = function
  | Ropaque -> 3
  | Rglobal _ -> 2
  | Rparam _ -> 1
  | Rlocal -> 0

let worse a b = if rank a >= rank b then a else b

let head_ident e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

let rec root_of st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> lookup_root st id
  | Texp_ident (p, _, _) -> (
    match path_parts p with
    | Some parts -> Rglobal (String.concat "." (normalize parts))
    | None -> Ropaque)
  | Texp_field (e1, _, _) -> root_of st e1
  | Texp_apply (f, [ (_, Some a) ])
    when (match head_ident f with
         | Some p -> (
           match path_parts p with
           | Some parts -> mod_and_name parts = ("", "!")
           | None -> false)
         | None -> false) ->
    root_of st a (* !r aliases r's referent *)
  | Texp_apply _ -> Rlocal (* results treated as fresh (documented) *)
  | Texp_let (_, _, body) | Texp_sequence (_, body) -> root_of st body
  | Texp_ifthenelse (_, e1, Some e2) ->
    worse (root_of st e1) (root_of st e2)
  | _ -> Rlocal

let bind_pattern_vars st pat r =
  if r <> Rlocal then
    List.iter
      (fun id -> Hashtbl.replace st.renv (Ident.unique_name id) r)
      (Typedtree.pat_bound_idents pat)

let describe_root = function
  | Rglobal p -> "module-level value " ^ p
  | Rparam i -> Printf.sprintf "argument %d" i
  | Ropaque -> "a value of unknown provenance"
  | Rlocal -> "a local value"

let effect_for st loc desc r =
  match r with
  | Rlocal -> ()
  | Rparam index ->
    record_eff st loc (fun fr -> Eparam { index; desc; chain = [ fr ] })
  | Rglobal path ->
    record_eff st loc (fun fr -> Eglobal { path; desc; chain = [ fr ] })
  | Ropaque ->
    record_eff st loc (fun fr -> Eopaque { desc; chain = [ fr ] })

let rec walk st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match domain_safe_attr vb.vb_attributes with
        | Some reason ->
          note st
            (Printf.sprintf "[@spine.domain_safe %S] on a local binding"
               reason);
          st.guard_depth <- st.guard_depth + 1;
          walk st vb.vb_expr;
          st.guard_depth <- st.guard_depth - 1
        | None ->
          bind_pattern_vars st vb.vb_pat (root_of st vb.vb_expr);
          walk st vb.vb_expr)
      vbs;
    walk st body
  | Texp_match (scrut, cases, _) ->
    walk st scrut;
    let r = root_of st scrut in
    List.iter
      (fun (c : Typedtree.computation Typedtree.case) ->
        bind_pattern_vars st c.c_lhs r;
        Option.iter (walk st) c.c_guard;
        walk st c.c_rhs)
      cases
  | Texp_setfield (obj, _, lbl, v) ->
    effect_for st e.exp_loc
      (Printf.sprintf "assignment to mutable field %s of %s"
         lbl.Types.lbl_name
         (describe_root (root_of st obj)))
      (root_of st obj);
    walk st obj;
    walk st v
  | Texp_apply (f, args) -> walk_apply st e f args
  | _ -> default_walk st e

and default_walk st e =
  let sub =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ e -> walk st e);
    }
  in
  Tast_iterator.default_iterator.expr sub e

and walk_args st args =
  List.iter (fun (_, a) -> Option.iter (walk st) a) args

and walk_apply st e f args =
  match head_ident f with
  | None -> (
    match f.exp_desc with
    | Texp_apply (g, inner) ->
      (* [x |> f] and [f @@ x] are desugared by the typechecker into a
         nested application whose head is the partial [f a1 .. ak];
         collapse so the real callee stays visible *)
      walk_apply st e g (inner @ args)
    | _ ->
      (* calling a computed function value: a hook stored in reachable
         state may close over anything *)
      effect_for st e.exp_loc "call through a stored function value"
        Ropaque;
      walk st f;
      walk_args st args)
  | Some p -> (
    let parts = Option.value ~default:[] (path_parts p) in
    let mn = mod_and_name parts in
    let head_global =
      match path_head p with Some id -> Ident.global id | None -> false
    in
    let head_key =
      match path_head p with
      | Some id -> Ident.unique_name id
      | None -> ""
    in
    (* same-file higher-order lock-runner, or Mutex.protect: the
       closure argument runs under the lock *)
    let is_lock_runner =
      mn = ("Mutex", "protect")
      || (match p with
         | Path.Pident _ -> Hashtbl.mem st.lock_runners head_key
         | _ -> false)
    in
    if is_lock_runner then begin
      note st "mutex-guarded region";
      st.guard_depth <- st.guard_depth + 1;
      walk_args st args;
      st.guard_depth <- st.guard_depth - 1
    end
    else if mn = ("Mutex", "lock") then begin
      st.self_locks <- true;
      walk_args st args
    end
    else begin
      if is_unsafe_access mn then
        st.l11 <-
          record_site st.l11 e.exp_loc
            (Printf.sprintf
               "%s.%s bypasses bounds checks outside a checked boundary \
                (mark the module [@@@spine.checked_boundary \"reason\"] \
                after auditing, or use the checked accessor)"
               (fst mn) (snd mn));
      (match external_mutators mn with
      | Some targets ->
        let vargs =
          List.filter_map (fun (_, a) -> a) args |> Array.of_list
        in
        List.iter
          (fun i ->
            if i < Array.length vargs then begin
              let tgt = vargs.(i) in
              effect_for st e.exp_loc
                (Printf.sprintf "%s on %s"
                   (if fst mn = "" then snd mn
                    else fst mn ^ "." ^ snd mn)
                   (describe_root (root_of st tgt)))
                (root_of st tgt)
            end)
          targets
      | None ->
        if external_guarded mn then
          (* Atomic/DLS traffic is the sanctioned way to share *)
          ()
        else begin
          (* a call to resolve during the fixpoint *)
          let vargs =
            List.filter_map (fun (_, a) -> a)
              args
            |> List.map (root_of st)
            |> Array.of_list
          in
          let record callee =
            if st.guard_depth > 0 then
              note st "mutex-guarded call absorbed"
            else
              st.calls <-
                {
                  cl_callee = callee;
                  cl_args = vargs;
                  cl_nargs = Array.length vargs;
                  cl_frame = frame_of st e.exp_loc;
                }
                :: st.calls
          in
          match p with
          | Path.Pident id -> (
            match Hashtbl.find_opt st.local_fns head_key with
            | Some fn_name -> record (Exact (st.file_mod, fn_name))
            | None -> (
              (* a let-bound closure or a parameter *)
              match lookup_root st id with
              | Rparam i ->
                if st.guard_depth = 0 then
                  st.own <-
                    Ecallsparam
                      { index = i; chain = [ frame_of st e.exp_loc ] }
                    :: st.own
              | Rlocal -> () (* effects attributed at its definition *)
              | Rglobal _ | Ropaque ->
                (* invoking a shared closure reads it; the closure's
                   own writes were attributed where it was defined *)
                ()))
          | _ ->
            if head_global then record (Exact (fst mn, snd mn))
            else record (By_name (snd mn))
        end);
      walk st f;
      walk_args st args
    end)

(* ------------------------------------------------------------------ *)
(* Structure traversal                                                 *)

let structure_of_modexpr me =
  let rec go (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> Some s
    | Tmod_functor (_, body) -> go body
    | Tmod_constraint (m, _, _, _) -> go m
    | _ -> None
  in
  go me

let binding_name (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some id
  | _ -> None

let is_function (vb : Typedtree.value_binding) =
  match vb.vb_expr.exp_desc with
  | Typedtree.Texp_function _ -> true
  | _ -> false

(* does this expression apply Mutex.lock/Mutex.protect anywhere? *)
let takes_mutex body =
  let found = ref false in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_apply (f, _) -> (
      match head_ident f with
      | Some p -> (
        match path_parts p with
        | Some parts -> (
          match mod_and_name parts with
          | "Mutex", ("lock" | "protect") -> found := true
          | _ -> ())
        | None -> ())
      | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter body;
  !found

(* syntactic parameter count of the curried [fun p0 -> fun p1 -> ...]
   spine (mirrors [peel_params]'s recursion) *)
let rec count_params (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> 1 + count_params c.c_rhs
  | Texp_function _ -> 1
  | _ -> 0

(* peel the curried [fun p0 -> fun p1 -> ...] spine, binding each
   parameter (and the variables its pattern destructures) to its
   index; returns the bodies to walk *)
let rec peel_params st idx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { param; cases; _ } -> (
    Hashtbl.replace st.renv (Ident.unique_name param) (Rparam idx);
    List.iter
      (fun (c : Typedtree.value Typedtree.case) ->
        List.iter
          (fun id ->
            Hashtbl.replace st.renv (Ident.unique_name id) (Rparam idx))
          (Typedtree.pat_bound_idents c.c_lhs))
      cases;
    match cases with
    | [ c ] -> peel_params st (idx + 1) c.c_rhs
    | _ -> List.map (fun c -> c.Typedtree.c_rhs) cases)
  | _ -> [ e ]

let register_module_binding t s =
  let r =
    match Hashtbl.find_opt t.by_name s.s_name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.by_name s.s_name r;
      r
  in
  r := s :: !r;
  t.summaries <- s :: t.summaries

type scan_out = { mutable o_l10 : site list; mutable o_l11 : site list }

let scan_file t ~source str =
  let file_mod =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename source))
  in
  let file_globals = Hashtbl.create 16 in
  let lock_runners = Hashtbl.create 4 in
  let local_fns = Hashtbl.create 16 in
  let out = { o_l10 = []; o_l11 = [] } in
  (* sweep 1: register every structure-level ident (values keep their
     dotted path for root classification; functions become call
     targets; Mutex-taking functions become lock-runners) *)
  let rec sweep1 mod_name (s : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_name vb with
              | None -> ()
              | Some id ->
                let key = Ident.unique_name id in
                if is_function vb then begin
                  Hashtbl.replace local_fns key (Ident.name id);
                  if takes_mutex vb.Typedtree.vb_expr then
                    Hashtbl.replace lock_runners key ()
                end
                else
                  Hashtbl.replace file_globals key
                    (mod_name ^ "." ^ Ident.name id))
            vbs
        | Tstr_module mb -> (
          match structure_of_modexpr mb.mb_expr with
          | Some s ->
            let name =
              match mb.mb_id with
              | Some id -> Ident.name id
              | None -> mod_name
            in
            sweep1 name s
          | None -> ())
        | Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) ->
              match structure_of_modexpr mb.mb_expr with
              | Some s ->
                let name =
                  match mb.mb_id with
                  | Some id -> Ident.name id
                  | None -> mod_name
                in
                sweep1 name s
              | None -> ())
            mbs
        | _ -> ())
      s.str_items
  in
  sweep1 file_mod str;
  (* sweep 2: summaries for functions, L10 for module-level values,
     L11 sites from every body *)
  let boundary = ref None in
  let rec sweep2 mod_name (s : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_attribute a
          when String.equal a.Parsetree.attr_name.Location.txt
                 "spine.checked_boundary" ->
          boundary := Some (Option.value ~default:"" (attr_string a))
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match binding_name vb with
              | None -> ()
              | Some id ->
                let annotated = domain_safe_attr vb.vb_attributes in
                if is_function vb then begin
                  let st =
                    {
                      t;
                      file = source;
                      file_mod;
                      file_globals;
                      lock_runners;
                      local_fns;
                      renv = Hashtbl.create 32;
                      guard_depth = 0;
                      own = [];
                      calls = [];
                      notes = [];
                      self_locks =
                        Hashtbl.mem lock_runners (Ident.unique_name id);
                      l11 = [];
                      cur_fn = Ident.name id;
                    }
                  in
                  let bodies = peel_params st 0 vb.vb_expr in
                  List.iter (walk st) bodies;
                  out.o_l11 <- st.l11 @ out.o_l11;
                  let line =
                    vb.vb_loc.Location.loc_start.Lexing.pos_lnum
                  in
                  register_module_binding t
                    {
                      s_file_mod = file_mod;
                      s_mod = mod_name;
                      s_name = Ident.name id;
                      s_file = source;
                      s_line = line;
                      s_nparams = count_params vb.vb_expr;
                      s_own = st.own;
                      s_calls = st.calls;
                      s_annotated = annotated;
                      s_self_locks = st.self_locks;
                      s_own_notes = st.notes;
                      s_esc = [];
                      s_notes = [];
                    }
                end
                else begin
                  (* module-level value: L10 judgement *)
                  let env = vb.vb_expr.exp_env in
                  match classify_type env vb.vb_pat.pat_type with
                  | Mutable why when annotated = None ->
                    out.o_l10 <-
                      record_site out.o_l10 vb.vb_loc
                        (Printf.sprintf
                           "module-level mutable value %s.%s (%s) is \
                            shared by every domain that touches this \
                            module (guard it with Mutex/Atomic, move \
                            it into Domain.DLS, or annotate it \
                            [@spine.domain_safe \"reason\"])"
                           mod_name (Ident.name id) why)
                  | _ -> ()
                end)
            vbs
        | Tstr_module mb -> (
          match structure_of_modexpr mb.mb_expr with
          | Some s ->
            let name =
              match mb.mb_id with
              | Some id -> Ident.name id
              | None -> mod_name
            in
            sweep2 name s
          | None -> ())
        | Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) ->
              match structure_of_modexpr mb.mb_expr with
              | Some s ->
                let name =
                  match mb.mb_id with
                  | Some id -> Ident.name id
                  | None -> mod_name
                in
                sweep2 name s
              | None -> ())
            mbs
        | _ -> ())
      s.str_items
  in
  sweep2 file_mod str;
  (* a declared checked boundary waives L11 for the whole file *)
  let l11 = if !boundary = None then out.o_l11 else [] in
  (List.rev out.o_l10, List.rev l11)

(* ------------------------------------------------------------------ *)
(* Fixpoint over the call graph                                        *)

(* The query surface of an engine interface: every value whose first
   parameter is the interface's own [t]. *)
let query_roots (sg : Typedtree.signature) =
  List.filter_map
    (fun item ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd -> (
        match Types.get_desc vd.Typedtree.val_val.Types.val_type with
        | Types.Tarrow (_, arg, _, _) -> (
          match Types.get_desc arg with
          | Types.Tconstr (Path.Pident id, [], _) when Ident.name id = "t" ->
            Some (Ident.name vd.Typedtree.val_id)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    sg.Typedtree.sig_items

let resolve t c =
  match c.cl_callee with
  | Exact (m, name) ->
    (match Hashtbl.find_opt t.by_name name with
    | None -> []
    | Some r ->
      List.filter (fun s -> s.s_mod = m || s.s_file_mod = m) !r)
  | By_name name -> (
    (* devirtualisation by basename over-approximates badly when two
       unrelated functions share a name (e.g. every [create]); the
       syntactic-arity filter keeps only candidates a fully-applied
       call site could actually mean *)
    match Hashtbl.find_opt t.by_name name with
    | None -> []
    | Some r -> List.filter (fun s -> s.s_nparams = c.cl_nargs) !r)

let push_frame fr e =
  let cap l = if List.length l >= 8 then l else fr :: l in
  match e with
  | Eglobal x -> Eglobal { x with chain = cap x.chain }
  | Eparam x -> Eparam { x with chain = cap x.chain }
  | Eopaque x -> Eopaque { x with chain = cap x.chain }
  | Ecallsparam x -> Ecallsparam { x with chain = cap x.chain }

(* map a callee-relative effect through the argument roots at one call
   site; [None] means the effect dies here (hit a local) *)
let remap args fr e =
  let arg i = if i < Array.length args then Some args.(i) else None in
  match e with
  | Eglobal _ | Eopaque _ -> Some (push_frame fr e)
  | Eparam ({ index; _ } as x) -> (
    match arg index with
    | Some (Rglobal path) ->
      Some (push_frame fr (Eglobal { path; desc = x.desc; chain = x.chain }))
    | Some (Rparam j) ->
      Some (push_frame fr (Eparam { x with index = j }))
    | Some Ropaque ->
      Some (push_frame fr (Eopaque { desc = x.desc; chain = x.chain }))
    | Some Rlocal | None -> None)
  | Ecallsparam ({ index; _ } as x) -> (
    match arg index with
    | Some (Rparam j) ->
      Some (push_frame fr (Ecallsparam { x with index = j }))
    | _ -> None (* a locally defined callback was walked at its site *))

let fixpoint t =
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 64 do
    changed := false;
    incr iters;
    List.iter
      (fun s ->
        if s.s_annotated <> None then begin
          let n =
            Printf.sprintf "[@spine.domain_safe] on %s.%s" s.s_file_mod
              s.s_name
          in
          if not (List.mem n s.s_notes) then begin
            s.s_notes <- n :: s.s_notes;
            changed := true
          end
        end
        else if s.s_self_locks then begin
          let n =
            Printf.sprintf "Mutex held inside %s.%s" s.s_file_mod s.s_name
          in
          if not (List.mem n s.s_notes) then begin
            s.s_notes <- n :: s.s_notes;
            changed := true
          end
        end
        else begin
          let acc = Hashtbl.create 8 in
          List.iter (fun e -> Hashtbl.replace acc (eff_key e) e) s.s_esc;
          let before = Hashtbl.length acc in
          List.iter
            (fun e ->
              if not (Hashtbl.mem acc (eff_key e)) then
                Hashtbl.replace acc (eff_key e) e)
            s.s_own;
          let notes = ref s.s_notes in
          let add_note n = if not (List.mem n !notes) then notes := n :: !notes in
          List.iter add_note s.s_own_notes;
          List.iter
            (fun c ->
              List.iter
                (fun callee ->
                  List.iter add_note callee.s_notes;
                  List.iter
                    (fun e ->
                      match remap c.cl_args c.cl_frame e with
                      | None -> ()
                      | Some e ->
                        if not (Hashtbl.mem acc (eff_key e)) then
                          Hashtbl.replace acc (eff_key e) e)
                    callee.s_esc)
                (resolve t c))
            s.s_calls;
          if
            Hashtbl.length acc <> before
            || List.length !notes <> List.length s.s_notes
          then begin
            s.s_esc <- Hashtbl.fold (fun _ e l -> e :: l) acc [];
            s.s_notes <- !notes;
            changed := true
          end
        end)
      t.summaries
  done

(* ------------------------------------------------------------------ *)
(* Findings and certification                                          *)

type l9 = {
  l9_file : string;
  l9_line : int;
  l9_col : int;
  l9_msg : string;
}

type cert_row = {
  cm_module : string;
  cm_verdict : string;
  cm_witness : string;
}

let frame_to_string fr =
  Printf.sprintf "%s (%s:%d)" fr.fr_fn fr.fr_file fr.fr_line

let chain_to_string chain =
  String.concat " -> " (List.map frame_to_string chain)

let eff_desc = function
  | Eglobal { desc; _ } -> desc
  | Eparam { index; desc; _ } ->
    Printf.sprintf "%s (mutates the shared store argument %d)" desc index
  | Eopaque { desc; _ } -> desc
  | Ecallsparam _ -> "calls a caller-supplied callback"

let eff_site e =
  match List.rev (eff_chain e) with
  | fr :: _ -> (fr.fr_file, fr.fr_line)
  | [] -> ("", 0)

let def_site s = Printf.sprintf "%s:%d:%s" s.s_file s.s_line s.s_name

(* Every summary a call from [seeds] resolves to, transitively, the
   seeds included. *)
let reachable t seeds =
  let seen = Hashtbl.create 64 in
  let rec visit s =
    if not (Hashtbl.mem seen (def_site s)) then begin
      Hashtbl.replace seen (def_site s) ();
      List.iter (fun c -> List.iter visit (resolve t c)) s.s_calls
    end
  in
  List.iter visit seeds;
  fun s -> Hashtbl.mem seen (def_site s)

let finalize t ~roots_in ~roots =
  fixpoint t;
  (* a query root is a function named like a query that [Engine]'s own
     queries reach: a bare name match elsewhere is not a query *)
  let named s = List.mem s.s_name roots && roots_in s.s_file in
  let reached =
    reachable t
      (List.filter (fun s -> named s && s.s_file_mod = "Engine") t.summaries)
  in
  let roots = List.filter (fun s -> named s && reached s) t.summaries in
  (* L9: one finding per distinct write site, first witness wins *)
  let findings = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun root ->
      List.iter
        (fun e ->
          match e with
          | Ecallsparam _ -> () (* the caller's callback, their risk *)
          | _ ->
            let file, line = eff_site e in
            let key = Printf.sprintf "%s:%d:%s" file line (eff_desc e) in
            if not (Hashtbl.mem findings key) then begin
              let msg =
                Printf.sprintf
                  "%s escapes the query surface: reachable from query \
                   root %s.%s via %s; a store shared across domains \
                   would race here (guard with Mutex/Atomic, keep the \
                   state per-domain, or annotate the binding \
                   [@spine.domain_safe \"reason\"])"
                  (eff_desc e) root.s_file_mod root.s_name
                  (chain_to_string (eff_chain e))
              in
              Hashtbl.replace findings key
                { l9_file = file; l9_line = line; l9_col = 0; l9_msg = msg };
              order := key :: !order
            end)
        root.s_esc)
    roots;
  let l9s =
    List.rev_map (fun k -> Hashtbl.find findings k) !order
  in
  (* certification table: one row per source-file module that exposes
     query-surface roots *)
  let mods = Hashtbl.create 8 in
  let mod_order = ref [] in
  List.iter
    (fun root ->
      let rs =
        match Hashtbl.find_opt mods root.s_file_mod with
        | Some rs -> rs
        | None ->
          mod_order := root.s_file_mod :: !mod_order;
          let rs = ref [] in
          Hashtbl.replace mods root.s_file_mod rs;
          rs
      in
      rs := root :: !rs)
    roots;
  let rows =
    List.rev_map
      (fun m ->
        let rs = !(Hashtbl.find mods m) in
        let escaping =
          List.concat_map
            (fun r ->
              List.filter
                (function Ecallsparam _ -> false | _ -> true)
                r.s_esc)
            rs
        in
        let notes =
          List.sort_uniq String.compare (List.concat_map (fun r -> r.s_notes) rs)
        in
        match escaping with
        | e :: _ ->
          {
            cm_module = m;
            cm_verdict = "UNSAFE";
            cm_witness =
              Printf.sprintf "%s via %s" (eff_desc e)
                (chain_to_string (eff_chain e));
          }
        | [] ->
          let ann =
            List.find_opt
              (fun n ->
                String.length n >= 6 && String.sub n 0 6 = "[@spin")
              notes
          in
          let grd =
            List.find_opt
              (fun n ->
                String.length n >= 5 && String.sub n 0 5 = "Mutex"
                || String.length n >= 5 && String.sub n 0 5 = "mutex")
              notes
          in
          match (ann, grd) with
          | Some w, _ ->
            { cm_module = m; cm_verdict = "certified (annotated)";
              cm_witness = w }
          | None, Some w ->
            { cm_module = m; cm_verdict = "certified (guarded)";
              cm_witness = w }
          | None, None ->
            { cm_module = m; cm_verdict = "certified";
              cm_witness = "all reachable writes are call-local" })
      !mod_order
  in
  (l9s, List.sort (fun a b -> String.compare a.cm_module b.cm_module) rows)
