(* The SPINE_FAULTS grammar, parsed to a typed plan description.
   Fault_device turns a spec into a live plan; the scenario harness
   reuses the same grammar for its fault stages, so the parser lives
   here with typed errors instead of the strings it used to bake in. *)

type kind =
  | Read_error
  | Write_error
  | Bit_flip
  | Torn_write of int
  | Crash

type arm_spec = {
  s_kind : kind;
  s_pages : (int * int) option;
  s_after : int;
  s_times : int;
}

type t = {
  seed : int option;
  arms : arm_spec list;
}

type error =
  | Not_a_number of string
  | Negative of string * int
  | Unknown_kind of string
  | Malformed_option of string
  | Unknown_option of string
  | Empty_page_range of string
  | Misplaced_keep
  | Empty_item

(* These renderings are the historical Fault_device.parse messages:
   SPINE_FAULTS diagnostics are part of the CLI surface (cram-proven),
   so the typed refactor must not change a byte of them. *)
let error_to_string = function
  | Not_a_number s -> Printf.sprintf "not a number: %S" s
  | Negative (key, v) -> Printf.sprintf "negative %s=%d" key v
  | Unknown_kind k -> Printf.sprintf "unknown fault kind %S" k
  | Malformed_option o ->
    Printf.sprintf "malformed option %S (expected key=value)" o
  | Unknown_option o -> Printf.sprintf "unknown fault option %S" o
  | Empty_page_range r -> Printf.sprintf "empty page range %S" r
  | Misplaced_keep -> "keep= only applies to torn"
  | Empty_item -> "empty fault item"

let int_of s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Not_a_number s)

(* every option is a count or a byte/page position: negatives would
   reach Bytes.blit / modulo arithmetic as untyped Invalid_argument *)
let nonneg key s =
  match int_of s with
  | Ok v when v < 0 -> Error (Negative (key, v))
  | r -> r

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_item item =
  match String.split_on_char ':' (String.trim item) with
  | [] -> Error Empty_item
  | kind_s :: opts ->
    let* kind =
      match kind_s with
      | "read_error" -> Ok Read_error
      | "write_error" -> Ok Write_error
      | "flip" -> Ok Bit_flip
      | "torn" -> Ok (Torn_write 0)
      | "crash" -> Ok Crash
      | other -> Error (Unknown_kind other)
    in
    let rec opts_loop kind pages after times = function
      | [] -> Ok { s_kind = kind; s_pages = pages; s_after = after; s_times = times }
      | o :: rest ->
        (match String.index_opt o '=' with
         | None -> Error (Malformed_option o)
         | Some eq ->
           let key = String.sub o 0 eq in
           let value = String.sub o (eq + 1) (String.length o - eq - 1) in
           (match key with
            | "after" ->
              let* v = nonneg "after" value in
              opts_loop kind pages v times rest
            | "times" ->
              let* v = nonneg "times" value in
              opts_loop kind pages after v rest
            | "keep" ->
              (match kind with
               | Torn_write _ ->
                 let* v = nonneg "keep" value in
                 opts_loop (Torn_write v) pages after times rest
               | _ -> Error Misplaced_keep)
            | "page" ->
              (match String.index_opt value '-' with
               | None ->
                 let* v = nonneg "page" value in
                 opts_loop kind (Some (v, v)) after times rest
               | Some dash ->
                 let* lo = nonneg "page" (String.sub value 0 dash) in
                 let* hi =
                   nonneg "page"
                     (String.sub value (dash + 1)
                        (String.length value - dash - 1))
                 in
                 if hi < lo then Error (Empty_page_range value)
                 else opts_loop kind (Some (lo, hi)) after times rest)
            | other -> Error (Unknown_option other)))
    in
    opts_loop kind None 0 1 opts

let parse spec =
  let items =
    List.filter
      (fun s -> String.length (String.trim s) > 0)
      (String.split_on_char ';' spec)
  in
  let rec go seed arms = function
    | [] -> Ok { seed; arms = List.rev arms }
    | item :: rest ->
      let trimmed = String.trim item in
      if String.length trimmed > 5
         && String.equal (String.sub trimmed 0 5) "seed="
      then
        let* v = int_of (String.sub trimmed 5 (String.length trimmed - 5)) in
        go (Some v) arms rest
      else
        let* a = parse_item trimmed in
        go seed (a :: arms) rest
  in
  go None [] items
