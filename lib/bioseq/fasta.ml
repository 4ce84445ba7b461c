type record = { header : string; seq : Packed_seq.t }

(* Residues are matched case-insensitively: DNA alphabets are lower case,
   protein alphabets upper case, and FASTA files use either. Characters
   that match in no case (ambiguity codes such as N) are skipped. *)
let add_char seq c =
  let alphabet = Packed_seq.alphabet seq in
  let try_code c = Alphabet.encode_opt alphabet c in
  match try_code c with
  | Some code -> Packed_seq.append seq code
  | None ->
    match try_code (Char.lowercase_ascii c) with
    | Some code -> Packed_seq.append seq code
    | None ->
      match try_code (Char.uppercase_ascii c) with
      | Some code -> Packed_seq.append seq code
      | None -> ()

let parse_string alphabet text =
  let records = ref [] in
  let current : (string * Packed_seq.t) option ref = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (header, seq) ->
      records := { header; seq } :: !records;
      current := None
  in
  let handle_line line =
    let line =
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
    in
    if String.length line = 0 then ()
    else if line.[0] = '>' then begin
      flush ();
      current := Some (String.sub line 1 (String.length line - 1),
                       Packed_seq.create alphabet)
    end
    else
      match !current with
      | None -> failwith "Fasta.read_file: sequence data before first header"
      | Some (_, seq) -> String.iter (add_char seq) line
  in
  String.split_on_char '\n' text |> List.iter handle_line;
  flush ();
  List.rev !records

let read_file alphabet path =
  let ic = open_in_bin path in
  let contents =
    try
      let n = in_channel_length ic in
      really_input_string ic n
    with e -> close_in ic; raise e
  in
  close_in ic;
  parse_string alphabet contents
