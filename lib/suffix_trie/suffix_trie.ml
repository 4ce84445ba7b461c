type node = {
  mutable children : (int * node) list;  (* code -> child; fanout is tiny *)
}

type t = {
  root : node;
  alphabet : Bioseq.Alphabet.t;
  mutable nodes : int;
}

let new_node () = { children = [] }

let child node code = List.assoc_opt code node.children

let insert_suffix t seq pos =
  let len = Bioseq.Packed_seq.length seq in
  let rec go node i =
    if i < len then begin
      let code = Bioseq.Packed_seq.get seq i in
      match child node code with
      | Some next -> go next (i + 1)
      | None ->
        let next = new_node () in
        node.children <- (code, next) :: node.children;
        t.nodes <- t.nodes + 1;
        go next (i + 1)
    end
  in
  go t.root pos

let build seq =
  let t =
    { root = new_node (); alphabet = Bioseq.Packed_seq.alphabet seq; nodes = 1 }
  in
  for pos = 0 to Bioseq.Packed_seq.length seq - 1 do
    insert_suffix t seq pos
  done;
  t

let of_string alphabet s = build (Bioseq.Packed_seq.of_string alphabet s)

let node_count t = t.nodes

let contains_codes t codes =
  let rec go node i =
    if i >= Array.length codes then true
    else
      match child node codes.(i) with
      | Some next -> go next (i + 1)
      | None -> false
  in
  go t.root 0

let contains t s =
  match
    Array.init (String.length s) (fun i -> Bioseq.Alphabet.encode t.alphabet s.[i])
  with
  | codes -> contains_codes t codes
  | exception Invalid_argument _ -> false

let count_unary t =
  let rec go acc node =
    let acc = if List.length node.children = 1 then acc + 1 else acc in
    List.fold_left (fun acc (_, child) -> go acc child) acc node.children
  in
  go 0 t.root

let distinct_substrings t = t.nodes - 1
