module type S = sig
  type store
  type t

  val create : store -> t
  val reset : t -> unit
  val advance : t -> int -> bool
  val advance_char : t -> char -> bool
  val advance_pattern : t -> Bioseq.Packed_seq.Pattern.t -> int
  val drop_front : t -> unit
  val longest_extension : t -> int -> unit
  val length : t -> int
  val node : t -> int
  val first_occurrence : t -> int option
  val occurrences : t -> int list
end

module Make (St : Store_sig.S) = struct
  module Q = Search.Make (St)
  module M = Matcher.Make (St)

  type store = St.t

  type t = {
    store : St.t;
    mutable v : int;      (* termination node of the current match *)
    mutable len : int;
  }

  let create store = { store; v = 0; len = 0 }

  let reset t =
    t.v <- 0;
    t.len <- 0

  let advance t code =
    let nxt = Q.step t.store t.v t.len code in
    if nxt < 0 then false
    else begin
      t.v <- nxt;
      t.len <- t.len + 1;
      true
    end

  let advance_char t ch =
    match Bioseq.Alphabet.encode_opt (St.alphabet t.store) ch with
    | None -> false
    | Some code -> advance t code

  (* Word-at-a-time advance: extend the current match by as many of the
     pattern's codes as form valid-path steps, comparing vertebra runs
     whole words at a time.  Returns the number of codes consumed
     (short of the pattern length when the walk gets stuck). *)
  let advance_pattern t p =
    let node, consumed = Q.extend t.store ~node:t.v ~pl:t.len p ~pos:0 in
    t.v <- node;
    t.len <- t.len + consumed;
    consumed

  let drop_front t =
    if t.len = 0 then invalid_arg "Cursor.drop_front: empty match";
    t.len <- t.len - 1;
    if t.len = 0 then t.v <- 0
    else
      (* the k-suffix terminates at the first chain node whose LEL is
         below k *)
      while t.v <> 0 && t.len <= St.link_lel t.store t.v do
        let dest = St.link_dest t.store t.v in
        Probe.step Probe.link ~node:t.v ~dest;
        t.v <- dest
      done

  let longest_extension t code =
    (* reuse the matcher's consume step on a resumed state *)
    let st = M.resume t.store ~node:t.v ~len:t.len in
    M.consume st code;
    t.v <- M.node_of st;
    t.len <- M.len_of st

  let length t = t.len
  let node t = t.v

  let first_occurrence t =
    if t.len = 0 then None else Some (t.v - t.len)

  let occurrences t =
    if t.len = 0 then []
    else begin
      let buffers = Q.occurrences_batch t.store [| (t.v, t.len) |] in
      Xutil.Int_vec.fold buffers.(0) ~init:[]
        ~f:(fun acc e -> (e - t.len) :: acc)
      |> List.rev
    end
end

