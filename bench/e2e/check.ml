type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable diagnostics : string list;  (* newest first *)
}

let kept_diagnostics = 8

let create () = { attempted = 0; failed = 0; diagnostics = [] }

let expect t ok describe =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    if t.failed < kept_diagnostics then t.diagnostics <- describe () :: t.diagnostics;
    t.failed <- t.failed + 1
  end

let attempted t = t.attempted
let failed t = t.failed
let diagnostics t = List.rev t.diagnostics

(* FNV-1a over the values, seeded with the count, cut to 30 bits so a
   digest fits a {!Samples} slot *)
let fnv h x = (h lxor x) * 0x100000001b3
let basis n = 0x0bf29ce484222325 lxor n
let bits = 0x3FFFFFFF

let digest positions = List.fold_left fnv (basis (List.length positions)) positions land bits
let digest_array a = Array.fold_left fnv (basis (Array.length a)) a land bits
