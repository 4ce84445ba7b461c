(* Designated unsafe boundary (spine-lint L11): unchecked array slots
   are guarded by the [len] asserts right above them, and the backing
   array never escapes the module. *)
[@@@spine.checked_boundary
  "bounds asserted locally; backing array never escapes the module"]

type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

let get t i =
  assert (i >= 0 && i < t.len);
  Array.unsafe_get t.data i

let set t i v =
  assert (i >= 0 && i < t.len);
  Array.unsafe_set t.data i v

let push t v =
  if t.len = Array.length t.data then begin
    let ndata = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Int_vec.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let clear t = t.len <- 0

let blit_to_array t = Array.sub t.data 0 t.len

let iter t ~f =
  for i = 0 to t.len - 1 do f (Array.unsafe_get t.data i) done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do acc := f !acc (Array.unsafe_get t.data i) done;
  !acc

let binary_search t v =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let x = get t mid in
      if x = v then Some mid
      else if x < v then go (mid + 1) hi
      else go lo mid
  in
  go 0 t.len
