type t = { prefix : string option; local : string }

let make ?prefix local = { prefix; local }

let of_string s =
  match String.index_opt s ':' with
  | None -> { prefix = None; local = s }
  | Some i ->
    { prefix = Some (String.sub s 0 i);
      local = String.sub s (i + 1) (String.length s - i - 1) }

let to_string n =
  match n.prefix with
  | None -> n.local
  | Some p -> p ^ ":" ^ n.local

let equal a b =
  a == b
  || a.local = b.local
  && (match a.prefix, b.prefix with
      | None, None -> true
      | Some p, Some q -> p = q
      | None, Some _ | Some _, None -> false)

let compare a b =
  match String.compare a.local b.local with
  | 0 -> Option.compare String.compare a.prefix b.prefix
  | c -> c

let is_default_fn n =
  match n.prefix with
  | None | Some "fn" -> true
  | Some _ -> false

(* Open hashing over spellings: a hit compares bytes in place, so a
   repeated name costs no allocation. *)
type table = { mutable slots : (string * t) list array; mutable count : int }

let table () = { slots = Array.make 64 []; count = 0 }

let hash_sub s pos len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

let rec spelled k s pos len i =
  i = len
  || String.unsafe_get k i = String.unsafe_get s (pos + i)
     && spelled k s pos len (i + 1)

let rec find s pos len = function
  | [] -> raise_notrace Not_found
  | (k, n) :: rest ->
    if String.length k = len && spelled k s pos len 0 then n
    else find s pos len rest

let grow tbl =
  let old = tbl.slots in
  let slots = Array.make (2 * Array.length old) [] in
  let mask = Array.length slots - 1 in
  Array.iter
    (List.iter (fun ((k, _) as e) ->
         let i = hash_sub k 0 (String.length k) land mask in
         slots.(i) <- e :: slots.(i)))
    old;
  tbl.slots <- slots

let intern tbl s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xname.intern";
  let h = hash_sub s pos len in
  let i = h land (Array.length tbl.slots - 1) in
  try find s pos len tbl.slots.(i)
  with Not_found ->
    let k = String.sub s pos len in
    let n = of_string k in
    tbl.slots.(i) <- (k, n) :: tbl.slots.(i);
    tbl.count <- tbl.count + 1;
    if tbl.count > 2 * Array.length tbl.slots then grow tbl;
    n
