open Xq_xdm

(* Canonical grouping keys.

   Grouping compares each tuple's key list against many others — with
   deep-equal semantics, and (for the sort strategy) under a total
   preorder consistent with deep-equal. Both used to re-walk key node
   subtrees on every single comparison. A canonical key walks each node
   exactly once, producing:

   - [fp]: a fingerprint string that characterizes the node's
     deep-equal class exactly — two nodes are [Deep_equal.nodes]-equal
     iff their fingerprints are equal strings. The encoding is an
     injective, length-prefixed serialization of precisely the features
     deep-equal inspects (kinds, element/attribute names via
     [Xname.equal], attributes as the same sorted [(to_string, value)]
     pairs [Deep_equal.attrs_equal] compares, text content, and
     significant children only — comments and PIs inside element content
     are skipped, mirroring [Deep_equal.significant_children]).
   - [sv]: the node's string value, memoized so the sort strategy's
     order (nodes order by string value, exactly as before) costs a
     string compare instead of a subtree walk.

   Atomic items stay as themselves: [Atomic.deep_eq] is already O(1),
   and large integers must keep exact 63-bit comparison semantics. *)

type canon =
  | CAtom of Atomic.t
  | CNode of { fp : string; sv : string }
  | CCode of int

type single = { orig : Xseq.t; items : canon array; h : int }

type t = { singles : single array; hash : int }

(* --- key dictionary ----------------------------------------------------- *)

(* Interns node fingerprints so grouping hashes/compares a small int code
   instead of a fingerprint string. The table is process-wide and
   append-only (codes stay valid for the lifetime of spill frames that
   carry them); whether a canonicalization interns is its caller's
   decision ([canonicalize ~intern]), made per group build, so small
   inputs and the golden-explain corpus never see codes. A code's
   hash is memoized as [Hashtbl.hash fp] — identical to the raw [CNode]
   hash — so interned and raw canons of the same node class agree on
   hash and equality even when both appear in one build. *)
module Dict = struct
  type entry = { e_fp : string; e_sv : string; e_hash : int }

  let dummy = { e_fp = ""; e_sv = ""; e_hash = 0 }
  let cap = 1 lsl 20
  let lock = Mutex.create ()
  let table : (string, int) Hashtbl.t = Hashtbl.create 1024 (* guarded by [lock] *)

  (* Lock-free reader side: [entries] is swapped to a grown copy *before*
     [count] is bumped, so any reader that observes [count = n] observes
     an array with at least [n] valid slots. *)
  let entries = Stdlib.Atomic.make ([||] : entry array)
  let count = Stdlib.Atomic.make 0
  let interns = Stdlib.Atomic.make 0

  let size () = Stdlib.Atomic.get count

  let get code =
    let n = Stdlib.Atomic.get count in
    if code < 0 || code >= n then
      invalid_arg (Printf.sprintf "Key.Dict.get: stale code %d (size %d)" code n)
    else (Stdlib.Atomic.get entries).(code)

  (* [Some (code, fresh)] or [None] once the table is full. *)
  let intern fp sv =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table fp with
        | Some c -> Some (c, false)
        | None ->
          let n = Stdlib.Atomic.get count in
          if n >= cap then None
          else begin
            let arr = Stdlib.Atomic.get entries in
            let arr =
              if n >= Array.length arr then begin
                let grown = Array.make (max 1024 (2 * Array.length arr)) dummy in
                Array.blit arr 0 grown 0 n;
                Stdlib.Atomic.set entries grown;
                grown
              end
              else arr
            in
            arr.(n) <- { e_fp = fp; e_sv = sv; e_hash = Hashtbl.hash fp };
            Stdlib.Atomic.set count (n + 1);
            Hashtbl.replace table fp n;
            Some (n, true)
          end)

  let reset () =
    Mutex.protect lock (fun () ->
        Hashtbl.reset table;
        Stdlib.Atomic.set count 0;
        Stdlib.Atomic.set entries [||];
        Stdlib.Atomic.set interns 0)
end

(* What one interned code charges to the memory budget in place of its
   fingerprint + string-value bytes (the strings themselves stay charged
   once, by whichever canonicalization first interned them). *)
let code_cost = 16

let intern_count () = Stdlib.Atomic.get Dict.interns
let dict_size () = Dict.size ()
let dict_lookup code = try Some ((Dict.get code).e_fp, (Dict.get code).e_sv) with Invalid_argument _ -> None
let reset_dict () = Dict.reset ()

(* --- instrumentation: how many node subtrees were materialized -------- *)

let walks = Stdlib.Atomic.make 0
let walk_count () = Stdlib.Atomic.get walks
let reset_walk_count () = Stdlib.Atomic.set walks 0

(* --- hashing ----------------------------------------------------------- *)

(* FNV-1a-style fold mixer: every ingredient influences the result, so
   wide key lists cannot degenerate the way a single [Hashtbl.hash] over
   a long list does (it samples a bounded number of nodes). *)
let hash_seed = 0x811c9dc5
let mix h x = (h * 0x01000193) lxor x

(* --- node fingerprints ------------------------------------------------- *)

let add_field buf tag s =
  Buffer.add_char buf tag;
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let fingerprint n0 =
  Xq_governor.Governor.tick ();
  Stdlib.Atomic.incr walks;
  let fb = Buffer.create 64 and sb = Buffer.create 32 in
  let add_name fb n =
    (match n.Xname.prefix with
     | None -> Buffer.add_char fb 'n'
     | Some p -> add_field fb 'p' p);
    add_field fb 'l' n.Xname.local
  in
  (* deep-equal compares attributes as sorted (Xname.to_string, value)
     pairs — reproduce that exact keying, quirks included *)
  let attr_entries n =
    List.sort compare
      (List.map
         (fun a ->
           ( (match Node.name a with
              | Some nm -> Xname.to_string nm
              | None -> ""),
             Node.attribute_value a ))
         (Node.attributes n))
  in
  let text t =
    add_field fb 'T' t;
    Buffer.add_string sb t
  in
  let rec go n =
    match Node.kind n with
    | Node.Document ->
      Buffer.add_char fb 'D';
      children n
    | Node.Element when Node.is_leaf n ->
      (* the full form's fields, its text read in place *)
      Buffer.add_char fb 'E';
      (match Node.name n with Some nm -> add_name fb nm | None -> ());
      Buffer.add_char fb '(';
      text (Node.string_value n);
      Buffer.add_char fb ')'
    | Node.Element ->
      Buffer.add_char fb 'E';
      (match Node.name n with Some nm -> add_name fb nm | None -> ());
      List.iter
        (fun (k, v) ->
          add_field fb 'a' k;
          add_field fb 'v' v)
        (attr_entries n);
      children n
    | Node.Text -> text (Node.text_content n)
    | Node.Comment -> add_field fb 'C' (Node.comment_text n)
    | Node.Pi ->
      add_field fb 'P' (Node.pi_target n);
      add_field fb 'd' (Node.pi_data n)
    | Node.Attribute ->
      (match Node.name n with Some nm -> add_name fb nm | None -> ());
      add_field fb 'A' (Node.attribute_value n)
  and children n =
    Buffer.add_char fb '(';
    List.iter
      (fun c ->
        match Node.kind c with
        | Node.Comment | Node.Pi -> () (* insignificant for deep-equal *)
        | Node.Document | Node.Element | Node.Attribute | Node.Text -> go c)
      (Node.children n);
    Buffer.add_char fb ')'
  in
  go n0;
  let sv =
    match Node.kind n0 with
    | Node.Attribute -> Node.attribute_value n0
    | Node.Comment -> Node.comment_text n0
    | Node.Pi -> Node.pi_data n0
    | Node.Document | Node.Element | Node.Text -> Buffer.contents sb
  in
  let fp = Buffer.contents fb in
  (* canonical keys are materialized state the Gc delta may lag behind;
     count them against the memory budget directly *)
  Xq_governor.Governor.charge_bytes (String.length fp + String.length sv);
  (fp, sv)

(* --- canonicalization --------------------------------------------------- *)

let canon_of_item ~intern = function
  | Item.Atomic a -> CAtom a
  | Item.Node n ->
    let fp, sv = fingerprint n in
    if intern then
      match Dict.intern fp sv with
      | Some (code, fresh) ->
        Stdlib.Atomic.incr Dict.interns;
        (* [fingerprint] charged fp+sv; a hit drops both strings (the
           dictionary already holds them), a fresh entry keeps them
           resident in the dictionary, so its charge stands. *)
        if not fresh then
          Xq_governor.Governor.uncharge_bytes (String.length fp + String.length sv);
        Xq_governor.Governor.charge_bytes code_cost;
        CCode code
      | None -> CNode { fp; sv }
    else CNode { fp; sv }

let canon_hash = function
  | CAtom a -> Atomic.hash a
  | CNode { fp; _ } -> Hashtbl.hash fp
  | CCode c -> (Dict.get c).e_hash

let canonicalize_single ~intern (seq : Xseq.t) =
  let items = Array.of_list (List.map (canon_of_item ~intern) seq) in
  let h =
    Array.fold_left
      (fun h c -> mix h (canon_hash c))
      (mix hash_seed (Array.length items))
      items
  in
  { orig = seq; items; h }

let canonicalize ?(intern = false) (keys : Xseq.t list) =
  let singles = Array.of_list (List.map (canonicalize_single ~intern) keys) in
  let hash =
    Array.fold_left
      (fun h s -> mix h s.h)
      (mix hash_seed (Array.length singles))
      singles
  in
  { singles; hash }

let originals k = Array.to_list (Array.map (fun s -> s.orig) k.singles)
let hash k = k.hash

(* --- spill support ------------------------------------------------------- *)

(* Exactly the bytes [fingerprint] charged for this key — what a spill
   gives back to the budget when the in-memory key is dropped. *)
let charged_bytes k =
  Array.fold_left
    (fun acc s ->
      Array.fold_left
        (fun acc c ->
          match c with
          | CAtom _ -> acc
          | CNode { fp; sv } -> acc + String.length fp + String.length sv
          | CCode _ -> acc + code_cost)
        acc s.items)
    0 k.singles

(* Per-depth repartition salt: recursive spill levels re-split on
   [mix (salt depth) (hash k)] so keys that collided modulo the fanout
   at one level spread at the next. *)
let salt depth = mix hash_seed (0x9e3779b9 * (depth + 1))

(* Spill frames carry the dictionary *code* plus nothing else — the
   process dictionary is the side table replay resolves against (it is
   append-only, so codes written before a spill stay valid at replay).
   Codes outside the published dictionary are corruption (a torn or
   cross-process frame) and fail closed. *)
let put_canon buf = function
  | CAtom a ->
    Binio.put_varint buf 0;
    Binio.put_atom buf a
  | CNode { fp; sv } ->
    Binio.put_varint buf 1;
    Binio.put_string buf fp;
    Binio.put_string buf sv
  | CCode c ->
    Binio.put_varint buf 2;
    Binio.put_varint buf c

let get_canon r =
  match Binio.get_varint r with
  | 0 -> CAtom (Binio.get_atom r)
  | 1 ->
    let fp = Binio.get_string r in
    let sv = Binio.get_string r in
    CNode { fp; sv }
  | 2 ->
    let c = Binio.get_varint r in
    if c < 0 || c >= Dict.size () then
      raise (Binio.Corrupt (Printf.sprintf "dictionary code %d out of range" c))
    else CCode c
  | t -> raise (Binio.Corrupt (Printf.sprintf "bad canon tag %d" t))

(* Stored hashes ([s.h], [k.hash]) are written out rather than
   recomputed on decode: a custom bucket hash (the [?hash] override)
   would otherwise be lost, and replay bucketing must see exactly the
   values the build saw. *)
let encode reg buf k =
  Binio.put_varint buf (Array.length k.singles);
  Array.iter
    (fun s ->
      Binio.put_seq reg buf s.orig;
      Binio.put_varint buf (Array.length s.items);
      Array.iter (put_canon buf) s.items;
      Binio.put_varint buf s.h)
    k.singles;
  Binio.put_varint buf k.hash

let decode reg r =
  let ns = Binio.get_varint r in
  if ns < 0 then raise (Binio.Corrupt "negative singles count");
  let singles =
    Array.init ns (fun _ ->
        let orig = Binio.get_seq reg r in
        let ni = Binio.get_varint r in
        if ni < 0 then raise (Binio.Corrupt "negative canon count");
        let items = Array.init ni (fun _ -> get_canon r) in
        let h = Binio.get_varint r in
        { orig; items; h })
  in
  let hash = Binio.get_varint r in
  { singles; hash }

(* --- equality (deep-equal semantics) ------------------------------------ *)

let canon_equal a b =
  match a, b with
  | CAtom x, CAtom y -> Atomic.deep_eq x y
  | CNode x, CNode y -> String.equal x.fp y.fp
  | CCode x, CCode y -> Int.equal x y
  | CCode x, CNode y | CNode y, CCode x -> String.equal (Dict.get x).e_fp y.fp
  | CAtom _, (CNode _ | CCode _) | (CNode _ | CCode _), CAtom _ -> false

let arrays_for_all2 eq a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (eq (Array.unsafe_get a i) (Array.unsafe_get b i) && go (i + 1)) in
  go 0

let equal_single a b = a.h = b.h && arrays_for_all2 canon_equal a.items b.items

let equal a b =
  a.hash = b.hash && arrays_for_all2 equal_single a.singles b.singles

(* --- total preorder (sort strategy) ------------------------------------- *)

(* Same order as PR 1's [Group.compare_key_lists]: nodes sort by string
   value; untyped sorts with strings; all numerics on one axis so
   Int/Dec/Dbl values that deep-equal land together; NaN sorts least
   among numerics. Deep-equal keys always compare 0; the converse need
   not hold (runs the order conflates are split by {!equal}). *)

let atom_rank = function
  | Atomic.Bool _ -> 0
  | Atomic.Int _ | Atomic.Dec _ | Atomic.Dbl _ -> 1
  | Atomic.Untyped _ | Atomic.Str _ -> 2
  | Atomic.DateTime _ -> 3
  | Atomic.Date _ -> 4
  | Atomic.QName _ -> 5

let compare_atoms a b =
  let ra = atom_rank a and rb = atom_rank b in
  if ra <> rb then Int.compare ra rb
  else
    match a, b with
    | Atomic.Bool x, Atomic.Bool y -> Bool.compare x y
    | ( (Atomic.Int _ | Atomic.Dec _ | Atomic.Dbl _),
        (Atomic.Int _ | Atomic.Dec _ | Atomic.Dbl _) ) ->
      let is_nan = function
        | Atomic.Dec f | Atomic.Dbl f -> Float.is_nan f
        | _ -> false
      in
      (match is_nan a, is_nan b with
       | true, true -> 0
       | true, false -> -1
       | false, true -> 1
       | false, false -> Float.compare (Atomic.number a) (Atomic.number b))
    | (Atomic.Untyped x | Atomic.Str x), (Atomic.Untyped y | Atomic.Str y) ->
      String.compare x y
    | Atomic.DateTime x, Atomic.DateTime y -> Xdatetime.compare_date_time x y
    | Atomic.Date x, Atomic.Date y -> Xdatetime.compare_date x y
    | Atomic.QName x, Atomic.QName y -> Xname.compare x y
    | _ -> 0 (* unreachable: differing ranks are handled above *)

let sort_atom = function
  | CAtom a -> a
  | CNode { sv; _ } -> Atomic.Str sv
  | CCode c -> Atomic.Str (Dict.get c).e_sv

let compare_canon a b = compare_atoms (sort_atom a) (sort_atom b)

let compare_arrays cmp a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = cmp a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_single a b = compare_arrays compare_canon a.items b.items
let compare a b = compare_arrays compare_single a.singles b.singles
