(* Binary encoding primitives for the spill subsystem.

   A compact, self-contained wire format: zigzag varints for integers,
   length-prefixed strings, IEEE bit patterns for floats. Atop the
   primitives sit codecs for the data-model values grouping spills —
   atomic values, and items/sequences with nodes encoded *by reference*:
   a node serializes as its id and is resolved on decode through a
   registry populated at encode time. Serializing node structure would
   be both wrong (node identity must survive the round trip — [same]
   and document order are id-based) and explosive (parent pointers
   reach the whole document); the registry pins exactly the nodes that
   were spilled, and the decoded item is the original node.

   Decoders validate every read against the payload bounds and raise
   {!Corrupt} on malformed input; the spill layer converts that into a
   structured XQENG0006 failure. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* --- writer primitives (over Buffer) ------------------------------------ *)

(* Zigzag-mapped LEB128: small magnitudes of either sign stay short. *)
let put_varint buf n =
  let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr z)
    else begin
      Buffer.add_char buf (Char.chr (z land 0x7f lor 0x80));
      go (z lsr 7)
    end
  in
  go z

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_float buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff))
  done

let put_opt put buf = function
  | None -> put_bool buf false
  | Some v ->
    put_bool buf true;
    put buf v

(* --- reader -------------------------------------------------------------- *)

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let at_end r = r.pos >= String.length r.src

let byte r =
  if r.pos >= String.length r.src then corrupt "varint past end of payload";
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let get_varint r =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint too long";
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  let z = go 0 0 in
  (z lsr 1) lxor (- (z land 1))

let get_string r =
  let n = get_varint r in
  if n < 0 || r.pos + n > String.length r.src then
    corrupt "string length %d overruns payload" n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "invalid boolean byte %#x" b

let get_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (byte r)) (i * 8))
  done;
  Int64.float_of_bits !bits

let get_opt get r = if get_bool r then Some (get r) else None

(* --- atomic values ------------------------------------------------------- *)

let put_date_time buf (d : Xdatetime.t) =
  put_varint buf d.Xdatetime.year;
  put_varint buf d.Xdatetime.month;
  put_varint buf d.Xdatetime.day;
  put_varint buf d.Xdatetime.hour;
  put_varint buf d.Xdatetime.minute;
  put_float buf d.Xdatetime.second;
  put_opt put_varint buf d.Xdatetime.tz_minutes

let get_date_time r =
  let year = get_varint r in
  let month = get_varint r in
  let day = get_varint r in
  let hour = get_varint r in
  let minute = get_varint r in
  let second = get_float r in
  let tz_minutes = get_opt get_varint r in
  { Xdatetime.year; month; day; hour; minute; second; tz_minutes }

let put_date buf (d : Xdatetime.date) =
  put_varint buf d.Xdatetime.d_year;
  put_varint buf d.Xdatetime.d_month;
  put_varint buf d.Xdatetime.d_day;
  put_opt put_varint buf d.Xdatetime.d_tz

let get_date r =
  let d_year = get_varint r in
  let d_month = get_varint r in
  let d_day = get_varint r in
  let d_tz = get_opt get_varint r in
  { Xdatetime.d_year; d_month; d_day; d_tz }

let put_atom buf (a : Atomic.t) =
  match a with
  | Atomic.Untyped s ->
    Buffer.add_char buf '\000';
    put_string buf s
  | Atomic.Str s ->
    Buffer.add_char buf '\001';
    put_string buf s
  | Atomic.Bool b ->
    Buffer.add_char buf '\002';
    put_bool buf b
  | Atomic.Int n ->
    Buffer.add_char buf '\003';
    put_varint buf n
  | Atomic.Dec f ->
    Buffer.add_char buf '\004';
    put_float buf f
  | Atomic.Dbl f ->
    Buffer.add_char buf '\005';
    put_float buf f
  | Atomic.DateTime d ->
    Buffer.add_char buf '\006';
    put_date_time buf d
  | Atomic.Date d ->
    Buffer.add_char buf '\007';
    put_date buf d
  | Atomic.QName n ->
    Buffer.add_char buf '\008';
    put_opt put_string buf n.Xname.prefix;
    put_string buf n.Xname.local

let get_atom r : Atomic.t =
  match byte r with
  | 0 -> Atomic.Untyped (get_string r)
  | 1 -> Atomic.Str (get_string r)
  | 2 -> Atomic.Bool (get_bool r)
  | 3 -> Atomic.Int (get_varint r)
  | 4 -> Atomic.Dec (get_float r)
  | 5 -> Atomic.Dbl (get_float r)
  | 6 -> Atomic.DateTime (get_date_time r)
  | 7 -> Atomic.Date (get_date r)
  | 8 ->
    let prefix = get_opt get_string r in
    let local = get_string r in
    Atomic.QName { Xname.prefix; local }
  | t -> corrupt "unknown atom tag %#x" t

(* --- items and sequences (nodes by registry reference) ------------------- *)

type node_registry = { tbl : (int, Node.t) Hashtbl.t; detach : bool }

let registry ?(detach = false) () : node_registry =
  { tbl = Hashtbl.create 64; detach }

let put_xname buf (n : Xname.t) =
  put_opt put_string buf n.Xname.prefix;
  put_string buf n.Xname.local

let get_xname r : Xname.t =
  let prefix = get_opt get_string r in
  let local = get_string r in
  { Xname.prefix; local }

(* Structural (by-value) node encoding, used for detached subtrees in
   streamed mode: the original ids ride along so document order and
   id-based identity survive the round trip, and — unlike a registry
   reference — nothing pins the encoded tree in memory while its bytes
   live on disk. Document nodes never reach here (a tree rooted in a
   document encodes by reference; see [put_item]). *)
let rec put_tree buf n =
  put_varint buf (Node.id n);
  match Node.kind n with
  | Node.Element ->
    Buffer.add_char buf 'E';
    put_xname buf (Option.get (Node.name n));
    let attrs = Node.attributes n in
    put_varint buf (List.length attrs);
    List.iter
      (fun a ->
        put_varint buf (Node.id a);
        put_xname buf (Option.get (Node.name a));
        put_string buf (Node.attribute_value a))
      attrs;
    let children = Node.children n in
    put_varint buf (List.length children);
    List.iter (put_tree buf) children
  | Node.Text ->
    Buffer.add_char buf 'T';
    put_string buf (Node.text_content n)
  | Node.Comment ->
    Buffer.add_char buf 'C';
    put_string buf (Node.comment_text n)
  | Node.Pi ->
    Buffer.add_char buf 'P';
    put_string buf (Node.pi_target n);
    put_string buf (Node.pi_data n)
  | Node.Attribute ->
    Buffer.add_char buf 'A';
    put_xname buf (Option.get (Node.name n));
    put_string buf (Node.attribute_value n)
  | Node.Document -> corrupt "document node in a by-value spill encoding"

let rec get_tree r =
  let id = get_varint r in
  match byte r with
  | c when c = Char.code 'E' ->
    let name = get_xname r in
    let el = Node.element_with_id ~id name in
    let n_attrs = get_varint r in
    if n_attrs < 0 then corrupt "negative attribute count %d" n_attrs;
    for _ = 1 to n_attrs do
      let aid = get_varint r in
      let aname = get_xname r in
      let v = get_string r in
      Node.set_attribute el (Node.attribute_with_id ~id:aid aname v)
    done;
    let n_children = get_varint r in
    if n_children < 0 then corrupt "negative child count %d" n_children;
    for _ = 1 to n_children do
      Node.append_child el (get_tree r)
    done;
    Node.seal el;
    Node.as_leaf el
  | c when c = Char.code 'T' -> Node.text_with_id ~id (get_string r)
  | c when c = Char.code 'C' -> Node.comment_with_id ~id (get_string r)
  | c when c = Char.code 'P' ->
    let target = get_string r in
    let data = get_string r in
    Node.pi_with_id ~id ~target ~data
  | c when c = Char.code 'A' ->
    let name = get_xname r in
    Node.attribute_with_id ~id name (get_string r)
  | t -> corrupt "unknown tree-node tag %#x" t

let put_item (reg : node_registry) buf (it : Item.t) =
  match it with
  | Item.Atomic a ->
    Buffer.add_char buf '\000';
    put_atom buf a
  | Item.Node n ->
    if reg.detach && Node.kind (Node.root n) <> Node.Document then begin
      (* a detached tree (streamed subtree or constructed node): encode
         the structure so the live tree really can be collected *)
      Buffer.add_char buf '\002';
      put_tree buf n
    end
    else begin
      let id = Node.id n in
      if not (Hashtbl.mem reg.tbl id) then Hashtbl.add reg.tbl id n;
      Buffer.add_char buf '\001';
      put_varint buf id
    end

let get_item (reg : node_registry) r : Item.t =
  match byte r with
  | 0 -> Item.Atomic (get_atom r)
  | 1 ->
    let id = get_varint r in
    (match Hashtbl.find_opt reg.tbl id with
     | Some n -> Item.Node n
     | None -> corrupt "node id %d not in spill registry" id)
  | 2 -> Item.Node (get_tree r)
  | t -> corrupt "unknown item tag %#x" t

let put_seq reg buf (s : Xseq.t) =
  put_varint buf (List.length s);
  List.iter (put_item reg buf) s

let get_seq reg r : Xseq.t =
  let n = get_varint r in
  if n < 0 then corrupt "negative sequence length %d" n;
  List.init n (fun _ -> get_item reg r)
