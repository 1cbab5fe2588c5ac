type kind = Document | Element | Attribute | Text | Comment | Pi

(* One heap block per node: the constructor tag is the kind and the
   fields sit inline. A missing parent is the [orphan] sentinel
   rather than an option box.

   Child and attribute lists are built reversed so [append_child] and
   [set_attribute] are O(1); [seal] reverses them once, when the builder
   closes the node, and flips [sealed]. Readers of a sealed node get the
   stored lists as they are: no allocation and no write, so trees shared
   between domains are never mutated by a read. An unsealed node still
   reads correctly, reversing a copy. Appending to a sealed node reopens
   it. A fresh node starts sealed: its lists are empty, so childless
   nodes never need a [seal] call.

   A leaf is the one-block form of a finished element that has no
   attributes and exactly one child, a text node numbered [id + 1]: the
   element block, its cons cell and the text block collapse into
   [NLeaf]. Its [children] read rebuilds that text node afresh, with the
   same id, the leaf as parent and the stored string, so identity and
   document order are those of the full form. A leaf is final. *)
type t =
  | NDocument of { id : int; mutable kids : t list; mutable sealed : bool }
  | NElement of {
      id : int;
      mutable parent : t;
      name : Xname.t;
      mutable attrs : t list;
      mutable kids : t list;
      mutable sealed : bool;
    }
  | NLeaf of { id : int; mutable parent : t; name : Xname.t; text : string }
  | NAttribute of { id : int; mutable parent : t; name : Xname.t; value : string }
  | NText of { id : int; mutable parent : t; text : string }
  | NComment of { id : int; mutable parent : t; text : string }
  | NPi of { id : int; mutable parent : t; target : string; data : string }

(* Never handed out: no reader can reach it except through [parent_raw],
   whose callers compare against it physically. *)
let orphan = NDocument { id = 0; kids = []; sealed = true }

let counter = ref 0

let fresh_id () = incr counter; !counter

let reset_ids_for_testing () = counter := 0

let document () = NDocument { id = fresh_id (); kids = []; sealed = true }

(* Explicit-id constructors for the spill codec: a decoded streamed
   subtree keeps its original ids so document order survives the round
   trip. Ids come from earlier [fresh_id] calls of the same process, so
   the monotone counter never reissues them to new nodes. *)
let element_with_id ~id name =
  NElement { id; parent = orphan; name; attrs = []; kids = []; sealed = true }

let attribute_with_id ~id name value =
  NAttribute { id; parent = orphan; name; value }

let text_with_id ~id text = NText { id; parent = orphan; text }
let comment_with_id ~id text = NComment { id; parent = orphan; text }
let pi_with_id ~id ~target ~data = NPi { id; parent = orphan; target; data }

let element name = element_with_id ~id:(fresh_id ()) name
let attribute name value = attribute_with_id ~id:(fresh_id ()) name value
let text s = text_with_id ~id:(fresh_id ()) s
let comment s = comment_with_id ~id:(fresh_id ()) s
let pi ~target ~data = pi_with_id ~id:(fresh_id ()) ~target ~data

let kind = function
  | NDocument _ -> Document
  | NElement _ | NLeaf _ -> Element
  | NAttribute _ -> Attribute
  | NText _ -> Text
  | NComment _ -> Comment
  | NPi _ -> Pi

let id = function
  | NDocument { id; _ }
  | NElement { id; _ }
  | NLeaf { id; _ }
  | NAttribute { id; _ }
  | NText { id; _ }
  | NComment { id; _ }
  | NPi { id; _ } -> id

let parent_raw = function
  | NDocument _ -> orphan
  | NElement { parent; _ }
  | NLeaf { parent; _ }
  | NAttribute { parent; _ }
  | NText { parent; _ }
  | NComment { parent; _ }
  | NPi { parent; _ } -> parent

let parent n =
  let p = parent_raw n in
  if p == orphan then None else Some p

let set_parent c p =
  match c with
  | NElement r -> r.parent <- p
  | NLeaf r -> r.parent <- p
  | NAttribute r -> r.parent <- p
  | NText r -> r.parent <- p
  | NComment r -> r.parent <- p
  | NPi r -> r.parent <- p
  | NDocument _ -> assert false

(* Reversal that leaves the common zero- and one-element lists shared. *)
let rev = function ([] | [ _ ]) as l -> l | l -> List.rev l

(* Put the child and attribute lists of [n] in document order
   ([sealed = true]) or in reverse, append-ready order. *)
let orient n ~sealed =
  match n with
  | NDocument d when d.sealed <> sealed ->
    d.kids <- rev d.kids;
    d.sealed <- sealed
  | NElement e when e.sealed <> sealed ->
    e.kids <- rev e.kids;
    e.attrs <- rev e.attrs;
    e.sealed <- sealed
  | NDocument _ | NElement _ | NLeaf _ | NAttribute _ | NText _ | NComment _
  | NPi _ ->
    ()

let seal n = orient n ~sealed:true

(* Only a detached element qualifies, so no parent's child list ever
   holds the full form a leaf replaced. *)
let as_leaf n =
  match n with
  | NElement
      { id; parent; name; attrs = []; kids = [ NText { id = tid; text; _ } ]; _ }
    when tid = id + 1 && parent == orphan ->
    NLeaf { id; parent; name; text }
  | NDocument _ | NElement _ | NLeaf _ | NAttribute _ | NText _ | NComment _
  | NPi _ ->
    n

let is_leaf = function NLeaf _ -> true | _ -> false

let append_child p c =
  (match c with
   | NAttribute _ -> invalid_arg "Node.append_child: attribute child"
   | NDocument _ -> invalid_arg "Node.append_child: document child"
   | NElement _ | NLeaf _ | NText _ | NComment _ | NPi _ -> ());
  orient p ~sealed:false;
  match p with
  | NDocument d ->
    set_parent c p;
    d.kids <- c :: d.kids
  | NElement e ->
    set_parent c p;
    e.kids <- c :: e.kids
  | NLeaf _ -> invalid_arg "Node.append_child: a leaf element is final"
  | NAttribute _ | NText _ | NComment _ | NPi _ ->
    invalid_arg "Node.append_child: receiver cannot have children"

let set_attribute p a =
  match p, a with
  | NElement e, NAttribute { name; _ } ->
    let dup = function
      | NAttribute { name = n'; _ } -> Xname.equal n' name
      | _ -> false
    in
    if List.exists dup e.attrs then
      Xerror.failf XQDY0025 "duplicate attribute %s" (Xname.to_string name);
    orient p ~sealed:false;
    set_parent a p;
    e.attrs <- a :: e.attrs
  | NElement _, _ -> invalid_arg "Node.set_attribute: not an attribute"
  | NLeaf _, _ -> invalid_arg "Node.set_attribute: a leaf element is final"
  | _, _ -> invalid_arg "Node.set_attribute: receiver not an element"

let children = function
  | NDocument { kids; sealed; _ } | NElement { kids; sealed; _ } ->
    if sealed then kids else List.rev kids
  | NLeaf { id; text; _ } as n -> [ NText { id = id + 1; parent = n; text } ]
  | NAttribute _ | NText _ | NComment _ | NPi _ -> []

let attributes = function
  | NElement { attrs; sealed; _ } -> if sealed then attrs else List.rev attrs
  | NDocument _ | NLeaf _ | NAttribute _ | NText _ | NComment _ | NPi _ -> []

let name = function
  | NElement { name; _ } | NLeaf { name; _ } | NAttribute { name; _ } ->
    Some name
  | NDocument _ | NText _ | NComment _ | NPi _ -> None

let local_name = function
  | NElement { name; _ } | NLeaf { name; _ } | NAttribute { name; _ } ->
    name.Xname.local
  | NPi { target; _ } -> target
  | NDocument _ | NText _ | NComment _ -> ""

let is_element = function NElement _ | NLeaf _ -> true | _ -> false
let is_attribute = function NAttribute _ -> true | _ -> false
let is_text = function NText _ -> true | _ -> false

let attribute_value = function
  | NAttribute { value; _ } -> value
  | _ -> invalid_arg "Node.attribute_value: not an attribute"

let text_content = function
  | NText { text; _ } -> text
  | _ -> invalid_arg "Node.text_content: not a text node"

let comment_text = function
  | NComment { text; _ } -> text
  | _ -> invalid_arg "Node.comment_text: not a comment"

let pi_target = function
  | NPi { target; _ } -> target
  | _ -> invalid_arg "Node.pi_target: not a PI"

let pi_data = function
  | NPi { data; _ } -> data
  | _ -> invalid_arg "Node.pi_data: not a PI"

let string_value n =
  match n with
  | NAttribute { value = s; _ }
  | NLeaf { text = s; _ }
  | NText { text = s; _ }
  | NComment { text = s; _ }
  | NPi { data = s; _ } -> s
  | NDocument _ | NElement _ ->
    let buf = Buffer.create 64 in
    let rec go n =
      match n with
      | NText { text; _ } -> Buffer.add_string buf text
      | NElement _ | NDocument _ -> List.iter go (children n)
      | NLeaf { text; _ } -> Buffer.add_string buf text
      | NAttribute _ | NComment _ | NPi _ -> ()
    in
    go n;
    Buffer.contents buf

let typed_value n =
  match n with
  | NComment { text; _ } -> Atomic.Str text
  | NPi { data; _ } -> Atomic.Str data
  | NDocument _ | NElement _ | NLeaf _ | NAttribute _ | NText _ ->
    Atomic.Untyped (string_value n)

let copy n =
  let rec go n =
    match n with
    | NDocument _ ->
      let d = document () in
      List.iter (fun c -> append_child d (go c)) (children n);
      seal d;
      d
    | NElement { name; _ } | NLeaf { name; _ } ->
      let el = element name in
      List.iter (fun a -> set_attribute el (go a)) (attributes n);
      List.iter (fun c -> append_child el (go c)) (children n);
      seal el;
      as_leaf el
    | NAttribute { name; value; _ } -> attribute name value
    | NText { text = s; _ } -> text s
    | NComment { text; _ } -> comment text
    | NPi { target; data; _ } -> pi ~target ~data
  in
  go n

let rec root n =
  let p = parent_raw n in
  if p == orphan then n else root p

let descendants n =
  let rec go acc n =
    List.fold_left (fun acc c -> go (c :: acc) c) acc (children n)
  in
  List.rev (go [] n)

let descendant_or_self n = n :: descendants n

let ancestors n =
  let rec go acc n =
    let p = parent_raw n in
    if p == orphan then List.rev acc else go (p :: acc) p
  in
  go [] n

(* Siblings match by id: a leaf's text child is rebuilt on every read. *)
let siblings_of n =
  let p = parent_raw n in
  if p == orphan || is_attribute n then [] else children p

let following_siblings n =
  let rec after = function
    | [] -> []
    | c :: rest -> if id c = id n then rest else after rest
  in
  after (siblings_of n)

let preceding_siblings n =
  let rec before acc = function
    | [] -> []
    | c :: rest -> if id c = id n then acc else before (c :: acc) rest
  in
  before [] (siblings_of n)

let doc_order_compare a b = Int.compare (id a) (id b)

let same a b = id a = id b

let sort_in_doc_order nodes =
  (* Path steps almost always produce already-ordered, duplicate-free
     results; detect that in one pass before paying for a sort. *)
  let rec strictly_sorted = function
    | a :: (b :: _ as rest) -> id a < id b && strictly_sorted rest
    | [ _ ] | [] -> true
  in
  if strictly_sorted nodes then nodes
  else begin
    let sorted = List.sort doc_order_compare nodes in
    let rec dedup = function
      | a :: (b :: _ as rest) when id a = id b -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted
  end

(* A string block: header plus the bytes padded to a whole word, with
   at least one padding byte. *)
let string_words s = 2 + (String.length s / (Sys.word_size / 8))

let heap_words n =
  let names = Hashtbl.create 16 in
  let name_words (nm : Xname.t) =
    let seen = Option.value (Hashtbl.find_opt names nm) ~default:[] in
    if List.memq nm seen then 0
    else begin
      Hashtbl.replace names nm (nm :: seen);
      3 + string_words nm.local
      + match nm.prefix with Some p -> 2 + string_words p | None -> 0
    end
  in
  (* a node block with [fields] fields, plus a cons cell per list item *)
  let block fields = 1 + fields in
  let rec go n =
    match n with
    | NDocument { kids; _ } -> block 3 + List.fold_left cell 0 kids
    | NElement { name; attrs; kids; _ } ->
      block 6 + name_words name
      + List.fold_left cell (List.fold_left cell 0 attrs) kids
    | NLeaf { name; text; _ } -> block 4 + name_words name + string_words text
    | NAttribute { name; value; _ } ->
      block 4 + name_words name + string_words value
    | NText { text; _ } | NComment { text; _ } -> block 3 + string_words text
    | NPi { target; data; _ } ->
      block 4 + string_words target + string_words data
  and cell acc c = acc + 3 + go c in
  go n
