(* Children significant for deep-equal: drop comments and PIs. *)
let significant_children n =
  List.filter
    (fun c ->
      match Node.kind c with
      | Node.Comment | Node.Pi -> false
      | Node.Document | Node.Element | Node.Attribute | Node.Text -> true)
    (Node.children n)

let rec nodes a b =
  match Node.kind a, Node.kind b with
  | Node.Document, Node.Document -> children_equal a b
  | Node.Element, Node.Element when Node.is_leaf a && Node.is_leaf b ->
    name_equal a b && Node.string_value a = Node.string_value b
  | Node.Element, Node.Element ->
    name_equal a b && attrs_equal a b && children_equal a b
  | Node.Attribute, Node.Attribute ->
    name_equal a b && Node.attribute_value a = Node.attribute_value b
  | Node.Text, Node.Text -> Node.text_content a = Node.text_content b
  | Node.Comment, Node.Comment -> Node.comment_text a = Node.comment_text b
  | Node.Pi, Node.Pi ->
    Node.pi_target a = Node.pi_target b && Node.pi_data a = Node.pi_data b
  | _, _ -> false

and name_equal a b =
  match Node.name a, Node.name b with
  | Some x, Some y -> Xname.equal x y
  | None, None -> true
  | Some _, None | None, Some _ -> false

and attrs_equal a b =
  let key n =
    let full = match Node.name n with
      | Some nm -> Xname.to_string nm
      | None -> ""
    in
    (full, Node.attribute_value n)
  in
  let sort l = List.sort compare (List.map key l) in
  sort (Node.attributes a) = sort (Node.attributes b)

and children_equal a b =
  let ca = significant_children a and cb = significant_children b in
  List.length ca = List.length cb && List.for_all2 nodes ca cb

let items a b =
  match a, b with
  | Item.Atomic x, Item.Atomic y -> Atomic.deep_eq x y
  | Item.Node x, Item.Node y -> nodes x y
  | Item.Node _, Item.Atomic _ | Item.Atomic _, Item.Node _ -> false

let sequences a b =
  List.length a = List.length b && List.for_all2 items a b

let rec hash_node n =
  match Node.kind n with
  | Node.Document -> Hashtbl.hash (`Doc (List.map hash_node (significant_children n)))
  | Node.Element when Node.is_leaf n ->
    (* the full form's hash: no attributes, one text child *)
    Hashtbl.hash
      (`El (Node.local_name n, [], [ Hashtbl.hash (`Tx (Node.string_value n)) ]))
  | Node.Element ->
    let attrs =
      List.sort compare
        (List.map
           (fun a -> (Node.local_name a, Node.attribute_value a))
           (Node.attributes n))
    in
    Hashtbl.hash
      (`El (Node.local_name n, attrs, List.map hash_node (significant_children n)))
  | Node.Attribute -> Hashtbl.hash (`At (Node.local_name n, Node.attribute_value n))
  | Node.Text -> Hashtbl.hash (`Tx (Node.text_content n))
  | Node.Comment -> Hashtbl.hash (`Cm (Node.comment_text n))
  | Node.Pi -> Hashtbl.hash (`Pi (Node.pi_target n, Node.pi_data n))

let hash_item = function
  | Item.Atomic a -> Atomic.hash a
  | Item.Node n -> hash_node n

let hash_sequence seq = Hashtbl.hash (List.map hash_item seq)
