open Xq_xdm

type part =
  | P_el of string * (string * string) list * part list
  | P_txt of string
  | P_attr of string * string
  | P_comment of string

let el name parts = P_el (name, [], parts)
let el_text name text = P_el (name, [], [ P_txt text ])
let el_attrs name attrs parts = P_el (name, attrs, parts)
let txt s = P_txt s
let attr name value = P_attr (name, value)
let comment_part s = P_comment s

(* Names go through one intern table per built document, as in a parse.
   Each element is finished before it is attached, so one with no
   attributes and a single text part, whose text node is created right
   after it, becomes a leaf as it does in [Xml_reader]. [add node p]
   attaches part [p] to the open [node]. *)
let builder names =
  let name s = Xname.intern names s 0 (String.length s) in
  let rec build = function
    | P_el (n, attrs, parts) ->
      let node = Node.element (name n) in
      List.iter
        (fun (k, v) -> Node.set_attribute node (Node.attribute (name k) v))
        attrs;
      List.iter (add node) parts;
      Node.seal node;
      Node.as_leaf node
    | P_txt s -> Node.text s
    | P_attr (k, v) -> Node.attribute (name k) v
    | P_comment s -> Node.comment s
  and add node = function
    | P_attr (k, v) -> Node.set_attribute node (Node.attribute (name k) v)
    | (P_el _ | P_txt _ | P_comment _) as p -> Node.append_child node (build p)
  in
  (build, add)

let build p = fst (builder (Xname.table ())) p

let build_document parts =
  let build, _ = builder (Xname.table ()) in
  let d = Node.document () in
  List.iter (fun p -> Node.append_child d (build p)) parts;
  Node.seal d;
  d

let doc part = build_document [ part ]

let fill root f =
  let build, add = builder (Xname.table ()) in
  let d = Node.document () in
  let r = build (el root []) in
  f (add r);
  Node.seal r;
  Node.append_child d r;
  Node.seal d;
  d
