open Xq_xdm

(* Unescaped runs are copied whole; only the bytes that need an entity
   are written one at a time. *)
let rec escape_run buf attr s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    match String.unsafe_get s i with
    | '&' -> entity buf attr s start i "&amp;"
    | '<' -> entity buf attr s start i "&lt;"
    | '>' when not attr -> entity buf attr s start i "&gt;"
    | '"' when attr -> entity buf attr s start i "&quot;"
    | _ -> escape_run buf attr s start (i + 1)

and entity buf attr s start i e =
  Buffer.add_substring buf s start (i - start);
  Buffer.add_string buf e;
  escape_run buf attr s (i + 1) (i + 1)

let escape buf ~attr s = escape_run buf attr s 0 0

let escape_text s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:false s;
  Buffer.contents buf

let escape_attribute s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:true s;
  Buffer.contents buf

let node ?(indent = false) n =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth n =
    match Node.kind n with
    | Node.Document -> List.iter (fun c -> go depth c; nl ()) (Node.children n)
    | Node.Element when Node.is_leaf n ->
      let name = Xname.to_string (Option.get (Node.name n)) in
      pad depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      Buffer.add_char buf '>';
      escape buf ~attr:false (Node.string_value n);
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    | Node.Element ->
      let name =
        match Node.name n with
        | Some nm -> Xname.to_string nm
        | None -> assert false
      in
      pad depth;
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      List.iter
        (fun a ->
          Buffer.add_char buf ' ';
          (match Node.name a with
           | Some nm -> Buffer.add_string buf (Xname.to_string nm)
           | None -> ());
          Buffer.add_string buf "=\"";
          escape buf ~attr:true (Node.attribute_value a);
          Buffer.add_char buf '"')
        (Node.attributes n);
      let children = Node.children n in
      if children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let only_text =
          List.for_all (fun c -> Node.kind c = Node.Text) children
        in
        if only_text || not indent then
          List.iter (go (depth + 1)) children
        else begin
          nl ();
          List.iter (fun c -> go (depth + 1) c; nl ()) children;
          pad depth
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end
    | Node.Attribute ->
      (match Node.name n with
       | Some nm -> Buffer.add_string buf (Xname.to_string nm)
       | None -> ());
      Buffer.add_string buf "=\"";
      escape buf ~attr:true (Node.attribute_value n);
      Buffer.add_char buf '"'
    | Node.Text -> escape buf ~attr:false (Node.text_content n)
    | Node.Comment ->
      Buffer.add_string buf "<!--";
      Buffer.add_string buf (Node.comment_text n);
      Buffer.add_string buf "-->"
    | Node.Pi ->
      Buffer.add_string buf "<?";
      Buffer.add_string buf (Node.pi_target n);
      if Node.pi_data n <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Node.pi_data n)
      end;
      Buffer.add_string buf "?>"
  in
  go 0 n;
  Buffer.contents buf

let item ?indent = function
  | Item.Node n -> node ?indent n
  | Item.Atomic a -> Atomic.to_string a

let sequence ?indent seq =
  let buf = Buffer.create 256 in
  let rec go prev_atomic = function
    | [] -> ()
    | it :: rest ->
      let is_atomic = not (Item.is_node it) in
      if prev_atomic && is_atomic then Buffer.add_char buf ' ';
      Buffer.add_string buf (item ?indent it);
      go is_atomic rest
  in
  go false seq;
  Buffer.contents buf
