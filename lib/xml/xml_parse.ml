open Xq_xdm
module Governor = Xq_governor.Governor

exception Parse_error of { line : int; column : int; message : string }

let default_max_depth = 512

(* Where a limit came from decides how a trip surfaces: a limit the
   caller set (or the built-in default) raises a positioned
   [Parse_error]; a limit inherited from the installed resource
   governor raises the structured [XQENG0005] so the CLI's exit-code
   taxonomy classifies it as a resource trip. *)
type limit_source = Explicit | Governed | Default

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
  keep_whitespace : bool;
  mutable depth : int;
  max_depth : int;
  depth_src : limit_source;
  names : Xname.table;  (* element and attribute names of this parse *)
  text : Buffer.t;  (* pending character data; see [flush_text] *)
  mutable keep_text : bool;  (* it has an entity, CDATA or a non-space *)
}

let error st msg =
  raise (Parse_error { line = st.line; column = st.pos - st.bol + 1; message = msg })

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.pos]

let advance st =
  (if peek st = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let eat st c =
  if peek st = c then advance st
  else error st (Printf.sprintf "expected %C, found %C" c (peek st))

let rec matches_at src pos s i =
  i = String.length s
  || String.unsafe_get src (pos + i) = String.unsafe_get s i
     && matches_at src pos s (i + 1)

let looking_at st s =
  st.pos + String.length s <= String.length st.src
  && matches_at st.src st.pos s 0

let skip_string st s =
  if looking_at st s then
    for _ = 1 to String.length s do advance st done
  else error st (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st = while (not (at_end st)) && is_space (peek st) do advance st done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Skip a name, returning where it started. *)
let skip_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let start = st.pos in
  while (not (at_end st)) && is_name_char (peek st) do advance st done;
  start

let read_name st =
  let start = skip_name st in
  String.sub st.src start (st.pos - start)

(* An element or attribute name, interned for this parse. *)
let read_qname st =
  let start = skip_name st in
  Xname.intern st.names st.src start (st.pos - start)

let read_char_ref st =
  (* after "&#" *)
  let hex = peek st = 'x' in
  if hex then advance st;
  let start = st.pos in
  while (not (at_end st)) && peek st <> ';' do advance st done;
  let digits = String.sub st.src start (st.pos - start) in
  eat st ';';
  let code =
    try int_of_string (if hex then "0x" ^ digits else digits)
    with Failure _ -> error st "bad character reference"
  in
  (* Encode the code point as UTF-8. *)
  let b = Buffer.create 4 in
  (try Buffer.add_utf_8_uchar b (Uchar.of_int code)
   with Invalid_argument _ -> error st "character reference out of range");
  Buffer.contents b

let read_entity st =
  (* after '&' *)
  if peek st = '#' then begin advance st; read_char_ref st end
  else begin
    let name = read_name st in
    eat st ';';
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | other -> error st (Printf.sprintf "unknown entity &%s;" other)
  end

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected a quoted value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string buf (read_entity st);
      go ()
    end
    else if peek st = '<' then error st "'<' in attribute value"
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let skip_comment st =
  (* after "<!--" *)
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated comment"
    else if looking_at st "-->" then begin
      let body = String.sub st.src start (st.pos - start) in
      skip_string st "-->";
      body
    end
    else begin advance st; go () end
  in
  go ()

let read_cdata st =
  (* after "<![CDATA[" *)
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated CDATA section"
    else if looking_at st "]]>" then begin
      let body = String.sub st.src start (st.pos - start) in
      skip_string st "]]>";
      body
    end
    else begin advance st; go () end
  in
  go ()

let read_pi st =
  (* after "<?" *)
  let target = read_name st in
  skip_ws st;
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated processing instruction"
    else if looking_at st "?>" then begin
      let data = String.sub st.src start (st.pos - start) in
      skip_string st "?>";
      (target, data)
    end
    else begin advance st; go () end
  in
  go ()

let skip_doctype st =
  (* after "<!DOCTYPE"; skip to matching '>' tracking bracket depth *)
  let depth = ref 0 in
  let rec go () =
    if at_end st then error st "unterminated DOCTYPE"
    else
      match peek st with
      | '[' -> incr depth; advance st; go ()
      | ']' -> decr depth; advance st; go ()
      | '>' when !depth = 0 -> advance st
      | _ -> advance st; go ()
  in
  go ()

let limit_trip st src msg =
  match (src : limit_source) with
  | Governed -> Governor.input_trip msg
  | Explicit | Default -> error st msg

let enter_element st =
  Governor.tick ();
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    limit_trip st st.depth_src
      (Printf.sprintf "element nesting deeper than %d" st.max_depth)

let rec parse_element st =
  (* at '<' of a start tag *)
  eat st '<';
  enter_element st;
  let name = read_qname st in
  let el = Node.element name in
  let rec attrs () =
    skip_ws st;
    match peek st with
    | '>' -> advance st; parse_content st el name
    | '/' -> advance st; eat st '>'
    | c when is_name_start c ->
      let aname = read_qname st in
      skip_ws st;
      eat st '=';
      skip_ws st;
      let v = read_attr_value st in
      Node.set_attribute el (Node.attribute aname v);
      attrs ()
    | _ -> error st "malformed start tag"
  in
  attrs ();
  Node.seal el;
  st.depth <- st.depth - 1;
  Node.as_leaf el

(* Character data accumulates in the parse's one [text] buffer (empty
   whenever an element opens or closes, since every markup item flushes
   it first) and becomes a text node only when it is kept: the
   whitespace-only runs between elements are dropped without ever
   being copied out. *)
and flush_text st el =
  if Buffer.length st.text > 0 then begin
    if st.keep_text || st.keep_whitespace then
      Node.append_child el (Node.text (Buffer.contents st.text));
    Buffer.clear st.text;
    st.keep_text <- false
  end

and parse_content st el name =
  let rec go () =
    if at_end st then
      error st
        (Printf.sprintf "unterminated element <%s>" (Xname.to_string name))
    else if looking_at st "</" then begin
      flush_text st el;
      skip_string st "</";
      (* one spelling, one interned name: the end tag matches by identity *)
      let close = read_qname st in
      if close != name then
        error st
          (Printf.sprintf "mismatched end tag </%s>, expected </%s>"
             (Xname.to_string close) (Xname.to_string name));
      skip_ws st;
      eat st '>'
    end
    else if looking_at st "<!--" then begin
      flush_text st el;
      skip_string st "<!--";
      Node.append_child el (Node.comment (skip_comment st));
      go ()
    end
    else if looking_at st "<![CDATA[" then begin
      skip_string st "<![CDATA[";
      Buffer.add_string st.text (read_cdata st);
      st.keep_text <- true;  (* CDATA forces the text to be kept *)
      go ()
    end
    else if looking_at st "<?" then begin
      flush_text st el;
      skip_string st "<?";
      let target, data = read_pi st in
      Node.append_child el (Node.pi ~target ~data);
      go ()
    end
    else if peek st = '<' then begin
      flush_text st el;
      Node.append_child el (parse_element st);
      go ()
    end
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string st.text (read_entity st);
      st.keep_text <- true;
      go ()
    end
    else begin
      (* a run of plain characters, up to the next markup or entity *)
      let start = st.pos in
      while
        (not (at_end st))
        &&
        let c = peek st in
        c <> '<' && c <> '&'
      do
        if not (is_space (peek st)) then st.keep_text <- true;
        advance st
      done;
      Buffer.add_substring st.text st.src start (st.pos - start);
      go ()
    end
  in
  go ()

let parse_misc st doc =
  (* prolog / epilog items: comments, PIs, whitespace *)
  let rec go () =
    skip_ws st;
    if looking_at st "<!--" then begin
      skip_string st "<!--";
      Node.append_child doc (Node.comment (skip_comment st));
      go ()
    end
    else if looking_at st "<?xml" then begin
      skip_string st "<?";
      let _ = read_pi st in
      go ()
    end
    else if looking_at st "<?" then begin
      skip_string st "<?";
      let target, data = read_pi st in
      Node.append_child doc (Node.pi ~target ~data);
      go ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_string st "<!DOCTYPE";
      skip_doctype st;
      go ()
    end
  in
  go ()

let make_state ?(keep_whitespace = false) ?max_depth ?max_bytes src =
  let gov_depth, gov_bytes = Governor.input_limits () in
  let max_depth, depth_src =
    match (max_depth, gov_depth) with
    | Some d, _ -> (d, Explicit)
    | None, Some d -> (d, Governed)
    | None, None -> (default_max_depth, Default)
  in
  let st =
    {
      src;
      pos = 0;
      line = 1;
      bol = 0;
      keep_whitespace;
      depth = 0;
      max_depth;
      depth_src;
      names = Xname.table ();
      text = Buffer.create 64;
      keep_text = false;
    }
  in
  (match (max_bytes, gov_bytes) with
   | Some cap, _ when String.length src > cap ->
     limit_trip st Explicit
       (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
          (String.length src) cap)
   | None, Some cap when String.length src > cap ->
     limit_trip st Governed
       (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
          (String.length src) cap)
   | _ -> ());
  st

let parse ?keep_whitespace ?max_depth ?max_bytes src =
  let st = make_state ?keep_whitespace ?max_depth ?max_bytes src in
  let doc = Node.document () in
  parse_misc st doc;
  if at_end st || peek st <> '<' then error st "expected a root element";
  Node.append_child doc (parse_element st);
  parse_misc st doc;
  if not (at_end st) then error st "content after the root element";
  Node.seal doc;
  doc

let parse_fragment ?keep_whitespace ?max_depth ?max_bytes src =
  let st = make_state ?keep_whitespace ?max_depth ?max_bytes src in
  skip_ws st;
  if at_end st || peek st <> '<' then error st "expected an element";
  let el = parse_element st in
  skip_ws st;
  if not (at_end st) then error st "content after the element";
  el

let parse_file ?keep_whitespace ?max_depth ?max_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse ?keep_whitespace ?max_depth ?max_bytes s

let error_to_string = function
  | Parse_error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _ -> None
