(* The one XML reader: a chunked window over the source, the lexer, the
   whole build, and the one projecting walk, which runs a path automaton
   ([plan]) and either builds an element, into a tree or to a scan's
   sink, or validates and drops it.

   The window is [buf.[pos .. lim)]. A string is read in place; a file
   or fill function refills a compacting 64 KB window. A refill keeps
   every byte from [pos] on, and from the absolute offset [keep] on when
   a token still needs bytes it has passed (a name being interned, a
   text run or comment body being copied out). Line and column are not
   tracked per byte: newlines are counted when compaction discards
   bytes and, up to [pos], when an error is raised.

   A built element interns its names and copies its text straight from
   the window. A dropped element (one the projection does not build)
   costs no interning, no text buffering and no allocation: its name is
   copied onto [stack] so its end tag can be byte-compared, its
   attribute names stay there for the duplicate check, and entities,
   comments, CDATA and PIs are validated in place. Both paths raise the
   same errors at the same positions. *)

open Xq_xdm
module Governor = Xq_governor.Governor

exception Parse_error of { line : int; column : int; message : string }

let default_max_depth = 512
let chunk_size = 65536

(* Where a limit came from decides how a trip surfaces: a limit the
   caller set (or the built-in default) raises a positioned
   [Parse_error]; a limit inherited from the installed resource
   governor raises the structured [XQENG0005] so the CLI's exit-code
   taxonomy classifies it as a resource trip. *)
type limit_source = Explicit | Governed | Default

type supply =
  | Slice of int  (* in place; [lim] grows a chunk per refill up to this *)
  | Fill of (Bytes.t -> int -> int -> int)  (* a compacting window *)

type t = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  mutable eof : bool;
  mutable base : int;  (* absolute offset of [buf.[0]] *)
  mutable keep : int;  (* absolute offset a refill must keep, or [max_int] *)
  mutable line : int;  (* line of [counted] *)
  mutable bol : int;  (* absolute offset of that line's start *)
  mutable counted : int;  (* newlines before this absolute offset counted *)
  supply : supply;
  size : int;
  source_name : string;
  faults : bool;  (* draw read faults at each refill *)
  mutable fault_ordinal : int;  (* cycles the injected-fault mode *)
  names : Xname.table;  (* element and attribute names of this read *)
  text : Buffer.t;  (* pending character data; see [flush_text] *)
  mutable keep_text : bool;  (* it has an entity, CDATA or a non-space *)
  mutable stack : Bytes.t;  (* open element names, then attribute names *)
  mutable sp : int;
  mutable attrs : int array;  (* (offset, length) on [stack] per attribute *)
  mutable keep_whitespace : bool;
  mutable depth : int;
  mutable max_depth : int;
  mutable depth_src : limit_source;
}

let make ~faults ~source_name ~size supply buf =
  {
    buf;
    pos = 0;
    lim = 0;
    eof = false;
    base = 0;
    keep = max_int;
    line = 1;
    bol = 0;
    counted = 0;
    supply;
    size;
    source_name;
    faults;
    fault_ordinal = 0;
    names = Xname.table ();
    text = Buffer.create 64;
    keep_text = false;
    stack = Bytes.create 256;
    sp = 0;
    attrs = Array.make 16 0;
    keep_whitespace = false;
    depth = 0;
    max_depth = default_max_depth;
    depth_src = Default;
  }

(* The buffer of an in-place string is never written: only a [Fill]
   window compacts. *)
let of_string ?(faults = false) s =
  let n = String.length s in
  make ~faults ~source_name:"<string>" ~size:n (Slice n) (Bytes.unsafe_of_string s)

let of_fill ?(faults = false) ?(source_name = "<fill>") ~size fill =
  make ~faults ~source_name ~size (Fill fill) (Bytes.create chunk_size)

let with_file ?faults path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fill buf off len =
        try input ic buf off len
        with Sys_error m ->
          Governor.read_trip (Printf.sprintf "read failed on %s: %s" path m)
      in
      f (of_fill ?faults ~source_name:path ~size:(in_channel_length ic) fill))

(* --- positions and errors ------------------------------------------------ *)

let count_lines r upto =
  let buf = r.buf in
  for i = r.counted - r.base to upto - 1 do
    if Bytes.unsafe_get buf i = '\n' then begin
      r.line <- r.line + 1;
      r.bol <- r.base + i + 1
    end
  done;
  r.counted <- r.base + upto

let error r msg =
  count_lines r r.pos;
  raise
    (Parse_error
       { line = r.line; column = r.base + r.pos - r.bol + 1; message = msg })

let limit_trip r src msg =
  match (src : limit_source) with
  | Governed -> Governor.input_trip msg
  | Explicit | Default -> error r msg

(* --- refills ------------------------------------------------------------- *)

(* Read-I/O fault injection: the sixth [XQ_FAULTS] splitmix64 stream is
   drawn before each refill of a streamed scan. A drawn fault cycles
   deterministically through four modes — a short read (benign: the
   parse continues and the query completes identically), an injected
   EIO ([XQENG0008]), a truncation (the stream ends mid-document,
   surfacing as the same clean parse error a truncated file gives), and
   a torn read ([XQENG0008]) — so a seed sweep exercises the whole
   failure surface. Returns how many bytes to ask for. *)
let draw_fault r want =
  match Governor.read_fault () with
  | None -> want
  | Some seed -> (
    let mode = r.fault_ordinal land 3 in
    r.fault_ordinal <- r.fault_ordinal + 1;
    let at = r.base + r.lim in
    match mode with
    | 0 -> max 1 (want / 8)
    | 1 ->
      Governor.read_trip
        (Printf.sprintf
           "injected read-I/O fault (EIO) on %s at byte %d (XQ_FAULTS seed %d)"
           r.source_name at seed)
    | 2 ->
      r.eof <- true;
      0
    | _ ->
      Governor.read_trip
        (Printf.sprintf "torn read detected on %s at byte %d (XQ_FAULTS seed %d)"
           r.source_name at seed))

let compact r =
  let from = min r.pos (r.keep - r.base) in
  if from > 0 then begin
    count_lines r from;
    Bytes.blit r.buf from r.buf 0 (r.lim - from);
    r.base <- r.base + from;
    r.pos <- r.pos - from;
    r.lim <- r.lim - from
  end;
  if Bytes.length r.buf - r.lim < chunk_size / 4 then begin
    let b = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 b 0 r.lim;
    r.buf <- b
  end

let refill r =
  if not r.eof then
    match r.supply with
    | Slice len ->
      let want = if r.faults then draw_fault r chunk_size else chunk_size in
      if not r.eof then begin
        let n = min want (len - r.lim) in
        if n = 0 then r.eof <- true else r.lim <- r.lim + n
      end
    | Fill fill ->
      compact r;
      let want = Bytes.length r.buf - r.lim in
      let want = if r.faults then draw_fault r want else want in
      if not r.eof then begin
        let n = fill r.buf r.lim want in
        if n = 0 then r.eof <- true else r.lim <- r.lim + n
      end

(* Is there a byte at [pos]? Refills until there is or the source ends. *)
let rec more r = r.pos < r.lim || ((not r.eof) && (refill r; more r))

let rec ensure r n = r.lim - r.pos >= n || ((not r.eof) && (refill r; ensure r n))

let peek r = if more r then Bytes.unsafe_get r.buf r.pos else '\000'

let advance r = r.pos <- r.pos + 1

let abs_pos r = r.base + r.pos

(* Hold the bytes from [pos] on across refills until [release]. *)
let hold r =
  let outer = r.keep in
  if r.base + r.pos < outer then r.keep <- r.base + r.pos;
  outer

let release r outer = r.keep <- outer

let eat r c =
  if peek r = c then advance r
  else error r (Printf.sprintf "expected %C, found %C" c (peek r))

let rec spells buf pos s i =
  i = String.length s
  || Bytes.unsafe_get buf (pos + i) = String.unsafe_get s i
     && spells buf pos s (i + 1)

let looking_at r s = ensure r (String.length s) && spells r.buf r.pos s 0

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let rec skip_ws r =
  if more r && is_space (Bytes.unsafe_get r.buf r.pos) then begin
    advance r;
    skip_ws r
  end

(* 2: may start a name; 1: may continue one; 0: neither. *)
let name_class =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> '\002'
      | '0' .. '9' | '-' | '.' -> '\001'
      | _ -> if i >= 128 then '\002' else '\000')

let is_name_start c = String.unsafe_get name_class (Char.code c) = '\002'
let is_name_char c = String.unsafe_get name_class (Char.code c) <> '\000'

(* A name at [pos]: returns its start in [buf]; it ends at [pos]. Both
   stay valid until the next refill. *)
let scan_name r =
  if not (is_name_start (peek r)) then error r "expected a name";
  let outer = hold r in
  let start = abs_pos r in
  let continue = ref true in
  while !continue do
    let i = ref r.pos in
    while !i < r.lim && is_name_char (Bytes.unsafe_get r.buf !i) do incr i done;
    r.pos <- !i;
    continue := !i = r.lim && more r
  done;
  release r outer;
  start - r.base

(* --- entities and attribute values --------------------------------------- *)

let is_xml_char v =
  v = 0x9 || v = 0xA || v = 0xD
  || (v >= 0x20 && v <= 0xD7FF)
  || (v >= 0xE000 && v <= 0xFFFD)
  || (v >= 0x10000 && v <= 0x10FFFF)

let digit_value hex c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' when hex -> Char.code c - 87
  | 'A' .. 'F' when hex -> Char.code c - 55
  | _ -> -1

(* After "&#": [0-9]+ or x[0-9a-fA-F]+, then ';', naming an XML Char.
   Everything up to the ';' is consumed before the reference is judged,
   so a malformed one reports the position after its ';'. *)
let read_char_ref r into =
  let hex = peek r = 'x' in
  if hex then advance r;
  let base = if hex then 16 else 10 in
  let v = ref 0 and digits = ref 0 and ok = ref true in
  while more r && Bytes.unsafe_get r.buf r.pos <> ';' do
    let d = digit_value hex (Bytes.unsafe_get r.buf r.pos) in
    if d < 0 then ok := false else v := min ((!v * base) + d) 0x110000;
    incr digits;
    advance r
  done;
  eat r ';';
  if (not !ok) || !digits = 0 then error r "bad character reference";
  if not (Uchar.is_valid !v) then error r "character reference out of range";
  if not (is_xml_char !v) then error r "bad character reference";
  match into with
  | Some b -> Buffer.add_utf_8_uchar b (Uchar.of_int !v)
  | None -> ()

let predefined buf s len =
  if len = 2 && spells buf s "lt" 0 then '<'
  else if len = 2 && spells buf s "gt" 0 then '>'
  else if len = 3 && spells buf s "amp" 0 then '&'
  else if len = 4 && spells buf s "apos" 0 then '\''
  else if len = 4 && spells buf s "quot" 0 then '"'
  else '\000'

(* After '&': appends the replacement text to [into], if given. *)
let read_entity r into =
  if peek r = '#' then begin
    advance r;
    read_char_ref r into
  end
  else begin
    let s = scan_name r in
    let len = r.pos - s in
    let c = predefined r.buf s len in
    let unknown = if c = '\000' then Bytes.sub_string r.buf s len else "" in
    eat r ';';
    if c = '\000' then error r (Printf.sprintf "unknown entity &%s;" unknown);
    match into with Some b -> Buffer.add_char b c | None -> ()
  end

(* Index of the first [quote], '&' or '<' in [buf.[i .. lim)], else [lim]. *)
let rec value_run buf i lim quote =
  if i < lim then
    match Bytes.unsafe_get buf i with
    | '&' | '<' -> i
    | c -> if c = quote then i else value_run buf (i + 1) lim quote
  else lim

(* A quoted attribute value; the string is built only when [build]. *)
let read_attr_value r ~build =
  let quote = peek r in
  if quote <> '"' && quote <> '\'' then error r "expected a quoted value";
  advance r;
  let stop = value_run r.buf r.pos r.lim quote in
  if build && stop < r.lim && Bytes.unsafe_get r.buf stop = quote then begin
    (* the common case: the whole value is in the window, no entity *)
    let v = Bytes.sub_string r.buf r.pos (stop - r.pos) in
    r.pos <- stop + 1;
    v
  end
  else begin
    let into = if build then Some r.text else None in
    let finished = ref false in
    while not !finished do
      let seg = r.pos in
      let stop = value_run r.buf seg r.lim quote in
      if build then Buffer.add_subbytes r.text r.buf seg (stop - seg);
      r.pos <- stop;
      if stop = r.lim then begin
        if not (more r) then error r "unterminated attribute value"
      end
      else
        match Bytes.unsafe_get r.buf stop with
        | '&' ->
          advance r;
          read_entity r into
        | '<' -> error r "'<' in attribute value"
        | _ ->
          advance r;
          finished := true
    done;
    if build then begin
      let v = Buffer.contents r.text in
      Buffer.clear r.text;
      v
    end
    else ""
  end

(* --- comments, CDATA, PIs, DOCTYPE --------------------------------------- *)

(* Past the next [term]; returns the body before it when [build]. *)
let scan_to r term ~build ~unterminated =
  let t0 = String.unsafe_get term 0 in
  let outer = if build then hold r else r.keep in
  let start = abs_pos r in
  let found = ref false in
  while not !found do
    let i = ref r.pos in
    while !i < r.lim && Bytes.unsafe_get r.buf !i <> t0 do incr i done;
    r.pos <- !i;
    if not (more r) then error r unterminated
    else if looking_at r term then found := true
    else advance r
  done;
  let body =
    if build then Bytes.sub_string r.buf (start - r.base) (abs_pos r - start)
    else ""
  in
  r.pos <- r.pos + String.length term;
  release r outer;
  body

let skip_comment r ~build =
  (* after "<!--" *)
  scan_to r "-->" ~build ~unterminated:"unterminated comment"

let read_cdata r ~build =
  (* after "<![CDATA[" *)
  scan_to r "]]>" ~build ~unterminated:"unterminated CDATA section"

let read_pi r ~build =
  (* after "<?" *)
  let s = scan_name r in
  let target = if build then Bytes.sub_string r.buf s (r.pos - s) else "" in
  skip_ws r;
  let data =
    scan_to r "?>" ~build ~unterminated:"unterminated processing instruction"
  in
  (target, data)

let skip_doctype r =
  (* after "<!DOCTYPE"; skip to the matching '>' tracking bracket depth *)
  let depth = ref 0 and finished = ref false in
  while not !finished do
    if not (more r) then error r "unterminated DOCTYPE";
    (match Bytes.unsafe_get r.buf r.pos with
     | '[' -> incr depth
     | ']' -> decr depth
     | '>' when !depth = 0 -> finished := true
     | _ -> ());
    advance r
  done

(* --- element names ------------------------------------------------------- *)

let push_bytes r src off len =
  if r.sp + len > Bytes.length r.stack then
    r.stack <- Bytes.extend r.stack 0 (max len (Bytes.length r.stack));
  Bytes.blit src off r.stack r.sp len;
  r.sp <- r.sp + len

let stacked r off len = Bytes.sub_string r.stack off len

let rec same_bytes a aoff b boff len =
  len = 0
  || Bytes.unsafe_get a aoff = Bytes.unsafe_get b boff
     && same_bytes a (aoff + 1) b (boff + 1) (len - 1)

(* At '<' of a start tag: ticks the governor, checks the depth and
   pushes the name onto [stack], returning its offset there. *)
let open_tag r =
  advance r;
  Governor.tick ();
  r.depth <- r.depth + 1;
  if r.depth > r.max_depth then
    limit_trip r r.depth_src
      (Printf.sprintf "element nesting deeper than %d" r.max_depth);
  let s = scan_name r in
  let off = r.sp in
  push_bytes r r.buf s (r.pos - s);
  off

(* At "</": the end tag must spell the name at [stack.[off ..]]. *)
let end_tag r off len =
  r.pos <- r.pos + 2;
  let s = scan_name r in
  let clen = r.pos - s in
  if clen <> len || not (same_bytes r.buf s r.stack off len) then
    error r
      (Printf.sprintf "mismatched end tag </%s>, expected </%s>"
         (Bytes.sub_string r.buf s clen) (stacked r off len));
  skip_ws r;
  eat r '>'

let close_element r off =
  r.depth <- r.depth - 1;
  r.sp <- off

let unterminated r off len =
  error r (Printf.sprintf "unterminated element <%s>" (stacked r off len))

(* --- attributes ---------------------------------------------------------- *)

(* The rest of a start tag; true when content follows ('>'), false on
   "/>". A built element gets its attributes (and the duplicate check
   with them) from [Node.set_attribute]. *)
let rec attrs_build r el =
  skip_ws r;
  match peek r with
  | '>' ->
    advance r;
    true
  | '/' ->
    advance r;
    eat r '>';
    false
  | c when is_name_start c ->
    let s = scan_name r in
    let name =
      Xname.intern r.names (Bytes.unsafe_to_string r.buf) s (r.pos - s)
    in
    skip_ws r;
    eat r '=';
    skip_ws r;
    let v = read_attr_value r ~build:true in
    Node.set_attribute el (Node.attribute name v);
    attrs_build r el
  | _ -> error r "malformed start tag"

(* A dropped element's attributes: names go onto [stack] above the
   element's own, [n] so far, for the same duplicate check, and are
   popped back to [top] when the tag ends. *)
let rec attrs_skip r top n =
  skip_ws r;
  match peek r with
  | '>' ->
    advance r;
    r.sp <- top;
    true
  | '/' ->
    advance r;
    eat r '>';
    r.sp <- top;
    false
  | c when is_name_start c ->
    let s = scan_name r in
    let off = r.sp and len = r.pos - s in
    push_bytes r r.buf s len;
    skip_ws r;
    eat r '=';
    skip_ws r;
    ignore (read_attr_value r ~build:false);
    for i = 0 to n - 1 do
      if
        r.attrs.(2 * i + 1) = len
        && same_bytes r.stack r.attrs.(2 * i) r.stack off len
      then
        Xerror.failf Xerror.XQDY0025 "duplicate attribute %s"
          (stacked r off len)
    done;
    if 2 * n + 2 > Array.length r.attrs then
      r.attrs <- Array.append r.attrs r.attrs;
    r.attrs.(2 * n) <- off;
    r.attrs.(2 * n + 1) <- len;
    attrs_skip r top (n + 1)
  | _ -> error r "malformed start tag"

(* --- the build ----------------------------------------------------------- *)

(* The path automaton of a read (see the interface). The document node
   holds state 1; state 0 is dead and never stepped. *)
type plan = {
  step : int -> Bytes.t -> int -> int -> int;
  keep : int;
  whole : int;
}

type sink = { on_match : Node.t -> unit; on_capture : int -> unit }

(* A whole build's automaton: every element is in state 0. *)
let unprojected = { step = (fun _ _ _ _ -> 0); keep = 0; whole = 0 }

(* The state of the element whose name is on [stack] at [off]. *)
let child_state r p state off =
  if state = 0 then 0 else p.step state r.stack off (r.sp - off)

(* Character data accumulates in [text] (empty whenever an element
   opens or closes, since every markup item flushes it first) and
   becomes a text node only when it is kept: the whitespace-only runs
   between elements are dropped without ever being copied out. *)
let flush_text r el =
  if Buffer.length r.text > 0 && (r.keep_text || r.keep_whitespace) then
    Node.append_child el (Node.text (Buffer.contents r.text));
  Buffer.clear r.text;
  r.keep_text <- false

let rec spaces buf i lim =
  if i < lim && is_space (Bytes.unsafe_get buf i) then spaces buf (i + 1) lim
  else i

let rec chars buf i lim =
  if i < lim then
    match Bytes.unsafe_get buf i with '<' | '&' -> i | _ -> chars buf (i + 1) lim
  else lim

(* A run of character data in a built element, up to the next markup or
   entity. A run that is the whole text node (nothing pending, markup
   other than CDATA next) becomes one straight from the window. *)
let text_run r el =
  let outer = hold r in
  let start = abs_pos r in
  let solid = ref false and continue = ref true in
  while !continue do
    let i = if !solid then r.pos else spaces r.buf r.pos r.lim in
    if (not !solid) && i < r.lim then
      solid := (match Bytes.unsafe_get r.buf i with '<' | '&' -> false | _ -> true);
    r.pos <- (if !solid then chars r.buf i r.lim else i);
    continue := r.pos = r.lim && more r
  done;
  let whole =
    Buffer.length r.text = 0
    && r.pos < r.lim
    && Bytes.unsafe_get r.buf r.pos = '<'
    && not (looking_at r "<![CDATA[")
  in
  let s = start - r.base and len = abs_pos r - start in
  if whole then begin
    if !solid || r.keep_text || r.keep_whitespace then
      Node.append_child el (Node.text (Bytes.sub_string r.buf s len));
    r.keep_text <- false
  end
  else begin
    Buffer.add_subbytes r.text r.buf s len;
    if !solid then r.keep_text <- true
  end;
  release r outer

(* The second byte of markup at [pos], or '\000'. *)
let markup r = if ensure r 2 then Bytes.unsafe_get r.buf (r.pos + 1) else '\000'

type item = End | Element | Other

(* The next item of content that is not built: the end tag of the
   element spelled [stack.[off .. off+len)] (consumed and checked), a
   child element (its '<' left unread), or anything else, validated and
   dropped. *)
let skip_item r off len =
  if not (more r) then unterminated r off len;
  match Bytes.unsafe_get r.buf r.pos with
  | '<' -> (
    match markup r with
    | '/' ->
      end_tag r off len;
      End
    | '!' when looking_at r "<!--" ->
      r.pos <- r.pos + 4;
      ignore (skip_comment r ~build:false);
      Other
    | '!' when looking_at r "<![CDATA[" ->
      r.pos <- r.pos + 9;
      ignore (read_cdata r ~build:false);
      Other
    | '?' ->
      r.pos <- r.pos + 2;
      ignore (read_pi r ~build:false);
      Other
    | _ -> Element)
  | '&' ->
    advance r;
    read_entity r None;
    Other
  | _ ->
    r.pos <- chars r.buf r.pos r.lim;
    Other

(* A built element, its start tag's name already on [stack] at [off]
   and its state [state]. In a scan, the whole-marked elements inside a
   match go to [on_match] as they open. *)
let rec build_rest r p on_match state off =
  let name = Xname.intern r.names (Bytes.unsafe_to_string r.stack) off (r.sp - off) in
  let el = Node.element name in
  let matched = state land p.whole <> 0 in
  if matched then on_match el;
  if attrs_build r el then build_content r p on_match el state off (r.sp - off);
  Node.seal el;
  close_element r off;
  (* a match is already referenced from the scan's queue *)
  if matched then el else Node.as_leaf el

and build_content r p on_match el state off len =
  if not (more r) then unterminated r off len;
  match Bytes.unsafe_get r.buf r.pos with
  | '<' -> (
    match markup r with
    | '/' ->
      flush_text r el;
      end_tag r off len
    | '!' when looking_at r "<!--" ->
      flush_text r el;
      r.pos <- r.pos + 4;
      Node.append_child el (Node.comment (skip_comment r ~build:true));
      build_content r p on_match el state off len
    | '!' when looking_at r "<![CDATA[" ->
      r.pos <- r.pos + 9;
      Buffer.add_string r.text (read_cdata r ~build:true);
      r.keep_text <- true;
      build_content r p on_match el state off len
    | '?' ->
      flush_text r el;
      r.pos <- r.pos + 2;
      let target, data = read_pi r ~build:true in
      Node.append_child el (Node.pi ~target ~data);
      build_content r p on_match el state off len
    | _ ->
      flush_text r el;
      let coff = open_tag r in
      let st = child_state r p state coff in
      Node.append_child el (build_rest r p on_match st coff);
      build_content r p on_match el state off len)
  | '&' ->
    advance r;
    read_entity r (Some r.text);
    r.keep_text <- true;
    build_content r p on_match el state off len
  | _ ->
    text_run r el;
    build_content r p on_match el state off len

(* --- the projecting walk --------------------------------------------------- *)

(* An element below no whole-built one, at its '<', whose parent
   [parent] has [state]. A whole-marked element is built whole and
   attached to [parent]; a scan's [sink] takes it instead (with the
   whole-marked elements inside it, as they open) and its span when it
   closes. Without a sink, another live element is built, with its
   attributes when it has a bit of [keep], and attached when it has one
   or something below it was: it is an ancestor of what the query
   reads. Returns whether [parent] got a child. *)
let rec proj_child r p sink parent state =
  let start = abs_pos r in
  let off = open_tag r in
  let len = r.sp - off in
  let st = child_state r p state off in
  if st land p.whole <> 0 then
    match sink with
    | None ->
      Node.append_child parent (build_rest r unprojected ignore 0 off);
      true
    | Some s ->
      ignore (build_rest r p s.on_match st off);
      s.on_capture (abs_pos r - start);
      false
  else
    match sink with
    | None when st <> 0 ->
      let el =
        Node.element
          (Xname.intern r.names (Bytes.unsafe_to_string r.stack) off len)
      in
      let keep = st land p.keep <> 0 in
      let content = if keep then attrs_build r el else attrs_skip r (off + len) 0 in
      let kept = content && proj_content r p sink el st off len false in
      close_element r off;
      if keep || kept then begin
        Node.seal el;
        Node.append_child parent el
      end;
      keep || kept
    | None | Some _ ->
      (* a dead element, or in a scan one above a match: not built *)
      if attrs_skip r (off + len) 0 then
        ignore (proj_content r p sink parent st off len false);
      close_element r off;
      false

and proj_content r p sink el state off len kept =
  match skip_item r off len with
  | End -> kept
  | Element ->
    let k = proj_child r p sink el state in
    proj_content r p sink el state off len (k || kept)
  | Other -> proj_content r p sink el state off len kept

(* Prolog and epilog items: comments, PIs and a DOCTYPE. They attach to
   [doc] when one is built; the XML declaration never does. *)
let rec misc r doc =
  skip_ws r;
  let build = doc <> None in
  if looking_at r "<!--" then begin
    r.pos <- r.pos + 4;
    let body = skip_comment r ~build in
    Option.iter (fun d -> Node.append_child d (Node.comment body)) doc;
    misc r doc
  end
  else if looking_at r "<?xml" then begin
    r.pos <- r.pos + 2;
    ignore (read_pi r ~build:false);
    misc r doc
  end
  else if looking_at r "<?" then begin
    r.pos <- r.pos + 2;
    let target, data = read_pi r ~build in
    Option.iter (fun d -> Node.append_child d (Node.pi ~target ~data)) doc;
    misc r doc
  end
  else if looking_at r "<!DOCTYPE" then begin
    r.pos <- r.pos + 9;
    skip_doctype r;
    misc r doc
  end

(* Limits resolve once per read: an explicit argument, else the
   installed governor's, else the built-in depth default. The byte cap
   checks the source's known size up front, so every front end trips
   identically. *)
let start ?(keep_whitespace = false) ?max_depth ?max_bytes r =
  let gov_depth, gov_bytes = Governor.input_limits () in
  let max_depth, depth_src =
    match (max_depth, gov_depth) with
    | Some d, _ -> (d, Explicit)
    | None, Some d -> (d, Governed)
    | None, None -> (default_max_depth, Default)
  in
  r.keep_whitespace <- keep_whitespace;
  r.max_depth <- max_depth;
  r.depth_src <- depth_src;
  let over cap =
    Printf.sprintf "input of %d bytes exceeds the %d-byte limit" r.size cap
  in
  match (max_bytes, gov_bytes) with
  | Some cap, _ when r.size > cap -> limit_trip r Explicit (over cap)
  | None, Some cap when r.size > cap -> limit_trip r Governed (over cap)
  | _ -> ()

let root_element r what =
  if (not (more r)) || Bytes.unsafe_get r.buf r.pos <> '<' then
    error r ("expected " ^ what)

let element r =
  let off = open_tag r in
  build_rest r unprojected ignore 0 off

let document ?keep_whitespace ?max_depth ?max_bytes r =
  start ?keep_whitespace ?max_depth ?max_bytes r;
  let doc = Node.document () in
  misc r (Some doc);
  root_element r "a root element";
  Node.append_child doc (element r);
  misc r (Some doc);
  if more r then error r "content after the root element";
  Node.seal doc;
  doc

let fragment ?keep_whitespace ?max_depth ?max_bytes r =
  start ?keep_whitespace ?max_depth ?max_bytes r;
  skip_ws r;
  root_element r "an element";
  let el = element r in
  skip_ws r;
  if more r then error r "content after the element";
  el

(* The projecting walk over a document. The document node is the root
   element's parent; prolog and epilog items are dropped, with the text
   of partly built elements, since a query that could see them reads the
   whole document. *)
let walk ?keep_whitespace ?max_depth ?max_bytes r p sink =
  start ?keep_whitespace ?max_depth ?max_bytes r;
  let doc = Node.document () in
  misc r None;
  root_element r "a root element";
  ignore (proj_child r p sink doc 1);
  misc r None;
  if more r then error r "content after the root element";
  Node.seal doc;
  doc

let projected ?keep_whitespace ?max_depth ?max_bytes r p =
  walk ?keep_whitespace ?max_depth ?max_bytes r p None

(* With a sink, nothing is ever attached to the document node. *)
let project ?keep_whitespace ?max_depth ?max_bytes r p sink =
  ignore (walk ?keep_whitespace ?max_depth ?max_bytes r p (Some sink))
