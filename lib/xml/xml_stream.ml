(* Streaming XML ingestion with projection pushdown.

   A chunked event-style reader that parses a document front to back,
   runs a bitmask NFA over the open-element stack against a compiled
   projection path, and builds XDM subtrees only for path matches —
   everything else is validated for well-formedness and dropped at
   parse time, so the working set is the matched subtrees in flight,
   not the document.

   Lexical semantics mirror [Xml_parse] exactly (entities, CDATA,
   comments, PIs, DOCTYPE, the whitespace-only-text drop rule, depth
   and byte limits, governor ticks per element), so a streamed scan
   yields subtrees byte-identical to what the materializing parser
   would hand the same query. Errors raise the same positioned
   [Xml_parse.Parse_error] / governed [XQENG0005] the materializing
   path raises.

   The NFA follows the engine's fused path scan (see [Eval.fused_walk]):
   bit [j] on an element means "this element is in the result of the
   first [j] steps". A child step grants bit [j+1] when its test
   matches; a descendant step additionally propagates its own bit down
   unchanged. Bit [k] (all steps consumed) marks a match root. Matches
   nested inside a match (e.g. [//d] over [<d><d/></d>]) keep
   propagating inside the captured subtree and are emitted as their own
   matches, in document (pre)order, when the outermost capture closes.

   Read-I/O fault injection: the sixth [XQ_FAULTS] splitmix64 stream is
   drawn before each chunk refill. A drawn fault cycles deterministically
   through four modes — a short read (benign: the parse continues and
   the query completes identically), an injected EIO ([XQENG0008]), a
   truncation (the stream ends mid-document, surfacing as the same
   clean parse error a truncated file gives), and a torn read
   ([XQENG0008]) — so a seed sweep exercises the whole failure
   surface and every outcome is either byte-identical output or a
   structured error with no partial output. *)

open Xq_xdm
module Governor = Xq_governor.Governor

type source = [ `String of string | `File of string ]

(* Where a tripped limit came from decides how it surfaces: explicit
   and built-in limits raise a positioned parse error, governed ones a
   structured XQENG0005 — the same split the materializing parser makes. *)
type limit_source = Explicit | Governed | Default

(* --- projection paths ---------------------------------------------------- *)

type test = Any | Name of Xname.t | Prefix of string

type step = { desc : bool; test : test }

type path = step list

(* Bitmask NFA states need bit [k] to fit in a tagged int. *)
let max_steps = 60

let step_to_string s =
  (if s.desc then "//" else "/")
  ^
  match s.test with
  | Any -> "*"
  | Name n -> Xname.to_string n
  | Prefix p -> p ^ ":*"

let path_to_string p = String.concat "" (List.map step_to_string p)

(* Element name test — the element-only restriction of the engine's
   [test_matches] (the scan path never yields non-element matches). *)
let test_elem t (xn : Xname.t) =
  match t with
  | Any -> true
  | Name n -> Xname.equal n xn
  | Prefix p -> xn.Xname.prefix = Some p

(* --- the chunked reader -------------------------------------------------- *)

let chunk_size = 65536

type reader = {
  mutable rbuf : Bytes.t;
  mutable lo : int;  (* start of unconsumed data *)
  mutable hi : int;  (* end of valid data *)
  mutable reof : bool;
  mutable abs : int;  (* absolute offset of [rbuf.[lo]] in the stream *)
  mutable line : int;
  mutable bol : int;  (* absolute offset of the current line start *)
  fill : Bytes.t -> int -> int -> int;
  mutable fault_ordinal : int;  (* cycles the injected-fault mode *)
  source_name : string;
  mutable nbuf : Bytes.t;  (* the name being read *)
  names : Xname.table;  (* element and attribute names of this scan *)
}

let reader_of ~source_name fill =
  {
    rbuf = Bytes.create chunk_size;
    lo = 0;
    hi = 0;
    reof = false;
    abs = 0;
    line = 1;
    bol = 0;
    fill;
    fault_ordinal = 0;
    source_name;
    nbuf = Bytes.create 32;
    names = Xname.table ();
  }

let error r msg =
  raise
    (Xml_parse.Parse_error
       { line = r.line; column = r.abs - r.bol + 1; message = msg })

let refill r =
  if not r.reof then begin
    if r.lo > 0 then begin
      Bytes.blit r.rbuf r.lo r.rbuf 0 (r.hi - r.lo);
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    if Bytes.length r.rbuf - r.hi < chunk_size then begin
      let b = Bytes.create (2 * Bytes.length r.rbuf) in
      Bytes.blit r.rbuf 0 b 0 r.hi;
      r.rbuf <- b
    end;
    let want = Bytes.length r.rbuf - r.hi in
    let want =
      match Governor.read_fault () with
      | None -> want
      | Some seed ->
        let mode = r.fault_ordinal land 3 in
        r.fault_ordinal <- r.fault_ordinal + 1;
        (match mode with
         | 0 -> max 1 (want / 8)  (* short read: smaller chunk, no harm *)
         | 1 ->
           Governor.read_trip
             (Printf.sprintf
                "injected read-I/O fault (EIO) on %s at byte %d (XQ_FAULTS \
                 seed %d)"
                r.source_name
                (r.abs + (r.hi - r.lo))
                seed)
         | 2 ->
           (* truncation: the stream ends here, mid-whatever *)
           r.reof <- true;
           0
         | _ ->
           Governor.read_trip
             (Printf.sprintf
                "torn read detected on %s at byte %d (XQ_FAULTS seed %d)"
                r.source_name
                (r.abs + (r.hi - r.lo))
                seed))
    in
    if want > 0 then begin
      let n = r.fill r.rbuf r.hi want in
      if n = 0 then r.reof <- true else r.hi <- r.hi + n
    end
  end

let avail r = r.hi - r.lo

let ensure r n =
  while avail r < n && not r.reof do
    refill r
  done

let at_end r =
  ensure r 1;
  avail r = 0

let peek r =
  ensure r 1;
  if avail r = 0 then '\000' else Bytes.get r.rbuf r.lo

let advance r =
  ensure r 1;
  if avail r > 0 then begin
    (if Bytes.get r.rbuf r.lo = '\n' then begin
       r.line <- r.line + 1;
       r.bol <- r.abs + 1
     end);
    r.lo <- r.lo + 1;
    r.abs <- r.abs + 1
  end
  else r.abs <- r.abs + 1

let eat r c =
  if peek r = c then advance r
  else error r (Printf.sprintf "expected %C, found %C" c (peek r))

let looking_at r s =
  let n = String.length s in
  ensure r n;
  avail r >= n
  &&
  let rec go i = i >= n || (Bytes.get r.rbuf (r.lo + i) = s.[i] && go (i + 1)) in
  go 0

let skip_string r s =
  if looking_at r s then
    for _ = 1 to String.length s do
      advance r
    done
  else error r (Printf.sprintf "expected %S" s)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws r =
  while (not (at_end r)) && is_space (peek r) do
    advance r
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Read a name into [r.nbuf], returning its length. *)
let scan_name r =
  if not (is_name_start (peek r)) then error r "expected a name";
  let n = ref 0 in
  while (not (at_end r)) && is_name_char (peek r) do
    if !n = Bytes.length r.nbuf then r.nbuf <- Bytes.extend r.nbuf 0 !n;
    Bytes.unsafe_set r.nbuf !n (peek r);
    incr n;
    advance r
  done;
  !n

let read_name r =
  let n = scan_name r in
  Bytes.sub_string r.nbuf 0 n

(* An element or attribute name, interned for this scan ([intern] copies
   what it keeps, so lending it the name buffer is safe). *)
let read_qname r =
  let n = scan_name r in
  Xname.intern r.names (Bytes.unsafe_to_string r.nbuf) 0 n

let read_char_ref r =
  (* after "&#" *)
  let hex = peek r = 'x' in
  if hex then advance r;
  let b = Buffer.create 8 in
  while (not (at_end r)) && peek r <> ';' do
    Buffer.add_char b (peek r);
    advance r
  done;
  let digits = Buffer.contents b in
  eat r ';';
  let code =
    try int_of_string (if hex then "0x" ^ digits else digits)
    with Failure _ -> error r "bad character reference"
  in
  let b = Buffer.create 4 in
  (try Buffer.add_utf_8_uchar b (Uchar.of_int code)
   with Invalid_argument _ -> error r "character reference out of range");
  Buffer.contents b

let read_entity r =
  (* after '&' *)
  if peek r = '#' then begin
    advance r;
    read_char_ref r
  end
  else begin
    let name = read_name r in
    eat r ';';
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | other -> error r (Printf.sprintf "unknown entity &%s;" other)
  end

let read_attr_value r =
  let quote = peek r in
  if quote <> '"' && quote <> '\'' then error r "expected a quoted value";
  advance r;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end r then error r "unterminated attribute value"
    else if peek r = quote then advance r
    else if peek r = '&' then begin
      advance r;
      Buffer.add_string buf (read_entity r);
      go ()
    end
    else if peek r = '<' then error r "'<' in attribute value"
    else begin
      Buffer.add_char buf (peek r);
      advance r;
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* [keep = false] validates and discards the body without buffering it,
   so skipped comments/PIs cost no memory. *)
let scan_to r ~terminator ~keep ~unterminated =
  let buf = if keep then Some (Buffer.create 16) else None in
  let rec go () =
    if at_end r then error r unterminated
    else if looking_at r terminator then begin
      skip_string r terminator;
      match buf with Some b -> Buffer.contents b | None -> ""
    end
    else begin
      (match buf with Some b -> Buffer.add_char b (peek r) | None -> ());
      advance r;
      go ()
    end
  in
  go ()

let skip_comment r ~keep =
  (* after "<!--" *)
  scan_to r ~terminator:"-->" ~keep ~unterminated:"unterminated comment"

let read_cdata r ~keep =
  (* after "<![CDATA[" *)
  scan_to r ~terminator:"]]>" ~keep ~unterminated:"unterminated CDATA section"

let read_pi r ~keep =
  (* after "<?" *)
  let target = read_name r in
  skip_ws r;
  let data =
    scan_to r ~terminator:"?>" ~keep
      ~unterminated:"unterminated processing instruction"
  in
  (target, data)

let skip_doctype r =
  (* after "<!DOCTYPE"; skip to matching '>' tracking bracket depth *)
  let depth = ref 0 in
  let rec go () =
    if at_end r then error r "unterminated DOCTYPE"
    else
      match peek r with
      | '[' ->
        incr depth;
        advance r;
        go ()
      | ']' ->
        decr depth;
        advance r;
        go ()
      | '>' when !depth = 0 -> advance r
      | _ ->
        advance r;
        go ()
  in
  go ()

(* --- the projecting scan ------------------------------------------------- *)

type scan_state = {
  steps : step array;
  accept_bit : int;
  emit : bytes:int -> Node.t -> unit;
  mutable pending : Node.t list;  (* match roots of the open capture,
                                     reverse preorder *)
  keep_whitespace : bool;
  max_depth : int;
  depth_src : limit_source;
  mutable depth : int;
}

(* NFA transition: the mask an element named [xn] gets from its
   parent's mask — child steps grant the next bit on a test match,
   descendant steps also keep their own bit live down the tree. *)
let child_mask ss m xn =
  let out = ref 0 in
  for i = 0 to Array.length ss.steps - 1 do
    if m land (1 lsl i) <> 0 then begin
      let s = Array.unsafe_get ss.steps i in
      if s.desc then out := !out lor (1 lsl i);
      if test_elem s.test xn then out := !out lor (1 lsl (i + 1))
    end
  done;
  !out

let limit_trip r src msg =
  match (src : limit_source) with
  | Governed -> Governor.input_trip msg
  | Explicit | Default -> error r msg

let enter_element r ss =
  Governor.tick ();
  ss.depth <- ss.depth + 1;
  if ss.depth > ss.max_depth then
    limit_trip r ss.depth_src
      (Printf.sprintf "element nesting deeper than %d" ss.max_depth)

(* The whole-subtree cost estimate charged per capture: a fixed ×4
   bytes-to-tree multiplier over the captured span, deterministic so
   spill decisions do not depend on the heap. *)
let subtree_estimate span = (4 * span) + 128

let rec parse_element r ss mask (building : Node.t option) =
  (* at '<' of a start tag *)
  let entry_abs = r.abs in
  eat r '<';
  enter_element r ss;
  let xn = read_qname r in
  let m = child_mask ss mask xn in
  let is_match = m land ss.accept_bit <> 0 in
  let node =
    match building with
    | Some _ -> Some (Node.element xn)
    | None -> if is_match then Some (Node.element xn) else None
  in
  let capture_root = building = None && node <> None in
  (match node with
   | Some n when is_match -> ss.pending <- n :: ss.pending
   | _ -> ());
  (* attributes: built when capturing; in skip mode still validated,
     including the duplicate check the materializing parser performs
     (via [Node.set_attribute]) *)
  let seen_attrs = ref [] in
  let rec attrs () =
    skip_ws r;
    match peek r with
    | '>' ->
      advance r;
      parse_content r ss m node xn
    | '/' ->
      advance r;
      eat r '>'
    | c when is_name_start c ->
      let aname = read_qname r in
      skip_ws r;
      eat r '=';
      skip_ws r;
      let v = read_attr_value r in
      (match node with
       | Some n -> Node.set_attribute n (Node.attribute aname v)
       | None ->
         if List.memq aname !seen_attrs then
           Xerror.failf Xerror.XQDY0025 "duplicate attribute %s"
             (Xname.to_string aname);
         seen_attrs := aname :: !seen_attrs);
      attrs ()
    | _ -> error r "malformed start tag"
  in
  attrs ();
  Option.iter Node.seal node;
  (* a queued match root is already referenced from [ss.pending] *)
  let node = if is_match then node else Option.map Node.as_leaf node in
  ss.depth <- ss.depth - 1;
  match building, node with
  | Some parent, Some n -> Node.append_child parent n
  | None, Some _ when capture_root ->
    (* the outermost capture closed: emit its match roots in document
       (pre)order; the first carries the subtree's byte estimate *)
    let matches = List.rev ss.pending in
    ss.pending <- [];
    let est = subtree_estimate (r.abs - entry_abs) in
    List.iteri
      (fun i n -> ss.emit ~bytes:(if i = 0 then est else 0) n)
      matches
  | _ -> ()

and parse_content r ss mask (node : Node.t option) name =
  (* [mask] is this element's own mask; children derive theirs from it.
     Text accumulates in one buffer across CDATA boundaries with the
     materializing parser's whitespace-only drop rule; in skip mode the
     buffer stays unused and characters are validated then dropped. *)
  let buf = Buffer.create 16 in
  let had_entity = ref false in
  let flush_text () =
    match node with
    | None ->
      Buffer.clear buf;
      had_entity := false
    | Some el ->
      if Buffer.length buf > 0 then begin
        let s = Buffer.contents buf in
        let keep =
          ss.keep_whitespace || !had_entity || not (String.for_all is_space s)
        in
        if keep then Node.append_child el (Node.text s);
        Buffer.clear buf;
        had_entity := false
      end
  in
  let building = node <> None in
  let add_char c = if building then Buffer.add_char buf c in
  let add_string s = if building then Buffer.add_string buf s in
  let rec go () =
    if at_end r then
      error r
        (Printf.sprintf "unterminated element <%s>" (Xname.to_string name))
    else if looking_at r "</" then begin
      flush_text ();
      skip_string r "</";
      (* one spelling, one interned name: the end tag matches by identity *)
      let close = read_qname r in
      if close != name then
        error r
          (Printf.sprintf "mismatched end tag </%s>, expected </%s>"
             (Xname.to_string close) (Xname.to_string name));
      skip_ws r;
      eat r '>'
    end
    else if looking_at r "<!--" then begin
      flush_text ();
      skip_string r "<!--";
      let body = skip_comment r ~keep:building in
      (match node with
       | Some el -> Node.append_child el (Node.comment body)
       | None -> ());
      go ()
    end
    else if looking_at r "<![CDATA[" then begin
      skip_string r "<![CDATA[";
      add_string (read_cdata r ~keep:building);
      had_entity := true;  (* CDATA forces the text to be kept *)
      go ()
    end
    else if looking_at r "<?" then begin
      flush_text ();
      skip_string r "<?";
      let target, data = read_pi r ~keep:building in
      (match node with
       | Some el -> Node.append_child el (Node.pi ~target ~data)
       | None -> ());
      go ()
    end
    else if peek r = '<' then begin
      flush_text ();
      parse_element r ss mask node;
      go ()
    end
    else if peek r = '&' then begin
      advance r;
      add_string (read_entity r);
      had_entity := true;
      go ()
    end
    else begin
      add_char (peek r);
      advance r;
      go ()
    end
  in
  go ()

(* Prolog/epilog items are parsed for well-formedness and dropped: the
   document node they would attach to is never built (a streamable
   query cannot reach it — the projection verdict rejects any use of
   the document root beyond the scan path). *)
let parse_misc r =
  let rec go () =
    skip_ws r;
    if looking_at r "<!--" then begin
      skip_string r "<!--";
      ignore (skip_comment r ~keep:false);
      go ()
    end
    else if looking_at r "<?" then begin
      skip_string r "<?";
      ignore (read_pi r ~keep:false);
      go ()
    end
    else if looking_at r "<!DOCTYPE" then begin
      skip_string r "<!DOCTYPE";
      skip_doctype r;
      go ()
    end
  in
  go ()

let scan_reader ?(keep_whitespace = false) ?max_depth ?max_bytes ~path ~emit r
    ~source_bytes =
  if path = [] then invalid_arg "Xml_stream.scan: empty projection path";
  if List.length path > max_steps then
    invalid_arg "Xml_stream.scan: projection path too long";
  let gov_depth, gov_bytes = Governor.input_limits () in
  let max_depth, depth_src =
    match (max_depth, gov_depth) with
    | Some d, _ -> (d, Explicit)
    | None, Some d -> (d, Governed)
    | None, None -> (Xml_parse.default_max_depth, Default)
  in
  (* byte caps check the source's total size up front (files are
     stat-able, strings known), exactly as the materializing parser
     checks its input string — so both paths trip identically *)
  (match (max_bytes, gov_bytes) with
   | Some cap, _ when source_bytes > cap ->
     limit_trip r Explicit
       (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
          source_bytes cap)
   | None, Some cap when source_bytes > cap ->
     limit_trip r Governed
       (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
          source_bytes cap)
   | _ -> ());
  let ss =
    {
      steps = Array.of_list path;
      accept_bit = 1 lsl List.length path;
      emit;
      pending = [];
      keep_whitespace;
      max_depth;
      depth_src;
      depth = 0;
    }
  in
  parse_misc r;
  if at_end r || peek r <> '<' then error r "expected a root element";
  (* the virtual document node holds state 0 *)
  parse_element r ss 1 None;
  parse_misc r;
  if not (at_end r) then error r "content after the root element"

let scan ?keep_whitespace ?max_depth ?max_bytes ~path ~emit
    (src : source) =
  match src with
  | `String s ->
    let pos = ref 0 in
    let fill buf off len =
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n
    in
    let r = reader_of ~source_name:"<string>" fill in
    scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit r
      ~source_bytes:(String.length s)
  | `File path_name ->
    let ic =
      try open_in_bin path_name
      with Sys_error _ as e -> raise e
    in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let total = in_channel_length ic in
        let fill buf off len =
          match input ic buf off len with
          | n -> n
          | exception Sys_error m ->
            Governor.read_trip
              (Printf.sprintf "read failed on %s: %s" path_name m)
        in
        let r = reader_of ~source_name:path_name fill in
        scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit r
          ~source_bytes:total)

(* Collect all matches of [path] — the test harness's entry point. *)
let collect ?keep_whitespace ?max_depth ?max_bytes ~path src =
  let acc = ref [] in
  scan ?keep_whitespace ?max_depth ?max_bytes ~path
    ~emit:(fun ~bytes:_ n -> acc := n :: !acc)
    src;
  List.rev !acc
