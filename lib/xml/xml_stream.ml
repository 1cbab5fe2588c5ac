(* Streaming and projected XML ingestion: a path set compiles to one
   trie automaton over raw name bytes, so an element that is not built
   is never interned, and [Xml_reader]'s one projecting walk runs it. A
   projected load builds a document node; a streamed scan is the
   projected read of [[(path, Whole)]] whose matches go to a sink, the
   elements above them never built. Matches nested inside a match (e.g.
   [//d] over [<d><d/></d>]) reach the sink as they open, and the scan
   emits them in document (pre)order when the outermost one closes. *)

open Xq_xdm

type source = [ `String of string | `File of string ]

(* --- projection paths ---------------------------------------------------- *)

type test = Any | Name of Xname.t | Prefix of string

type step = { desc : bool; test : test }

type path = step list

let step_to_string s =
  (if s.desc then "//" else "/")
  ^
  match s.test with
  | Any -> "*"
  | Name n -> Xname.to_string n
  | Prefix p -> p ^ ":*"

let path_to_string p = String.concat "" (List.map step_to_string p)

(* --- name tests on raw bytes --------------------------------------------- *)

(* An element name is [Xname.of_string] of its spelling, so [Name n]
   matches exactly the spelling [Xname.to_string n] when that spelling
   reads back as [n], and [Prefix p] exactly the spellings starting
   ["p:"] when [p] has no colon; other tests match nothing. *)
type byte_test = All | Spelled of string | Prefixed of string | Never

let byte_test = function
  | Any -> All
  | Name n ->
    let s = Xname.to_string n in
    if Xname.equal (Xname.of_string s) n then Spelled s else Never
  | Prefix p -> if String.contains p ':' then Never else Prefixed p

let rec spelled s b off i =
  i = String.length s
  || String.unsafe_get s i = Bytes.unsafe_get b (off + i) && spelled s b off (i + 1)

let test_bytes t b off len =
  match t with
  | All -> true
  | Spelled s -> String.length s = len && spelled s b off 0
  | Prefixed p ->
    let n = String.length p in
    len > n && Bytes.unsafe_get b (off + n) = ':' && spelled p b off 0
  | Never -> false

(* The whole-subtree cost estimate charged per capture: a fixed ×4
   bytes-to-tree multiplier over the captured span, deterministic so
   spill decisions do not depend on the heap. *)
let subtree_estimate span = (4 * span) + 128

(* --- projected loads ------------------------------------------------------ *)

type mark = Navigate | Whole

type path_set = (path * mark) list

let path_set_to_string = function
  | [] -> "(no paths)"
  | ps ->
    String.concat ", "
      (List.map
         (fun (p, m) ->
           (if p = [] then "/" else path_to_string p)
           ^ match m with Whole -> " (whole)" | Navigate -> "")
         ps)

(* --- the automaton ---------------------------------------------------------- *)

type automaton = Xml_reader.plan

(* The path set as a trie: node 0 is the document, node [c > 0] the
   step that ends one path prefix below its parent node. An element's
   state has bit [c] when the element is in the result of node [c]'s
   prefix, and one more bit per node with a descendant step below it,
   kept down the tree while some ancestor is at that node. A path set
   whose root is marked whole, or whose bits do not fit in an int, does
   not compile: its query reads the whole document. *)
let compile (ps : path_set) =
  (* node ids by reversed prefix; [edges] holds (node, parent, step) *)
  let ids = Hashtbl.create 16 and edges = ref [] and n = ref 1 in
  Hashtbl.replace ids [] 0;
  let rec node rev_prefix = function
    | [] -> Hashtbl.find ids rev_prefix
    | s :: rest ->
      let key = s :: rev_prefix in
      if not (Hashtbl.mem ids key) then begin
        edges := (!n, Hashtbl.find ids rev_prefix, s) :: !edges;
        Hashtbl.replace ids key !n;
        incr n
      end;
      node key rest
  in
  let wholes =
    List.filter_map
      (fun (p, m) ->
        let c = node [] p in
        if m = Whole then Some c else None)
      ps
  in
  let n = !n and bits = ref !n and fits = Sys.int_size - 1 in
  let anc = Array.make n 0 in
  List.iter
    (fun (_, parent, s) ->
      if s.desc && anc.(parent) = 0 then begin
        if !bits < fits then anc.(parent) <- 1 lsl !bits;
        incr bits
      end)
    !edges;
  if List.mem 0 wholes then Error "the document node is read whole"
  else if !bits > fits then
    Error
      (Printf.sprintf
         "the path set needs %d automaton bits, more than the %d an int holds"
         !bits fits)
  else begin
    let edges = Array.of_list !edges in
    let reach =
      Array.map
        (fun (_, parent, s) ->
          (1 lsl parent) lor if s.desc then anc.(parent) else 0)
        edges
    and bit = Array.map (fun (c, _, _) -> 1 lsl c) edges
    and tests = Array.map (fun (_, _, s) -> byte_test s.test) edges in
    let live = Array.mapi (fun j a -> if a = 0 then 0 else (1 lsl j) lor a) anc in
    let step m b off len =
      let out = ref 0 in
      for i = 0 to Array.length edges - 1 do
        if m land reach.(i) <> 0 && test_bytes tests.(i) b off len then
          out := !out lor bit.(i)
      done;
      for j = 0 to n - 1 do
        if m land live.(j) <> 0 then out := !out lor anc.(j)
      done;
      !out
    in
    Ok
      {
        Xml_reader.step;
        keep = Array.fold_left ( lor ) 0 bit;
        whole = List.fold_left (fun w c -> w lor (1 lsl c)) 0 wholes;
      }
  end

(* --- projected loads ------------------------------------------------------- *)

let read_tree ?keep_whitespace ?max_depth ?max_bytes compiled r =
  match compiled with
  | Ok plan -> Xml_reader.projected ?keep_whitespace ?max_depth ?max_bytes r plan
  | Error _ -> Xml_reader.document ?keep_whitespace ?max_depth ?max_bytes r

let with_source ~faults (src : source) go =
  match src with
  | `String s -> go (Xml_reader.of_string ~faults s)
  | `File p -> Xml_reader.with_file ~faults p go

let load_reader ?keep_whitespace ?max_depth ?max_bytes ~paths r =
  read_tree ?keep_whitespace ?max_depth ?max_bytes (compile paths) r

let load ?keep_whitespace ?max_depth ?max_bytes ~paths src =
  with_source ~faults:false src
    (load_reader ?keep_whitespace ?max_depth ?max_bytes ~paths)

let load_compiled ?keep_whitespace ?max_depth ?max_bytes automaton src =
  with_source ~faults:false src
    (read_tree ?keep_whitespace ?max_depth ?max_bytes (Ok automaton))

(* --- streamed scans -------------------------------------------------------- *)

let scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit r =
  let plan =
    match compile [ (path, Whole) ] with
    | Ok plan when path <> [] -> plan
    | _ -> invalid_arg "Xml_stream.scan: empty or too long a projection path"
  in
  (* match roots of the open capture, reverse preorder *)
  let pending = ref [] in
  let on_capture span =
    let matches = List.rev !pending in
    pending := [];
    (* the first match of a capture carries the subtree's byte estimate *)
    List.iteri
      (fun i n -> emit ~bytes:(if i = 0 then subtree_estimate span else 0) n)
      matches
  in
  Xml_reader.project ?keep_whitespace ?max_depth ?max_bytes r plan
    { Xml_reader.on_match = (fun n -> pending := n :: !pending); on_capture }

let scan ?keep_whitespace ?max_depth ?max_bytes ~path ~emit src =
  with_source ~faults:true src
    (scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit)

(* Collect all matches of [path] — the test harness's entry point. *)
let collect ?keep_whitespace ?max_depth ?max_bytes ~path src =
  let acc = ref [] in
  scan ?keep_whitespace ?max_depth ?max_bytes ~path
    ~emit:(fun ~bytes:_ n -> acc := n :: !acc)
    src;
  List.rev !acc
