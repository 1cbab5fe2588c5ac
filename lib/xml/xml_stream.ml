(* Streaming XML ingestion with projection pushdown: the projection NFA
   and its capture logic over [Xml_reader]'s walk, which reads the
   document front to back, builds XDM subtrees only for path matches
   and validates everything else in place, so the working set is the
   matched subtrees in flight, not the document.

   The NFA follows the engine's fused path scan (see [Eval.fused_walk]):
   bit [j] on an element means "this element is in the result of the
   first [j] steps". A child step grants bit [j+1] when its test
   matches; a descendant step additionally propagates its own bit down
   unchanged. Bit [k] (all steps consumed) marks a match root. Matches
   nested inside a match (e.g. [//d] over [<d><d/></d>]) keep
   propagating inside the captured subtree and are emitted as their own
   matches, in document (pre)order, when the outermost capture closes.
   Name tests compare the raw bytes of the element's spelling, so an
   element that is not built is never interned. *)

open Xq_xdm

type source = [ `String of string | `File of string ]

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

(* NFA transition: the mask an element spelled [b.[off .. off+len)]
   gets from its parent's mask — child steps grant the next bit on a
   test match, descendant steps also keep their own bit live down the
   tree. *)
let child_mask desc tests m b off len =
  let out = ref 0 in
  for i = 0 to Array.length tests - 1 do
    if m land (1 lsl i) <> 0 then begin
      if Array.unsafe_get desc i then out := !out lor (1 lsl i);
      if test_bytes (Array.unsafe_get tests i) b off len then
        out := !out lor (1 lsl (i + 1))
    end
  done;
  !out

(* The whole-subtree cost estimate charged per capture: a fixed ×4
   bytes-to-tree multiplier over the captured span, deterministic so
   spill decisions do not depend on the heap. *)
let subtree_estimate span = (4 * span) + 128

let scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit r =
  if path = [] then invalid_arg "Xml_stream.scan: empty projection path";
  if List.length path > max_steps then
    invalid_arg "Xml_stream.scan: projection path too long";
  let steps = Array.of_list path in
  let desc = Array.map (fun s -> s.desc) steps in
  let tests = Array.map (fun s -> byte_test s.test) steps in
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
  Xml_reader.project ?keep_whitespace ?max_depth ?max_bytes r
    {
      Xml_reader.child = child_mask desc tests;
      accept = 1 lsl Array.length steps;
      on_match = (fun n -> pending := n :: !pending);
      on_capture;
    }

let scan ?keep_whitespace ?max_depth ?max_bytes ~path ~emit (src : source) =
  let go = scan_reader ?keep_whitespace ?max_depth ?max_bytes ~path ~emit in
  match src with
  | `String s -> go (Xml_reader.of_string ~faults:true s)
  | `File p -> Xml_reader.with_file ~faults:true p go

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

(* The path set as a trie: node 0 is the document, node [c > 0] the
   step that ends one path prefix below its parent node. An element's
   state has bit [c] when the element is in the result of node [c]'s
   prefix, and one more bit per node with a descendant step below it,
   kept down the tree while some ancestor is at that node. [None] when
   the root is marked whole or the bits do not fit in an int: the
   caller then builds the whole document. *)
let plan_of (ps : path_set) =
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
  if List.mem 0 wholes || !bits > fits then None
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
    Some
      {
        Xml_reader.step;
        keep = Array.fold_left ( lor ) 0 bit;
        whole = List.fold_left (fun w c -> w lor (1 lsl c)) 0 wholes;
      }
  end

let load_reader ?keep_whitespace ?max_depth ?max_bytes ~paths r =
  match plan_of paths with
  | Some plan ->
    Xml_reader.projected ?keep_whitespace ?max_depth ?max_bytes r plan ~root:1
  | None -> Xml_reader.document ?keep_whitespace ?max_depth ?max_bytes r

let load ?keep_whitespace ?max_depth ?max_bytes ~paths (src : source) =
  let go = load_reader ?keep_whitespace ?max_depth ?max_bytes ~paths in
  match src with
  | `String s -> go (Xml_reader.of_string s)
  | `File p -> Xml_reader.with_file p go

(* Collect all matches of [path] — the test harness's entry point. *)
let collect ?keep_whitespace ?max_depth ?max_bytes ~path src =
  let acc = ref [] in
  scan ?keep_whitespace ?max_depth ?max_bytes ~path
    ~emit:(fun ~bytes:_ n -> acc := n :: !acc)
    src;
  List.rev !acc
