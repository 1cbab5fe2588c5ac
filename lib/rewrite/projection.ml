(* Static projection analysis: the path set a query navigates.

   One walk over the checked AST computes, for each expression, the
   document nodes it can evaluate to as an abstract value, and records
   how each value is used. Steps from a root-anchored path extend it
   (every path reached is in the set, navigate-only); a use that reads
   a node's subtree — atomization, comparison, keys, copying into a
   constructor, serialization, an unmodelled function argument — marks
   the path whole subtree. Variables, [return] values, [nest] and [let]
   carry values to where they are used, so a node bound in one place
   and only counted in another stays navigate-only.

   What a path cannot name falls back: wildcards, [node()], [text()]
   and the other kind tests mark the context they step from whole;
   [fn:root] marks its argument whole and yields the document node;
   a parent or sibling step names its path when the context's last
   step is a child step, else — like ancestor axes, [fn:doc] and
   [fn:collection] — it makes the whole document the answer.

   The streaming verdict is the special case of the same walk: the
   body is a FLWOR whose leading [for] binding ranges over a pure
   child/descendant element path, and nothing outside that binding
   reaches the document — no absolute path, no free context item (at
   the top level and in function bodies it denotes the document), no
   upward or sideways axis (a streamed subtree is detached), no
   document-reaching builtin. The walk records the first such reach
   as the reason, which EXPLAIN surfaces. *)

open Xq_xdm
open Xq_lang
module Xml_stream = Xq_xml.Xml_stream

type verdict =
  | Streamable of {
      path : Xml_stream.path;
      var : string;
      positional : string option;
    }
  | Materialize of string

(* --- the scan path ------------------------------------------------------- *)

(* Element name tests only: the scanner emits elements, so a step that
   could select text, comments, attributes or PIs is not streamable. *)
let elem_test = function
  | Ast.Name_test n -> Some (Xml_stream.Name n)
  | Ast.Wildcard -> Some Xml_stream.Any
  | Ast.Prefix_wildcard p -> Some (Xml_stream.Prefix p)
  | Ast.Kind_element None -> Some Xml_stream.Any
  | Ast.Kind_element (Some n) -> Some (Xml_stream.Name n)
  | Ast.Kind_node | Ast.Kind_text | Ast.Kind_comment | Ast.Kind_attribute _
  | Ast.Kind_document ->
    None

type raw_step = Child_of of Xml_stream.test | Desc_of of Xml_stream.test | Dos

let raw_step_of = function
  | Ast.Step (Ast.Descendant_or_self, Ast.Kind_node, []) -> Some Dos
  | Ast.Step (Ast.Child, t, []) ->
    Option.map (fun t -> Child_of t) (elem_test t)
  | Ast.Step (Ast.Descendant, t, []) ->
    Option.map (fun t -> Desc_of t) (elem_test t)
  | _ -> None

(* Unroll [Slash] left-spine from an absolute root; innermost step last. *)
let rec unroll e acc =
  match e with
  | Ast.Root -> Some acc
  | Ast.Slash (l, r) -> begin
    match raw_step_of r with
    | Some s -> unroll l (s :: acc)
    | None -> None
  end
  | _ -> None

(* Fuse desugared [descendant-or-self::node()/child::t] pairs into
   descendant steps ([dos/descendant::t] collapses the same way). *)
let rec fuse = function
  | [] -> Some []
  | Dos :: Dos :: rest -> fuse (Dos :: rest)
  | Dos :: Child_of t :: rest | Dos :: Desc_of t :: rest
  | Desc_of t :: rest ->
    Option.map
      (fun p -> { Xml_stream.desc = true; test = t } :: p)
      (fuse rest)
  | Child_of t :: rest ->
    Option.map
      (fun p -> { Xml_stream.desc = false; test = t } :: p)
      (fuse rest)
  | [ Dos ] -> None  (* trailing dos selects non-elements *)

(* The path a leading binding scans: one the scan's automaton compiles. *)
let scan_path_of (e : Ast.expr) =
  let not_a_path =
    Error "the first for binding is not an absolute child/descendant element path"
  in
  match Option.bind (unroll e []) fuse with
  | None | Some [] -> not_a_path
  | Some path -> (
    match Xml_stream.compile [ (path, Xml_stream.Whole) ] with
    | Ok _ -> Ok path
    | Error reason ->
      Error ("the first for binding's path does not scan: " ^ reason))

(* --- abstract values ------------------------------------------------------ *)

(* The document nodes an expression can evaluate to. *)
type node =
  | At of Xml_stream.path  (* the elements at a path; [[]] is the document *)
  | Attrs of Xml_stream.path  (* attributes of the elements at a path *)
  | Below of Xml_stream.path
      (* [p/descendant-or-self::node()], before a step names what it
         selects *)
  | Inside  (* nodes inside subtrees already marked whole *)

type value = node list

(* The whole document is the answer; carries the reason. *)
exception Whole_document of string

type state = {
  mutable paths : Xml_stream.path_set;  (* newest first *)
  mutable reach : string option;
      (* why the query reaches the document outside its leading
         binding, first reason only *)
  mutable quiet : bool;  (* walking the leading binding's source *)
  functions : (Xname.t * int) list;  (* user functions, which shadow builtins *)
}

let reached st fmt =
  Format.kasprintf
    (fun m -> if (not st.quiet) && st.reach = None then st.reach <- Some m)
    fmt

let add st p m =
  match List.assoc_opt p st.paths with
  | Some Xml_stream.Whole -> ()
  | Some Xml_stream.Navigate when m = Xml_stream.Navigate -> ()
  | _ -> st.paths <- (p, m) :: List.remove_assoc p st.paths

let at st p =
  add st p Xml_stream.Navigate;
  At p

(* A use that reads the subtrees of [v]. *)
let whole st (v : value) =
  List.iter
    (function
      | At p | Below p -> add st p Xml_stream.Whole
      | Attrs _ | Inside -> ())
    v

(* A use that only navigates [v]: counting or testing it. The nodes
   below a [Below] path include text, so it is read whole even here. *)
let navigate st (v : value) =
  List.iter (function Below p -> add st p Xml_stream.Whole | _ -> ()) v

let axis_name = function
  | Ast.Parent -> "parent"
  | Ast.Ancestor -> "ancestor"
  | Ast.Ancestor_or_self -> "ancestor-or-self"
  | Ast.Following_sibling -> "following-sibling"
  | Ast.Preceding_sibling -> "preceding-sibling"
  | _ -> ""

(* The path of the parents of the elements at [p], when it has a name. *)
let parent_path p =
  match List.rev p with
  | { Xml_stream.desc = false; _ } :: rest -> Some (List.rev rest)
  | _ -> None

let name_of = function
  | Ast.Name_test n | Ast.Kind_element (Some n) -> Some (Xml_stream.Name n)
  | _ -> None

let extend p desc t = p @ [ { Xml_stream.desc; test = t } ]

(* One axis step from one context node. *)
let step st axis test (n : node) : value =
  let cannot_name () =
    raise
      (Whole_document
         (Printf.sprintf "the %s axis leaves the paths the query names"
            (axis_name axis)))
  in
  match (n, axis) with
  | At p, (Ast.Child | Ast.Descendant) -> (
    match name_of test with
    | Some t -> [ at st (extend p (axis = Ast.Descendant) t) ]
    | None ->
      add st p Xml_stream.Whole;
      [ Inside ])
  | At p, Ast.Descendant_or_self -> (
    match (test, name_of test) with
    | Ast.Kind_node, _ -> [ Below p ]
    | _, Some t -> [ At p; at st (extend p true t) ]
    | _, None ->
      add st p Xml_stream.Whole;
      [ Inside ])
  | Below p, (Ast.Child | Ast.Descendant) when name_of test <> None ->
    [ at st (extend p true (Option.get (name_of test))) ]
  | Below p, _ ->
    add st p Xml_stream.Whole;
    [ Inside ]
  | At p, Ast.Attribute_axis -> [ Attrs p ]
  | (At _ | Attrs _ | Inside), Ast.Self -> [ n ]
  | At [], (Ast.Parent | Ast.Following_sibling | Ast.Preceding_sibling) -> []
  | At p, Ast.Parent -> (
    match parent_path p with Some q -> [ at st q ] | None -> cannot_name ())
  | At p, (Ast.Following_sibling | Ast.Preceding_sibling) -> (
    match parent_path p with
    | Some q ->
      add st q Xml_stream.Whole;
      [ Inside ]
    | None -> cannot_name ())
  | Attrs p, Ast.Parent -> [ at st p ]
  | Attrs _, Ast.Descendant_or_self -> [ n ]
  | Attrs _, _ when axis <> Ast.Ancestor && axis <> Ast.Ancestor_or_self -> []
  | Inside, (Ast.Child | Ast.Descendant | Ast.Descendant_or_self
            | Ast.Attribute_axis) ->
    [ Inside ]
  | _ -> cannot_name ()

(* --- the walk -------------------------------------------------------------- *)

(* The focus of an expression: its value, and whether it is the
   document the query runs on (the top level, a function body) rather
   than one bound by a path or a predicate. *)
type ctx = { focus : value; doc_focus : bool }

let doc_ctx = { focus = [ At [] ]; doc_focus = true }

module Smap = Map.Make (String)

(* Builtins that only count, test or name their arguments. *)
let counting = [ "count"; "exists"; "empty"; "not"; "boolean"; "position";
                 "last"; "true"; "false"; "local-name"; "name"; "node-name" ]

(* Builtins that return (some of) their first argument's nodes. *)
let passing = [ "reverse"; "subsequence"; "remove"; "insert-before";
                "zero-or-one"; "one-or-more"; "exactly-one" ]

(* Builtins whose no-argument form reads the context item. *)
let focus_readers = [ "string"; "number"; "local-name"; "name"; "node-name";
                      "root" ]

let rec eval st env ctx (e : Ast.expr) : value =
  let ev = eval st env ctx in
  let whole_of e = whole st (ev e) in
  let nav_of e = navigate st (ev e) in
  match e with
  | Ast.Literal _ -> []
  | Ast.Var v -> Option.value (Smap.find_opt v env) ~default:[]
  | Ast.Context_item ->
    if ctx.doc_focus then
      reached st "the context item denotes the document outside a path";
    ctx.focus
  | Ast.Root ->
    reached st "an absolute path re-anchors at the document root";
    [ at st [] ]
  | Ast.Step (axis, test, preds) ->
    (match axis with
     | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
     | Ast.Following_sibling | Ast.Preceding_sibling ->
       reached st "the %s axis escapes the streamed subtree" (axis_name axis)
     | _ -> ());
    if ctx.doc_focus then
      reached st "a bare axis step applies to the document context";
    let v = List.concat_map (step st axis test) ctx.focus in
    predicates st env v preds
  | Ast.Slash (l, r) -> eval st env { focus = ev l; doc_focus = false } r
  | Ast.Filter (p, preds) -> predicates st env (ev p) preds
  | Ast.Sequence es -> List.concat_map ev es
  | Ast.Union (a, b) -> ev a @ ev b
  | Ast.Intersect (a, b) | Ast.Except (a, b) ->
    let v = ev a in
    nav_of b;
    v
  | Ast.Node_cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
    nav_of a;
    nav_of b;
    []
  | Ast.Range (a, b)
  | Ast.Arith (_, a, b)
  | Ast.General_cmp (_, a, b)
  | Ast.Value_cmp (_, a, b)
  | Ast.Comp_elem (a, b)
  | Ast.Comp_attr (a, b) ->
    whole_of a;
    whole_of b;
    []
  | Ast.Neg a | Ast.Castable_as (a, _) | Ast.Cast_as (a, _) | Ast.Comp_text a ->
    whole_of a;
    []
  | Ast.Instance_of (a, _) ->
    nav_of a;
    []
  | Ast.Treat_as (a, _) -> ev a
  | Ast.If (c, t, f) ->
    nav_of c;
    ev t @ ev f
  | Ast.Quantified (_, binds, cond) ->
    let env =
      List.fold_left
        (fun env (v, src) -> Smap.add v (eval st env ctx src) env)
        env binds
    in
    navigate st (eval st env ctx cond);
    []
  | Ast.Flwor f -> flwor st env ctx f
  | Ast.Direct_elem d ->
    direct st env ctx d;
    []
  | Ast.Call (name, args) -> call st env ctx name args

(* Predicates see each item of [v] as their focus; a predicate's value
   is a position or an effective boolean value, so it only navigates. *)
and predicates st env v preds =
  List.iter
    (fun p -> navigate st (eval st env { focus = v; doc_focus = false } p))
    preds;
  v

and call st env ctx (name : Xname.t) args =
  let local = name.Xname.local in
  let arity = List.length args in
  let builtin =
    Xname.is_default_fn name
    && Fn_sigs.accepts name arity
    && not (List.mem (name, arity) st.functions)
  in
  let args =
    if builtin && args = [] && List.mem local focus_readers then begin
      if ctx.doc_focus then
        reached st "the context item denotes the document outside a path";
      [ ctx.focus ]
    end
    else List.map (eval st env ctx) args
  in
  match (builtin, local, args) with
  | true, ("doc" | "collection"), _ ->
    reached st "fn:%s reaches outside the streamed subtree" local;
    raise (Whole_document ("fn:" ^ local ^ " loads a document by name"))
  | true, "root", _ ->
    reached st "fn:root reaches outside the streamed subtree";
    List.iter (whole st) args;
    [ at st [] ]
  | true, _, _ when List.mem local counting ->
    List.iter (navigate st) args;
    []
  | true, _, first :: rest when List.mem local passing ->
    navigate st first;
    (* insert-before's inserted items come back too *)
    (match (local, rest) with
     | "insert-before", [ pos; ins ] ->
       whole st pos;
       navigate st ins;
       first @ ins
     | _ ->
       List.iter (whole st) rest;
       first)
  | true, _, _ ->
    (* every other builtin atomizes its arguments and returns values *)
    List.iter (whole st) args;
    []
  | false, _, _ ->
    (* a user function or a constructor function: its arguments are read
       whole, and it may hand back nodes inside them *)
    List.iter (whole st) args;
    [ Inside ]

and direct st env ctx (d : Ast.direct_elem) =
  List.iter
    (fun (a : Ast.direct_attr) ->
      List.iter
        (function
          | Ast.Attr_text _ -> ()
          | Ast.Attr_expr e -> whole st (eval st env ctx e))
        a.Ast.attr_value)
    d.Ast.attrs;
  List.iter
    (function
      | Ast.Content_text _ | Ast.Content_comment _ -> ()
      | Ast.Content_expr e -> whole st (eval st env ctx e)
      | Ast.Content_elem d -> direct st env ctx d)
    d.Ast.content

and flwor st env ctx (f : Ast.flwor) =
  let ev env e = eval st env ctx e in
  let env =
    List.fold_left
      (fun env clause ->
        match clause with
        | Ast.For bindings ->
          List.fold_left
            (fun env (b : Ast.for_binding) ->
              let env = Smap.add b.Ast.for_var (ev env b.Ast.for_src) env in
              match b.Ast.positional with
              | Some p -> Smap.add p [] env
              | None -> env)
            env bindings
        | Ast.Let bindings ->
          List.fold_left (fun env (v, e) -> Smap.add v (ev env e) env) env bindings
        | Ast.Where e ->
          navigate st (ev env e);
          env
        | Ast.Group_by g ->
          let keys =
            List.map
              (fun (k : Ast.group_key) ->
                let v = ev env k.Ast.key_expr in
                whole st v;
                (k.Ast.key_var, v))
              g.Ast.keys
          in
          let nests =
            List.map
              (fun (n : Ast.nest_spec) ->
                List.iter (fun (e, _) -> whole st (ev env e)) n.Ast.nest_order;
                (n.Ast.nest_var, ev env n.Ast.nest_expr))
              g.Ast.nests
          in
          List.fold_left (fun env (v, x) -> Smap.add v x env) env (keys @ nests)
        | Ast.Order_by { specs; _ } ->
          List.iter (fun (e, _) -> whole st (ev env e)) specs;
          env
        | Ast.Count v -> Smap.add v [] env
        | Ast.Window w ->
          let src = ev env w.Ast.w_src in
          let bind env (c : Ast.window_vars_cond) =
            let opt v x env =
              match v with Some v -> Smap.add v x env | None -> env
            in
            env |> opt c.Ast.wc_item src |> opt c.Ast.wc_prev src
            |> opt c.Ast.wc_next src |> opt c.Ast.wc_pos []
          in
          let env = bind env w.Ast.w_start in
          navigate st (ev env w.Ast.w_start.Ast.wc_when);
          let env =
            match w.Ast.w_end with
            | Some we ->
              let env = bind env we.Ast.we_cond in
              navigate st (ev env we.Ast.we_cond.Ast.wc_when);
              env
            | None -> env
          in
          Smap.add w.Ast.w_var src env)
      env f.Ast.clauses
  in
  let env =
    match f.Ast.return_at with Some v -> Smap.add v [] env | None -> env
  in
  ev env f.Ast.return_expr

(* --- the analysis ----------------------------------------------------------- *)

type t = { verdict : verdict; paths : (Xml_stream.path_set, string) result }

(* The leading binding a streamed run scans, if the body has the shape. *)
let leading (q : Ast.query) =
  match q.Ast.body with
  | Ast.Flwor { Ast.clauses = Ast.For (first :: _) :: _; _ } ->
    Result.map (fun path -> (first, path)) (scan_path_of first.Ast.for_src)
  | Ast.Flwor _ -> Error "the query does not start with a for clause"
  | _ -> Error "the query body is not a single FLWOR"

let walk st (q : Ast.query) =
  (* globals evaluate with the document as focus, before the body *)
  let env =
    List.fold_left
      (fun env (v, e) -> Smap.add v (eval st env doc_ctx e) env)
      Smap.empty q.Ast.prolog.Ast.global_vars
  in
  (* a function body runs once per call: its parameters hold nodes its
     callers read whole, and what it returns is read whole too *)
  List.iter
    (fun (fd : Ast.fun_def) ->
      let env =
        List.fold_left
          (fun env (p : Ast.param) -> Smap.add p.Ast.param_name [ Inside ] env)
          env fd.Ast.params
      in
      whole st (eval st env doc_ctx fd.Ast.body))
    q.Ast.prolog.Ast.functions;
  (* the leading binding's source is what a stream scans: walking it
     reaches nothing *)
  let body =
    match (q.Ast.body, leading q) with
    | Ast.Flwor f, Ok (first, _) ->
      let rest =
        match f.Ast.clauses with
        | Ast.For (_ :: more) :: clauses ->
          if more = [] then clauses else Ast.For more :: clauses
        | clauses -> clauses
      in
      st.quiet <- true;
      let src = eval st env doc_ctx first.Ast.for_src in
      st.quiet <- false;
      let env = Smap.add first.Ast.for_var src env in
      let env =
        match first.Ast.positional with
        | Some p -> Smap.add p [] env
        | None -> env
      in
      flwor st env doc_ctx { f with Ast.clauses = rest }
    | body, _ -> eval st env doc_ctx body
  in
  (* the result is serialized *)
  whole st body

let analyze_paths (q : Ast.query) : t =
  let functions =
    List.map
      (fun (fd : Ast.fun_def) -> (fd.Ast.fun_name, List.length fd.Ast.params))
      q.Ast.prolog.Ast.functions
  in
  let st = { paths = []; reach = None; quiet = false; functions } in
  let paths =
    match walk st q with
    | () -> (
      match List.assoc_opt [] st.paths with
      | Some Xml_stream.Whole -> Error "the query reads the whole document"
      | _ ->
        (* the document node itself is always built *)
        Ok (List.rev (List.remove_assoc [] st.paths)))
    | exception Whole_document reason -> Error reason
  in
  let verdict =
    match (leading q, st.reach) with
    | Error reason, _ | Ok _, Some reason -> Materialize reason
    | Ok (first, path), None ->
      Streamable
        { path; var = first.Ast.for_var; positional = first.Ast.positional }
  in
  { verdict; paths }

let analyze q = (analyze_paths q).verdict

let to_string = function
  | Streamable { path; var; positional } ->
    Printf.sprintf "streamable: $%s%s <- scan %s" var
      (match positional with Some p -> " at $" ^ p | None -> "")
      (Xml_stream.path_to_string path)
  | Materialize reason -> "materialize: " ^ reason
