open Xq_xdm
open Xq_lang
module Governor = Xq_governor.Governor

module Smap = Map.Make (String)

let ctx_with_tuple ctx tuple =
  Smap.fold (fun v value ctx -> Context.bind ctx v value) tuple ctx

(* --- axes and node tests ---------------------------------------------- *)

let axis_nodes axis node =
  match (axis : Ast.axis) with
  | Child -> Node.children node
  | Descendant -> Node.descendants node
  | Attribute_axis -> Node.attributes node
  | Self -> [ node ]
  | Parent -> Option.to_list (Node.parent node)
  | Descendant_or_self -> Node.descendant_or_self node
  | Ancestor -> Node.ancestors node
  | Ancestor_or_self -> node :: Node.ancestors node
  | Following_sibling -> Node.following_siblings node
  | Preceding_sibling -> Node.preceding_siblings node

(* The principal node kind of an axis: attributes for the attribute axis,
   elements otherwise (name tests match only the principal kind). *)
let principal_is_attribute = function
  | Ast.Attribute_axis -> true
  | _ -> false

let name_matches expected node =
  match Node.name node with
  | Some actual -> Xname.equal expected actual
  | None -> false

let test_matches axis test node =
  let principal_kind_ok =
    if principal_is_attribute axis then Node.is_attribute node
    else Node.is_element node
  in
  match (test : Ast.node_test) with
  | Name_test nm -> principal_kind_ok && name_matches nm node
  | Wildcard -> principal_kind_ok
  | Prefix_wildcard p ->
    principal_kind_ok
    && (match Node.name node with
        | Some nm -> nm.Xname.prefix = Some p
        | None -> false)
  | Kind_node -> true
  | Kind_text -> Node.is_text node
  | Kind_comment -> Node.kind node = Node.Comment
  | Kind_element None -> Node.is_element node
  | Kind_element (Some nm) -> Node.is_element node && name_matches nm node
  | Kind_attribute None -> Node.is_attribute node
  | Kind_attribute (Some nm) -> Node.is_attribute node && name_matches nm node
  | Kind_document -> Node.kind node = Node.Document

(* --- fused path scan ---------------------------------------------------- *)

(* Vectorized fast path for predicate-free child/descendant path spines
   (e.g. [//order/lineitem], [$x/a//b]): instead of materializing the
   intermediate node list of every step — with one focus record, one
   [eval] dispatch and one doc-order sort per level — the whole spine
   compiles to a bitmask NFA evaluated in a single pre-order DFS.

   Bit [j] at a node means "this node is in the result of the first [j]
   steps". A [//] step's target bit is closed over descendants by
   inheritance; a child step's target bit is gained when the node test
   matches. A node with bit [k] (all steps consumed) set is emitted; the
   single pre-order walk of one root yields exactly the deduplicated
   document order the step-at-a-time path ends with. Attributes never
   appear (the child axis does not yield them), matching [axis_nodes].

   Only active when the query is batched ([Config.batch > 1]) — at
   batch size 1 the legacy step-at-a-time scan runs, which is the
   item-granularity baseline the bench ablation compares against. *)

type scan_step = SChild of Ast.node_test | SDos

type spine_head =
  | HRoot  (* absolute: start at the focus item's root *)
  | HFocus (* relative: start at the focus node *)
  | HVar of string (* start at the nodes a variable is bound to *)

let max_fused_steps = 30

let compile_spine e =
  let rec flat acc = function
    | Ast.Slash (a, b) -> flat (b :: acc) a
    | hd -> hd :: acc
  in
  let step_of = function
    | Ast.Step (Ast.Child, t, []) -> Some (SChild t)
    | Ast.Step (Ast.Descendant_or_self, Ast.Kind_node, []) -> Some SDos
    | _ -> None
  in
  let rec steps_of acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | p :: ps -> (
      match step_of p with Some s -> steps_of (s :: acc) ps | None -> None)
  in
  match flat [] e with
  | parts when List.length parts > max_fused_steps -> None
  | Ast.Root :: rest when rest <> [] ->
    Option.map (fun s -> (HRoot, s)) (steps_of [] rest)
  | (Ast.Step _ :: _) as parts ->
    Option.map (fun s -> (HFocus, s)) (steps_of [] parts)
  | Ast.Var v :: rest when rest <> [] ->
    Option.map (fun s -> (HVar v, s)) (steps_of [] rest)
  | _ -> None

(* One DFS from [root]; appends matches in reverse pre-order to [out]. *)
let fused_walk steps root out =
  let k = Array.length steps in
  let accept_bit = 1 lsl k in
  let dos_targets = ref 0 and child_sources = ref 0 in
  Array.iteri
    (fun j s ->
      match s with
      | SDos -> dos_targets := !dos_targets lor (1 lsl (j + 1))
      | SChild _ -> child_sources := !child_sources lor (1 lsl j))
    steps;
  let dos_targets = !dos_targets and child_sources = !child_sources in
  (* A text node is only ever a result, never a source, and only the
     last step can select it; otherwise a leaf's text child, which a
     [children] read would build, is skipped. *)
  let texts_selectable =
    k > 0
    &&
    match steps.(k - 1) with
    | SDos | SChild (Ast.Kind_node | Ast.Kind_text) -> true
    | SChild _ -> false
  in
  (* cascading [//] bits only ever move upward, so one ascending pass
     reaches the fixpoint *)
  let closure m0 =
    let m = ref m0 in
    for j = 0 to k - 1 do
      if !m land (1 lsl j) <> 0 then
        match steps.(j) with SDos -> m := !m lor (1 lsl (j + 1)) | SChild _ -> ()
    done;
    !m
  in
  let visited = ref 0 in
  let rec visit n m0 =
    (* batch-granularity governor ticks: one per 256 nodes *)
    if !visited land 255 = 0 then Governor.tick ();
    incr visited;
    let m = closure m0 in
    if m land accept_bit <> 0 then out := n :: !out;
    if
      m land (dos_targets lor child_sources) <> 0
      && (texts_selectable || not (Node.is_leaf n))
    then
      List.iter
        (fun c ->
          let cm = ref (m land dos_targets) in
          for j = 0 to k - 1 do
            if m land (1 lsl j) <> 0 then
              match steps.(j) with
              | SChild t ->
                if test_matches Ast.Child t c then cm := !cm lor (1 lsl (j + 1))
              | SDos -> ()
          done;
          if !cm <> 0 then visit c !cm)
        (Node.children n)
  in
  visit root 1

(* [Some result] when the spine qualifies and the start nodes resolve,
   [None] to fall back to the step-at-a-time scan (which also owns the
   error cases, e.g. '/' with an atomic focus). [HVar] evaluation is a
   pure lookup, so falling back after it cannot double side effects. *)
let fused_scan_path ctx e =
  if (Context.config ctx).Xq_governor.Config.batch <= 1 then None
  else
    match compile_spine e with
    | None -> None
    | Some (head, steps) ->
      let focus_node () =
        match Context.focus ctx with
        | Some { Context.item = Item.Node n; _ } -> Some n
        | Some _ | None -> None
      in
      let roots =
        match head with
        | HRoot -> Option.map (fun n -> [ Node.root n ]) (focus_node ())
        | HFocus -> Option.map (fun n -> [ n ]) (focus_node ())
        | HVar v -> (
          match Context.lookup ctx v with
          | Some seq -> Some (Xseq.nodes seq)
          | None -> None)
      in
      match roots with
      | None -> None
      | Some roots ->
        let acc = ref [] in
        List.iter (fun r -> fused_walk steps r acc) roots;
        let nodes = List.rev !acc in
        let nodes =
          (* a single root's pre-order is already deduplicated document
             order; several (possibly nested) roots need the full sort *)
          match roots with
          | [] | [ _ ] -> nodes
          | _ -> Node.sort_in_doc_order nodes
        in
        Some (Xseq.of_nodes nodes)

(* --- main evaluator ---------------------------------------------------- *)

(* May [e] be evaluated concurrently on several domains? The evaluator
   is functional except for node construction ([Node.fresh_id] bumps a
   global non-atomic counter), so an expression is parallel-safe when it
   constructs no nodes anywhere — including inside the functions it
   calls. User function bodies are opaque here, so any call resolved by
   the context disqualifies; builtins are safe except the registry
   readers and [fn:trace] (observable output order). Conservative by
   design: grouping falls back to sequential key evaluation, never the
   other way. *)
let parallel_safe ctx e =
  (not (Ast_utils.constructs_nodes e))
  && List.for_all
       (fun ((name : Xname.t), arity) ->
         Context.find_function ctx name arity = None
         && Xname.is_default_fn name
         && not (List.mem name.Xname.local [ "doc"; "collection"; "trace" ]))
       (Ast_utils.call_sites e)

let rec eval ctx (e : Ast.expr) : Xseq.t =
  Governor.tick ();
  match e with
  | Literal a -> [ Item.Atomic a ]
  | Var v -> Context.lookup_exn ctx v
  | Context_item -> [ (Context.focus_exn ctx).Context.item ]
  | Sequence es -> Xseq.concat (List.map (eval ctx) es)
  | Range (a, b) -> begin
    match Xseq.atomized_opt (eval ctx a), Xseq.atomized_opt (eval ctx b) with
    | None, _ | _, None -> Xseq.empty
    | Some x, Some y ->
      let lo = Atomic.cast_to_integer x and hi = Atomic.cast_to_integer y in
      if lo > hi then Xseq.empty
      else
        List.init (hi - lo + 1) (fun i ->
            Governor.tick ();
            Item.of_int (lo + i))
  end
  | Arith (op, a, b) -> Compare.arith op (eval ctx a) (eval ctx b)
  | Neg a -> begin
    match Xseq.atomized_opt (eval ctx a) with
    | None -> Xseq.empty
    | Some (Atomic.Int i) -> [ Item.of_int (-i) ]
    | Some (Atomic.Dec f) -> [ Item.Atomic (Atomic.Dec (-.f)) ]
    | Some (Atomic.Dbl f) -> [ Item.Atomic (Atomic.Dbl (-.f)) ]
    | Some (Atomic.Untyped s) ->
      [ Item.of_double (-.Atomic.cast_to_double (Atomic.Untyped s)) ]
    | Some a ->
      Xerror.failf XPTY0004 "unary minus on %s" (Atomic.type_name a)
  end
  | General_cmp (op, a, b) ->
    Xseq.of_bool (Compare.general op (eval ctx a) (eval ctx b))
  | Value_cmp (op, a, b) -> begin
    match Compare.value op (eval ctx a) (eval ctx b) with
    | None -> Xseq.empty
    | Some r -> Xseq.of_bool r
  end
  | Node_cmp (op, a, b) -> begin
    match Compare.node op (eval ctx a) (eval ctx b) with
    | None -> Xseq.empty
    | Some r -> Xseq.of_bool r
  end
  | And (a, b) ->
    Xseq.of_bool
      (Xseq.effective_boolean_value (eval ctx a)
       && Xseq.effective_boolean_value (eval ctx b))
  | Or (a, b) ->
    Xseq.of_bool
      (Xseq.effective_boolean_value (eval ctx a)
       || Xseq.effective_boolean_value (eval ctx b))
  | Union (a, b) ->
    let l = Xseq.nodes (eval ctx a) and r = Xseq.nodes (eval ctx b) in
    Xseq.of_nodes (Node.sort_in_doc_order (l @ r))
  | Intersect (a, b) ->
    let l = Xseq.nodes (eval ctx a) and r = Xseq.nodes (eval ctx b) in
    let keep n = List.exists (Node.same n) r in
    Xseq.of_nodes (Node.sort_in_doc_order (List.filter keep l))
  | Except (a, b) ->
    let l = Xseq.nodes (eval ctx a) and r = Xseq.nodes (eval ctx b) in
    let keep n = not (List.exists (Node.same n) r) in
    Xseq.of_nodes (Node.sort_in_doc_order (List.filter keep l))
  | Instance_of (e, t) -> Xseq.of_bool (Type_check.matches (eval ctx e) t)
  | Treat_as (e, t) ->
    let v = eval ctx e in
    if Type_check.matches v t then v
    else
      Xerror.failf XPTY0004 "treat as: value does not match %s"
        (Type_check.to_string t)
  | Castable_as (e, t) -> begin
    match Type_check.cast (eval ctx e) t with
    | _ -> Xseq.of_bool true
    | exception Xerror.Error _ -> Xseq.of_bool false
  end
  | Cast_as (e, t) -> Type_check.cast (eval ctx e) t
  | If (c, t, e) ->
    if Xseq.effective_boolean_value (eval ctx c) then eval ctx t
    else eval ctx e
  | Quantified (q, binds, body) -> Xseq.of_bool (eval_quantified ctx q binds body)
  | Flwor f -> Context.run_flwor ctx f
  | Root -> begin
    match (Context.focus_exn ctx).Context.item with
    | Item.Node n -> [ Item.Node (Node.root n) ]
    | Item.Atomic _ ->
      Xerror.fail XPTY0004 "'/' requires the context item to be a node"
  end
  | Step (axis, test, preds) -> begin
    match (Context.focus_exn ctx).Context.item with
    | Item.Node n ->
      let nodes =
        List.filter (test_matches axis test) (axis_nodes axis n)
      in
      apply_predicates ctx (Xseq.of_nodes nodes) preds
    | Item.Atomic _ ->
      Xerror.fail XPTY0004 "a path step requires the context item to be a node"
  end
  | Slash (a, b) -> eval_slash ctx a b
  | Filter (e, preds) -> apply_predicates ctx (eval ctx e) preds
  | Call (name, args) -> eval_call ctx name args
  | Direct_elem d -> [ Item.Node (construct_direct ctx d) ]
  | Comp_elem (name_e, content_e) ->
    let name = constructor_name ctx name_e in
    let el = Node.element name in
    fill_element ctx el [ Ast.Content_expr content_e ];
    [ Item.Node el ]
  | Comp_attr (name_e, content_e) ->
    let name = constructor_name ctx name_e in
    let value = atomics_to_text (Xseq.atomize (eval ctx content_e)) in
    [ Item.Node (Node.attribute name (Option.value value ~default:"")) ]
  | Comp_text content_e -> begin
    match atomics_to_text (Xseq.atomize (eval ctx content_e)) with
    | None -> Xseq.empty
    | Some s -> [ Item.Node (Node.text s) ]
  end

and eval_quantified ctx q binds body =
  (* expand bindings left to right; some = exists, every = forall *)
  let rec go ctx = function
    | [] -> Xseq.effective_boolean_value (eval ctx body)
    | (v, src) :: rest ->
      let items = eval ctx src in
      let test item = go (Context.bind ctx v [ item ]) rest in
      (match q with
       | Ast.Some_quant -> List.exists test items
       | Ast.Every_quant -> List.for_all test items)
  in
  match q with
  | Ast.Some_quant -> go ctx binds
  | Ast.Every_quant -> go ctx binds

and eval_slash ctx a b =
  match fused_scan_path ctx (Ast.Slash (a, b)) with
  | Some result -> result
  | None -> eval_slash_scan ctx a b

and eval_slash_scan ctx a b =
  let left = eval ctx a in
  let nodes = Xseq.nodes left in
  let size = List.length nodes in
  let results =
    List.mapi
      (fun i n ->
        let focus =
          { Context.item = Item.Node n; position = i + 1; size }
        in
        eval (Context.with_focus ctx focus) b)
      nodes
  in
  let all = Xseq.concat results in
  let has_node = List.exists Item.is_node all in
  let has_atomic = List.exists (fun it -> not (Item.is_node it)) all in
  if has_node && has_atomic then
    Xerror.fail XPTY0004 "path result mixes nodes and atomic values"
  else if has_node then Xseq.of_nodes (Node.sort_in_doc_order (Xseq.nodes all))
  else all

and apply_predicates ctx items preds =
  List.fold_left (apply_predicate ctx) items preds

and apply_predicate ctx items pred =
  let size = List.length items in
  List.filteri
    (fun i item ->
      let focus = { Context.item; position = i + 1; size } in
      let v = eval (Context.with_focus ctx focus) pred in
      match v with
      | [ Item.Atomic (Atomic.Int n) ] -> n = i + 1
      | [ Item.Atomic (Atomic.Dec f) ] | [ Item.Atomic (Atomic.Dbl f) ] ->
        f = float_of_int (i + 1)
      | other -> Xseq.effective_boolean_value other)
    items

and eval_call ctx name args_e =
  let args = List.map (eval ctx) args_e in
  (* the eager-aggregation unwrap builtin first: its name contains "!"
     so no user-written or user-defined function can shadow it, and
     [Fn_sigs] does not know it *)
  if Xname.is_default_fn name && name.Xname.local = Acc.unwrap_local then begin
    match args with
    | [
     [
       Item.Atomic (Atomic.Str tag);
       Item.Atomic (Atomic.Str code);
       Item.Atomic (Atomic.Str msg);
     ];
    ]
      when tag = Acc.poison_tag -> begin
      (* the error the aggregate builtin would have raised here *)
      match Xerror.code_of_string code with
      | Some c -> raise (Xerror.Error (c, msg))
      | None -> Xerror.failf FORG0006 "corrupt aggregate poison code %S" code
    end
    | [ seq ] -> seq
    | _ ->
      Xerror.failf XPST0017 "unknown function %s#%d" (Xname.to_string name)
        (List.length args)
  end
  else
    match Context.find_function ctx name (List.length args) with
    | Some f -> apply_user_function ctx f args
    | None ->
      if Fn_sigs.accepts name (List.length args) then Builtins.call ctx name args
      else
        Xerror.failf XPST0017 "unknown function %s#%d" (Xname.to_string name)
          (List.length args)

and apply_user_function ctx (f : Context.func) args =
  let bindings = List.combine f.Context.fn_params args in
  eval (Context.function_scope ctx bindings) f.Context.fn_body

(* --- constructors ------------------------------------------------------ *)

and constructor_name ctx name_e =
  match Xseq.atomized_opt (eval ctx name_e) with
  | Some (Atomic.QName n) -> n
  | Some a -> Xname.of_string (Atomic.to_string a)
  | None -> Xerror.fail XPTY0004 "constructor name evaluated to ()"

(* Adjacent atomic values become one text node, space-separated. *)
and atomics_to_text atoms =
  match atoms with
  | [] -> None
  | _ -> Some (String.concat " " (List.map Atomic.to_string atoms))

and construct_direct ctx (d : Ast.direct_elem) =
  let el = Node.element d.tag in
  List.iter
    (fun (a : Ast.direct_attr) ->
      let buf = Buffer.create 16 in
      List.iter
        (fun piece ->
          match (piece : Ast.attr_piece) with
          | Attr_text s -> Buffer.add_string buf s
          | Attr_expr e ->
            let atoms = Xseq.atomize (eval ctx e) in
            Buffer.add_string buf
              (String.concat " " (List.map Atomic.to_string atoms)))
        a.attr_value;
      Node.set_attribute el (Node.attribute a.attr_tag (Buffer.contents buf)))
    d.attrs;
  fill_element ctx el d.content;
  el

(* Evaluate constructor content into an element: copies content nodes
   (constructor semantics), merges adjacent atomics into text nodes and
   attaches attribute nodes produced by enclosed expressions. *)
and fill_element ctx el content =
  let pending_text = Buffer.create 16 in
  let pending_sep = ref false in
  let flush_text () =
    if Buffer.length pending_text > 0 then begin
      Node.append_child el (Node.text (Buffer.contents pending_text));
      Buffer.clear pending_text
    end;
    pending_sep := false
  in
  let add_atomic a =
    if !pending_sep then Buffer.add_char pending_text ' ';
    Buffer.add_string pending_text (Atomic.to_string a);
    pending_sep := true
  in
  let add_node n =
    match Node.kind n with
    | Node.Attribute ->
      flush_text ();
      Node.set_attribute el
        (Node.attribute
           (Option.get (Node.name n))
           (Node.attribute_value n))
    | Node.Document ->
      flush_text ();
      List.iter (fun c -> Node.append_child el (Node.copy c)) (Node.children n)
    | Node.Element | Node.Text | Node.Comment | Node.Pi ->
      flush_text ();
      Node.append_child el (Node.copy n)
  in
  List.iter
    (fun item ->
      match (item : Ast.content_item) with
      | Content_text s ->
        flush_text ();
        Node.append_child el (Node.text s)
      | Content_comment s ->
        flush_text ();
        Node.append_child el (Node.comment s)
      | Content_elem child ->
        flush_text ();
        Node.append_child el (construct_direct ctx child)
      | Content_expr e ->
        let items = eval ctx e in
        List.iter
          (fun it ->
            match (it : Item.t) with
            | Item.Atomic a -> add_atomic a
            | Item.Node n ->
              pending_sep := false;
              add_node n)
          items;
        (* a following enclosed expression's atomics are separated *)
        pending_sep := false;
        flush_text ())
    content;
  flush_text ();
  Node.seal el

(* --- windows ------------------------------------------------------------ *)

(* Expand one tuple into one tuple per window over the clause's source
   sequence (XQuery 3.0 tumbling/sliding semantics; boundary search in
   Window_sem). *)
and eval_window ctx (w : Ast.window_clause) tuple =
  let tctx = ctx_with_tuple ctx tuple in
  let items = Array.of_list (eval tctx w.w_src) in
  let length = Array.length items in
  (* bind a condition's variables for position [pos] (1-based) *)
  let bind_cond (wc : Ast.window_vars_cond) pos tuple =
    let add var value tuple =
      match var with
      | Some v -> Smap.add v value tuple
      | None -> tuple
    in
    tuple
    |> add wc.wc_item [ items.(pos - 1) ]
    |> add wc.wc_pos (Xseq.of_int pos)
    |> add wc.wc_prev (if pos >= 2 then [ items.(pos - 2) ] else [])
    |> add wc.wc_next (if pos < length then [ items.(pos) ] else [])
  in
  let holds (wc : Ast.window_vars_cond) pos =
    let inner = ctx_with_tuple ctx (bind_cond wc pos tuple) in
    Xseq.effective_boolean_value (eval inner wc.wc_when)
  in
  let start_when pos = holds w.w_start pos in
  let end_when, only_end =
    match w.w_end with
    | Some { we_only; we_cond } ->
      (* the end condition also sees the start condition's variables,
         bound at the window's start position *)
      ( Some
          (fun ~start_pos pos ->
            let t = bind_cond w.w_start start_pos tuple in
            let t = bind_cond we_cond pos t in
            Xseq.effective_boolean_value
              (eval (ctx_with_tuple ctx t) we_cond.wc_when)),
        we_only )
    | None -> (None, false)
  in
  let bounds =
    Window_sem.compute ~kind:w.w_kind ~start_when ~end_when ~only_end ~length
  in
  List.map
    (fun (b : Window_sem.bounds) ->
      let window_items =
        List.init (b.end_pos - b.start_pos + 1) (fun i ->
            items.(b.start_pos - 1 + i))
      in
      let tuple = Smap.add w.w_var window_items tuple in
      let tuple = bind_cond w.w_start b.start_pos tuple in
      match w.w_end with
      | Some { we_cond; _ } -> bind_cond we_cond b.end_pos tuple
      | None -> tuple)
    bounds

(* Bridge for the algebra executor: window expansion over association-list
   tuples (the executor has its own tuple map type). *)
let expand_window_bindings ctx w bindings =
  let tuple =
    List.fold_left (fun m (v, value) -> Smap.add v value m) Smap.empty bindings
  in
  List.map Smap.bindings (eval_window ctx w tuple)
