(* The differential-fuzzing oracle: a naive, audit-by-eye interpreter
   for the generated FLWOR/grouping subset. Where the engine builds
   canonical keys, hashes, sorts, parallelizes or spills, this file
   does the obvious thing with lists and pairwise deep-equal. It
   deliberately shares nothing with lib/engine — only the data model
   (Xq_xdm) and the AST (Xq_lang). *)

open Xq_xdm
open Xq_lang

exception Unsupported of string

let unsupported what = raise (Unsupported what)

module Smap = Map.Make (String)

(* --- the naive grouping partition (Section 3.3, literally) ------------- *)

type 'a group = {
  keys : Xseq.t list;
  members : 'a list;
}

let key_lists_deep_equal a b =
  List.length a = List.length b && List.for_all2 Deep_equal.sequences a b

let group_by_deep_equal ~keys_of items =
  (* groups held in first-occurrence order; members appended in input
     order. Quadratic on purpose: every tuple is compared against every
     existing group's representative with pairwise deep-equal. *)
  let groups = ref [] in
  List.iter
    (fun item ->
      let keys = keys_of item in
      let rec place = function
        | [] -> groups := !groups @ [ { keys; members = [ item ] } ]
        | g :: rest ->
          if key_lists_deep_equal g.keys keys then begin
            let updated = { g with members = g.members @ [ item ] } in
            groups :=
              List.map (fun g' -> if g' == g then updated else g') !groups
          end
          else place rest
      in
      place !groups)
    items;
  !groups

(* --- dynamic context --------------------------------------------------- *)

type focus = { item : Item.t; pos : int; size : int }

type ctx = { vars : Xseq.t Smap.t; focus : focus option }

let lookup ctx v =
  match Smap.find_opt v ctx.vars with
  | Some value -> value
  | None -> Xerror.failf XPST0008 "undefined variable $%s" v

let focus_exn ctx =
  match ctx.focus with
  | Some f -> f
  | None -> Xerror.fail XPDY0002 "no context item"

(* --- scalar helpers (naive re-statements of the spec) ------------------ *)

let zero_or_one_atom seq =
  match Xseq.atomize seq with
  | [] -> None
  | [ a ] -> Some a
  | _ -> Xerror.fail XPTY0004 "expected at most one atomic value"

let string_of_seq seq =
  match seq with
  | [] -> ""
  | [ item ] -> Item.string_value item
  | _ -> Xerror.fail XPTY0004 "expected at most one item for a string"

(* Numeric promotion lattice: integer < decimal < double; untyped casts
   to double. *)
type num_ty = Nint | Ndec | Ndbl

let as_number a =
  match a with
  | Atomic.Int i -> (Nint, float_of_int i)
  | Atomic.Dec f -> (Ndec, f)
  | Atomic.Dbl f -> (Ndbl, f)
  | Atomic.Untyped s -> begin
    match float_of_string_opt (String.trim s) with
    | Some f -> (Ndbl, f)
    | None ->
      Xerror.failf FORG0001 "cannot cast %S to xs:double for arithmetic" s
  end
  | _ ->
    Xerror.failf XPTY0004 "arithmetic on non-numeric %s" (Atomic.type_name a)

let join_ty a b =
  match a, b with
  | Ndbl, _ | _, Ndbl -> Ndbl
  | Ndec, _ | _, Ndec -> Ndec
  | Nint, Nint -> Nint

let arith op l r =
  match zero_or_one_atom l, zero_or_one_atom r with
  | None, _ | _, None -> Xseq.empty
  | Some (Atomic.Int x), Some (Atomic.Int y) -> begin
    (* exact integer arithmetic on OCaml's 63-bit ints; wraparound is a
       dynamic error, as in the engine *)
    let overflow () = Xerror.fail FOCA0002 "integer overflow" in
    match (op : Ast.arith_op) with
    | Add ->
      let r = x + y in
      if x >= 0 = (y >= 0) && r >= 0 <> (x >= 0) then overflow ()
      else [ Item.of_int r ]
    | Sub ->
      let r = x - y in
      if x >= 0 <> (y >= 0) && r >= 0 <> (x >= 0) then overflow ()
      else [ Item.of_int r ]
    | Mul ->
      if x = 0 || y = 0 then [ Item.of_int 0 ]
      else if (x = -1 && y = min_int) || (y = -1 && x = min_int) then
        overflow ()
      else
        let r = x * y in
        if r / x <> y then overflow () else [ Item.of_int r ]
    | Div ->
      if y = 0 then Xerror.fail FOAR0001 "division by zero"
      else [ Item.Atomic (Atomic.Dec (float_of_int x /. float_of_int y)) ]
    | Idiv ->
      if y = 0 then Xerror.fail FOAR0001 "integer division by zero"
      else [ Item.of_int (x / y) ]
    | Mod ->
      if y = 0 then Xerror.fail FOAR0001 "modulo by zero"
      else [ Item.of_int (x mod y) ]
  end
  | Some a, Some b ->
    let ta, fa = as_number a and tb, fb = as_number b in
    let ty = join_ty ta tb in
    let wrap f =
      match ty with
      | Nint ->
        if Float.abs f < 4.611686018427388e18 then [ Item.of_int (int_of_float f) ]
        else Xerror.fail FOCA0002 "integer overflow"
      | Ndec -> [ Item.Atomic (Atomic.Dec f) ]
      | Ndbl -> [ Item.Atomic (Atomic.Dbl f) ]
    in
    (match (op : Ast.arith_op) with
     | Add -> wrap (fa +. fb)
     | Sub -> wrap (fa -. fb)
     | Mul -> wrap (fa *. fb)
     | Div ->
       if fb = 0. && ty <> Ndbl then Xerror.fail FOAR0001 "division by zero"
       else begin
         let q = fa /. fb in
         match ty with
         | Nint | Ndec -> [ Item.Atomic (Atomic.Dec q) ]
         | Ndbl -> [ Item.Atomic (Atomic.Dbl q) ]
       end
     | Idiv ->
       if fb = 0. then Xerror.fail FOAR0001 "integer division by zero"
       else [ Item.of_int (int_of_float (Float.trunc (fa /. fb))) ]
     | Mod ->
       if fb = 0. && ty <> Ndbl then Xerror.fail FOAR0001 "modulo by zero"
       else wrap (Float.rem fa fb))

let general_cmp_holds op c =
  match (op : Ast.general_cmp) with
  | Gen_eq -> c = 0
  | Gen_ne -> c <> 0
  | Gen_lt -> c < 0
  | Gen_le -> c <= 0
  | Gen_gt -> c > 0
  | Gen_ge -> c >= 0

let general op l r =
  (* existential over all pairs of atomized operands *)
  let ls = Xseq.atomize l and rs = Xseq.atomize r in
  List.exists
    (fun a ->
      List.exists
        (fun b ->
          match Atomic.general_compare a b with
          | Atomic.Ordered c -> general_cmp_holds op c
          | Atomic.Unordered -> false
          | Atomic.Incomparable ->
            Xerror.failf XPTY0004 "cannot compare %s with %s"
              (Atomic.type_name a) (Atomic.type_name b))
        rs)
    ls

let value_cmp_holds op c =
  match (op : Ast.value_cmp) with
  | Val_eq -> c = 0
  | Val_ne -> c <> 0
  | Val_lt -> c < 0
  | Val_le -> c <= 0
  | Val_gt -> c > 0
  | Val_ge -> c >= 0

let value_cmp op l r =
  match zero_or_one_atom l, zero_or_one_atom r with
  | None, _ | _, None -> Xseq.empty
  | Some a, Some b ->
    (match Atomic.value_compare a b with
     | Atomic.Ordered c -> Xseq.of_bool (value_cmp_holds op c)
     | Atomic.Unordered -> Xseq.of_bool false
     | Atomic.Incomparable ->
       Xerror.failf XPTY0004 "cannot compare %s with %s (value comparison)"
         (Atomic.type_name a) (Atomic.type_name b))

(* Order-by key comparison: empty (and NaN) rank below everything by
   default, above with [empty greatest]; [descending] flips the whole
   comparison. *)
let order_key_compare (m : Ast.order_modifier) a b =
  let empty_greatest = Option.value m.empty_greatest ~default:false in
  let rank v =
    match v with
    | None -> if empty_greatest then 1 else -1
    | Some (Atomic.Dec f | Atomic.Dbl f) when Float.is_nan f ->
      if empty_greatest then 1 else -1
    | Some _ -> 0
  in
  let base =
    match rank a, rank b with
    | 0, 0 -> begin
      match a, b with
      | Some x, Some y -> begin
        match Atomic.value_compare x y with
        | Atomic.Ordered c -> c
        | Atomic.Unordered -> 0
        | Atomic.Incomparable ->
          Xerror.failf XPTY0004 "order by keys of incomparable types %s and %s"
            (Atomic.type_name x) (Atomic.type_name y)
      end
      | _ -> assert false
    end
    | ra, rb -> Int.compare ra rb
  in
  if m.descending then -base else base

(* --- builtins (the generated subset only) ------------------------------ *)

let numeric_values name seq =
  List.map
    (fun a ->
      match a with
      | Atomic.Int _ | Atomic.Dec _ | Atomic.Dbl _ | Atomic.Untyped _ ->
        snd (as_number a)
      | _ ->
        Xerror.failf FORG0006 "%s: non-numeric item of type %s" name
          (Atomic.type_name a))
    (Xseq.atomize seq)

(* The most specific common numeric type: integer stays integer, a
   decimal taints to decimal, untyped/double to double. *)
let common_type seq =
  List.fold_left
    (fun acc a ->
      match acc, a with
      | Ndbl, _ | _, (Atomic.Dbl _ | Atomic.Untyped _) -> Ndbl
      | Ndec, _ | _, Atomic.Dec _ -> Ndec
      | Nint, Atomic.Int _ -> Nint
      | Nint, _ -> Ndbl)
    Nint (Xseq.atomize seq)

let wrap_common ty f =
  match ty with
  | Nint when Float.is_integer f -> Item.of_int (int_of_float f)
  | Nint | Ndec -> Item.Atomic (Atomic.Dec f)
  | Ndbl -> Item.Atomic (Atomic.Dbl f)

let fn_sum seq =
  match seq with
  | [] -> [ Item.of_int 0 ]
  | _ ->
    let total = List.fold_left ( +. ) 0. (numeric_values "sum" seq) in
    [ wrap_common (common_type seq) total ]

let fn_avg seq =
  match seq with
  | [] -> []
  | _ ->
    let vals = numeric_values "avg" seq in
    let mean = List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals) in
    let ty = match common_type seq with Nint -> Ndec | t -> t in
    [ wrap_common ty mean ]

let fn_minmax name pick seq =
  match Xseq.atomize seq with
  | [] -> []
  | first :: rest ->
    let norm a =
      match a with
      | Atomic.Untyped s -> begin
        match float_of_string_opt (String.trim s) with
        | Some f -> Atomic.Dbl f
        | None -> Xerror.failf FORG0001 "cannot cast %S to a number" s
      end
      | _ -> a
    in
    let best =
      List.fold_left
        (fun best a ->
          let a = norm a in
          match Atomic.value_compare a best with
          | Atomic.Ordered c -> if pick c then a else best
          | Atomic.Unordered -> best
          | Atomic.Incomparable ->
            Xerror.failf FORG0006 "%s: incomparable items %s and %s" name
              (Atomic.type_name a) (Atomic.type_name best))
        (norm first) rest
    in
    [ Item.Atomic best ]

let fn_number seq =
  match zero_or_one_atom seq with
  | None -> [ Item.Atomic (Atomic.Dbl Float.nan) ]
  | Some a -> [ Item.Atomic (Atomic.Dbl (Atomic.number a)) ]

let is_fn name = Xname.is_default_fn name

let call name args =
  if not (is_fn name) then
    unsupported (Printf.sprintf "function %s" (Xname.to_string name));
  match name.Xname.local, args with
  | "count", [ s ] -> [ Item.of_int (List.length s) ]
  | "sum", [ s ] -> fn_sum s
  | "avg", [ s ] -> fn_avg s
  | "min", [ s ] -> fn_minmax "min" (fun c -> c < 0) s
  | "max", [ s ] -> fn_minmax "max" (fun c -> c > 0) s
  | "empty", [ s ] -> Xseq.of_bool (s = [])
  | "exists", [ s ] -> Xseq.of_bool (s <> [])
  | "not", [ s ] -> Xseq.of_bool (not (Xseq.effective_boolean_value s))
  | "true", [] -> Xseq.of_bool true
  | "false", [] -> Xseq.of_bool false
  | "string", [ s ] -> Xseq.of_string (string_of_seq s)
  | "string-length", [ s ] -> Xseq.of_int (String.length (string_of_seq s))
  | "number", [ s ] -> fn_number s
  | "concat", args when List.length args >= 2 ->
    Xseq.of_string
      (String.concat ""
         (List.map
            (fun s ->
              match zero_or_one_atom s with
              | None -> ""
              | Some a -> Atomic.to_string a)
            args))
  | "string-join", [ s ] ->
    Xseq.of_string (String.concat "" (List.map Item.string_value s))
  | "string-join", [ s; sep ] ->
    Xseq.of_string
      (String.concat (string_of_seq sep) (List.map Item.string_value s))
  | "deep-equal", [ a; b ] -> Xseq.of_bool (Deep_equal.sequences a b)
  | "distinct-values", [ s ] ->
    (* naive quadratic distinct, first-occurrence order *)
    let seen = ref [] in
    List.iter
      (fun a ->
        if not (List.exists (Atomic.deep_eq a) !seen) then seen := !seen @ [ a ])
      (Xseq.atomize s);
    List.map (fun a -> Item.Atomic a) !seen
  | local, args ->
    unsupported (Printf.sprintf "function fn:%s#%d" local (List.length args))

(* --- axes, node tests, paths ------------------------------------------- *)

let axis_nodes (axis : Ast.axis) node =
  match axis with
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

let test_matches (axis : Ast.axis) (test : Ast.node_test) node =
  let principal_ok =
    match axis with
    | Attribute_axis -> Node.is_attribute node
    | _ -> Node.is_element node
  in
  let named expected =
    match Node.name node with
    | Some actual -> Xname.equal expected actual
    | None -> false
  in
  match test with
  | Name_test nm -> principal_ok && named nm
  | Wildcard -> principal_ok
  | Prefix_wildcard p ->
    principal_ok
    && (match Node.name node with
        | Some nm -> nm.Xname.prefix = Some p
        | None -> false)
  | Kind_node -> true
  | Kind_text -> Node.is_text node
  | Kind_comment -> Node.kind node = Node.Comment
  | Kind_element None -> Node.is_element node
  | Kind_element (Some nm) -> Node.is_element node && named nm
  | Kind_attribute None -> Node.is_attribute node
  | Kind_attribute (Some nm) -> Node.is_attribute node && named nm
  | Kind_document -> Node.kind node = Node.Document

(* --- the interpreter ---------------------------------------------------- *)

type tuple = Xseq.t Smap.t

let ctx_with_tuple ctx (tuple : tuple) =
  { ctx with vars = Smap.union (fun _ t _ -> Some t) tuple ctx.vars }

let rec eval ctx (e : Ast.expr) : Xseq.t =
  match e with
  | Literal a -> [ Item.Atomic a ]
  | Var v -> lookup ctx v
  | Context_item -> [ (focus_exn ctx).item ]
  | Sequence es -> List.concat_map (eval ctx) es
  | Range (a, b) -> begin
    match zero_or_one_atom (eval ctx a), zero_or_one_atom (eval ctx b) with
    | None, _ | _, None -> Xseq.empty
    | Some x, Some y ->
      let lo = Atomic.cast_to_integer x and hi = Atomic.cast_to_integer y in
      if lo > hi then Xseq.empty
      else List.init (hi - lo + 1) (fun i -> Item.of_int (lo + i))
  end
  | Arith (op, a, b) -> arith op (eval ctx a) (eval ctx b)
  | Neg a -> begin
    match zero_or_one_atom (eval ctx a) with
    | None -> Xseq.empty
    | Some (Atomic.Int i) -> [ Item.of_int (-i) ]
    | Some (Atomic.Dec f) -> [ Item.Atomic (Atomic.Dec (-.f)) ]
    | Some (Atomic.Dbl f) -> [ Item.Atomic (Atomic.Dbl (-.f)) ]
    | Some (Atomic.Untyped s) ->
      [ Item.of_double (-.Atomic.cast_to_double (Atomic.Untyped s)) ]
    | Some a -> Xerror.failf XPTY0004 "unary minus on %s" (Atomic.type_name a)
  end
  | General_cmp (op, a, b) -> Xseq.of_bool (general op (eval ctx a) (eval ctx b))
  | Value_cmp (op, a, b) -> value_cmp op (eval ctx a) (eval ctx b)
  | And (a, b) ->
    Xseq.of_bool
      (Xseq.effective_boolean_value (eval ctx a)
       && Xseq.effective_boolean_value (eval ctx b))
  | Or (a, b) ->
    Xseq.of_bool
      (Xseq.effective_boolean_value (eval ctx a)
       || Xseq.effective_boolean_value (eval ctx b))
  | If (c, t, e) ->
    if Xseq.effective_boolean_value (eval ctx c) then eval ctx t else eval ctx e
  | Quantified (q, binds, body) ->
    let rec go ctx = function
      | [] -> Xseq.effective_boolean_value (eval ctx body)
      | (v, src) :: rest ->
        let items = eval ctx src in
        let test item =
          go { ctx with vars = Smap.add v [ item ] ctx.vars } rest
        in
        (match q with
         | Ast.Some_quant -> List.exists test items
         | Ast.Every_quant -> List.for_all test items)
    in
    Xseq.of_bool (go ctx binds)
  | Flwor f -> eval_flwor ctx f
  | Root -> begin
    match (focus_exn ctx).item with
    | Item.Node n -> [ Item.Node (Node.root n) ]
    | Item.Atomic _ ->
      Xerror.fail XPTY0004 "'/' requires the context item to be a node"
  end
  | Step (axis, test, preds) -> begin
    match (focus_exn ctx).item with
    | Item.Node n ->
      let nodes = List.filter (test_matches axis test) (axis_nodes axis n) in
      apply_predicates ctx (Xseq.of_nodes nodes) preds
    | Item.Atomic _ ->
      Xerror.fail XPTY0004 "a path step requires the context item to be a node"
  end
  | Slash (a, b) ->
    let left = eval ctx a in
    let nodes = Xseq.nodes left in
    let size = List.length nodes in
    let results =
      List.mapi
        (fun i n ->
          eval { ctx with focus = Some { item = Item.Node n; pos = i + 1; size } } b)
        nodes
    in
    let all = List.concat results in
    let has_node = List.exists Item.is_node all in
    let has_atomic = List.exists (fun it -> not (Item.is_node it)) all in
    if has_node && has_atomic then
      Xerror.fail XPTY0004 "path result mixes nodes and atomic values"
    else if has_node then
      Xseq.of_nodes (Node.sort_in_doc_order (Xseq.nodes all))
    else all
  | Filter (e, preds) -> apply_predicates ctx (eval ctx e) preds
  | Call (name, args) -> call name (List.map (eval ctx) args)
  | Direct_elem d -> [ Item.Node (construct_direct ctx d) ]
  | Union _ | Intersect _ | Except _ | Node_cmp _ | Instance_of _
  | Treat_as _ | Castable_as _ | Cast_as _ | Comp_elem _ | Comp_attr _
  | Comp_text _ ->
    unsupported "expression outside the oracle subset"

and apply_predicates ctx items preds =
  List.fold_left (apply_predicate ctx) items preds

and apply_predicate ctx items pred =
  let size = List.length items in
  List.filteri
    (fun i item ->
      let inner = { ctx with focus = Some { item; pos = i + 1; size } } in
      match eval inner pred with
      | [ Item.Atomic (Atomic.Int n) ] -> n = i + 1
      | [ Item.Atomic (Atomic.Dec f) ] | [ Item.Atomic (Atomic.Dbl f) ] ->
        f = float_of_int (i + 1)
      | other -> Xseq.effective_boolean_value other)
    items

(* --- constructors: copy content, space-join adjacent atomics ------------ *)

and construct_direct ctx (d : Ast.direct_elem) =
  let el = Node.element d.tag in
  List.iter
    (fun (a : Ast.direct_attr) ->
      let buf = Buffer.create 16 in
      List.iter
        (fun (piece : Ast.attr_piece) ->
          match piece with
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

(* Content assembly: within one enclosed expression adjacent atomic
   values join into one text node separated by single spaces; a node
   flushes the pending text and is deep-copied; expression boundaries
   also flush (so {1}{2} yields "12" but {(1,2)} yields "1 2"). *)
and fill_element ctx el content =
  let pending = Buffer.create 16 in
  let pending_sep = ref false in
  let flush () =
    if Buffer.length pending > 0 then begin
      Node.append_child el (Node.text (Buffer.contents pending));
      Buffer.clear pending
    end;
    pending_sep := false
  in
  List.iter
    (fun (item : Ast.content_item) ->
      match item with
      | Content_text s ->
        flush ();
        Node.append_child el (Node.text s)
      | Content_comment s ->
        flush ();
        Node.append_child el (Node.comment s)
      | Content_elem child ->
        flush ();
        Node.append_child el (construct_direct ctx child)
      | Content_expr e ->
        List.iter
          (fun (it : Item.t) ->
            match it with
            | Item.Atomic a ->
              if !pending_sep then Buffer.add_char pending ' ';
              Buffer.add_string pending (Atomic.to_string a);
              pending_sep := true
            | Item.Node n -> begin
              match Node.kind n with
              | Node.Attribute ->
                flush ();
                Node.set_attribute el
                  (Node.attribute (Option.get (Node.name n))
                     (Node.attribute_value n))
              | Node.Document ->
                flush ();
                List.iter
                  (fun c -> Node.append_child el (Node.copy c))
                  (Node.children n)
              | _ ->
                flush ();
                Node.append_child el (Node.copy n)
            end)
          (eval ctx e);
        flush ())
    content;
  flush ();
  Node.seal el

(* --- FLWOR --------------------------------------------------------------- *)

and eval_flwor ctx (f : Ast.flwor) =
  let tuples = List.fold_left (eval_clause ctx) [ Smap.empty ] f.clauses in
  let numbered =
    match f.return_at with
    | None -> tuples
    | Some v -> List.mapi (fun i t -> Smap.add v (Xseq.of_int (i + 1)) t) tuples
  in
  List.concat_map
    (fun t -> eval (ctx_with_tuple ctx t) f.return_expr)
    numbered

and eval_clause ctx tuples (clause : Ast.clause) =
  match clause with
  | For bindings ->
    List.fold_left
      (fun tuples (fb : Ast.for_binding) ->
        List.concat_map
          (fun tuple ->
            let items = eval (ctx_with_tuple ctx tuple) fb.for_src in
            List.mapi
              (fun i item ->
                let tuple = Smap.add fb.for_var [ item ] tuple in
                match fb.positional with
                | Some p -> Smap.add p (Xseq.of_int (i + 1)) tuple
                | None -> tuple)
              items)
          tuples)
      tuples bindings
  | Let bindings ->
    List.map
      (fun tuple ->
        List.fold_left
          (fun tuple (v, e) ->
            Smap.add v (eval (ctx_with_tuple ctx tuple) e) tuple)
          tuple bindings)
      tuples
  | Where e ->
    List.filter
      (fun tuple ->
        Xseq.effective_boolean_value (eval (ctx_with_tuple ctx tuple) e))
      tuples
  | Order_by { specs; _ } -> sort_tuples ctx tuples specs
  | Count v ->
    List.mapi (fun i tuple -> Smap.add v (Xseq.of_int (i + 1)) tuple) tuples
  | Group_by g -> eval_group_by ctx tuples g
  | Window _ -> unsupported "window clause"

and sort_tuples ctx tuples specs =
  let keyed =
    List.map
      (fun tuple ->
        let tctx = ctx_with_tuple ctx tuple in
        (List.map
           (fun (e, m) -> (zero_or_one_atom (eval tctx e), m))
           specs,
         tuple))
      tuples
  in
  let compare_keys (ka, _) (kb, _) =
    let rec go ka kb =
      match ka, kb with
      | [], [] -> 0
      | (a, m) :: ra, (b, _) :: rb ->
        let c = order_key_compare m a b in
        if c <> 0 then c else go ra rb
      | _ -> 0
    in
    go ka kb
  in
  List.map snd (List.stable_sort compare_keys keyed)

and eval_group_by ctx tuples (g : Ast.group_clause) =
  (* only the default deep-equal equality (Section 3.3); [using
     fn:deep-equal] is the same function spelled explicitly *)
  List.iter
    (fun (k : Ast.group_key) ->
      match k.using with
      | None -> ()
      | Some f when is_fn f && f.Xname.local = "deep-equal" -> ()
      | Some f ->
        unsupported
          (Printf.sprintf "grouping equality function %s" (Xname.to_string f)))
    g.keys;
  let keys_of tuple =
    let tctx = ctx_with_tuple ctx tuple in
    List.map (fun (k : Ast.group_key) -> eval tctx k.key_expr) g.keys
  in
  let groups = group_by_deep_equal ~keys_of tuples in
  List.map
    (fun grp ->
      (* post-grouping scope: only the grouping and nesting variables *)
      let out =
        List.fold_left2
          (fun out (k : Ast.group_key) key_value ->
            Smap.add k.key_var key_value out)
          Smap.empty g.keys grp.keys
      in
      List.fold_left
        (fun out (n : Ast.nest_spec) ->
          let members =
            if n.nest_order = [] then grp.members
            else sort_tuples ctx grp.members n.nest_order
          in
          let value =
            List.concat_map
              (fun tuple -> eval (ctx_with_tuple ctx tuple) n.nest_expr)
              members
          in
          Smap.add n.nest_var value out)
        out g.nests)
    groups

(* --- entry points -------------------------------------------------------- *)

let eval_query ~context_node (q : Ast.query) =
  if q.prolog.functions <> [] || q.prolog.global_vars <> [] then
    unsupported "prolog declarations";
  let ctx =
    {
      vars = Smap.empty;
      focus = Some { item = Item.Node context_node; pos = 1; size = 1 };
    }
  in
  eval ctx q.body

let run ~context_node src =
  eval_query ~context_node (Parser.parse_query src)
