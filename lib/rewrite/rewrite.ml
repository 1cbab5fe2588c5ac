open Xq_xdm
open Xq_lang
open Ast

(* A candidate grouping variable: bound to distinct-values(Slash(src, rel)). *)
type key_binding = { kb_var : string; kb_src : expr; kb_rel : expr }

let is_distinct_values name =
  Xname.is_default_fn name && name.Xname.local = "distinct-values"

let is_exists name = Xname.is_default_fn name && name.Xname.local = "exists"

(* Match "for $v in distinct-values(SRC/rel)". *)
let match_key_binding (fb : for_binding) =
  if fb.positional <> None then None
  else
    match fb.for_src with
    | Call (name, [ Slash (src, rel) ]) when is_distinct_values name ->
      Some { kb_var = fb.for_var; kb_src = src; kb_rel = rel }
    | _ -> None

(* Split a conjunction into its conjuncts. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Match one conjunct "REL = $v" or "$v = REL" (the filter-predicate form,
   REL relative to the implicit context item) returning (v, REL). *)
let match_pred_relative conjunct =
  match conjunct with
  | General_cmp (Gen_eq, rel, Var v) -> Some (v, rel)
  | General_cmp (Gen_eq, Var v, rel) -> Some (v, rel)
  | _ -> None

(* Match one conjunct "$i/REL = $v" or "$v = $i/REL" (the inner-FLWOR
   form) returning (v, REL), for the given item variable [i]. *)
let match_pred_var i conjunct =
  match conjunct with
  | General_cmp (Gen_eq, Slash (Var i', rel), Var v) when i' = i -> Some (v, rel)
  | General_cmp (Gen_eq, Var v, Slash (Var i', rel)) when i' = i -> Some (v, rel)
  | _ -> None

(* Check the matched (var, rel) pairs cover exactly the key bindings:
   every key var appears once, with a structurally equal rel. *)
let pairs_cover_keys keys pairs =
  List.length pairs = List.length keys
  && List.for_all
       (fun kb ->
         match List.assoc_opt kb.kb_var pairs with
         | Some rel -> rel = kb.kb_rel
         | None -> false)
       keys
  && List.length (List.sort_uniq compare (List.map fst pairs)) = List.length pairs

(* Match the "let $items := …" clause against both Table 1 shapes.
   Returns (items_var, item_var_hint). *)
let match_items_binding keys (v, e) =
  let src = (List.hd keys).kb_src in
  match e with
  (* SRC[rel1 = $v1 and …] — predicates live on the path's last step *)
  | Slash (prefix, Step (axis, test, [ pred ])) -> begin
    let stripped = Slash (prefix, Step (axis, test, [])) in
    if stripped <> src then None
    else
      match
        List.map match_pred_relative (conjuncts pred)
        |> List.fold_left
             (fun acc p ->
               match acc, p with
               | Some acc, Some p -> Some (p :: acc)
               | _ -> None)
             (Some [])
      with
      | Some pairs when pairs_cover_keys keys pairs -> Some (v, None)
      | Some _ | None -> None
  end
  (* for $i in SRC where $i/rel1 = $v1 and … return $i *)
  | Flwor
      {
        clauses = [ For [ { for_var = i; positional = None; for_src } ]; Where cond ];
        return_at = None;
        return_expr = Var ret;
      }
    when ret = i && for_src = src -> begin
    match
      List.map (match_pred_var i) (conjuncts cond)
      |> List.fold_left
           (fun acc p ->
             match acc, p with
             | Some acc, Some p -> Some (p :: acc)
             | _ -> None)
           (Some [])
    with
    | Some pairs when pairs_cover_keys keys pairs -> Some (v, Some i)
    | Some _ | None -> None
  end
  | _ -> None

(* Does [e] mention variable [v]? Conservative free-variable test used to
   pick a fresh item variable. *)
let rec mentions v e =
  let any = List.exists (mentions v) in
  match e with
  | Var x -> x = v
  | Literal _ | Context_item | Root -> false
  | Sequence es -> any es
  | Range (a, b) | Arith (_, a, b) | General_cmp (_, a, b)
  | Value_cmp (_, a, b) | Node_cmp (_, a, b) | And (a, b) | Or (a, b)
  | Union (a, b) | Intersect (a, b) | Except (a, b) | Slash (a, b)
  | Comp_elem (a, b) | Comp_attr (a, b) ->
    mentions v a || mentions v b
  | Neg a | Comp_text a
  | Instance_of (a, _) | Treat_as (a, _) | Castable_as (a, _)
  | Cast_as (a, _) ->
    mentions v a
  | If (a, b, c) -> mentions v a || mentions v b || mentions v c
  | Quantified (_, binds, body) ->
    List.exists (fun (_, e) -> mentions v e) binds || mentions v body
  | Step (_, _, preds) -> any preds
  | Filter (e, preds) -> mentions v e || any preds
  | Call (_, args) -> any args
  | Flwor f ->
    List.exists
      (fun c ->
        match c with
        | For bs -> List.exists (fun b -> mentions v b.for_src) bs
        | Let bs -> List.exists (fun (_, e) -> mentions v e) bs
        | Where e -> mentions v e
        | Count _ -> false
        | Window w ->
          mentions v w.w_src || mentions v w.w_start.wc_when
          || (match w.w_end with
              | Some { we_cond; _ } -> mentions v we_cond.wc_when
              | None -> false)
        | Order_by { specs; _ } -> List.exists (fun (e, _) -> mentions v e) specs
        | Group_by g ->
          List.exists (fun k -> mentions v k.key_expr) g.keys
          || List.exists
               (fun n ->
                 mentions v n.nest_expr
                 || List.exists (fun (e, _) -> mentions v e) n.nest_order)
               g.nests)
      f.clauses
    || mentions v f.return_expr
  | Direct_elem d -> mentions_direct v d

and mentions_direct v d =
  List.exists
    (fun a ->
      List.exists
        (function Attr_text _ -> false | Attr_expr e -> mentions v e)
        a.attr_value)
    d.attrs
  || List.exists
       (function
         | Content_text _ | Content_comment _ -> false
         | Content_expr e -> mentions v e
         | Content_elem child -> mentions_direct v child)
       d.content

let fresh_item_var hint keys items_var body =
  let taken v =
    List.exists (fun kb -> kb.kb_var = v) keys
    || v = items_var || mentions v body
  in
  match hint with
  | Some i when not (taken i) -> i
  | _ ->
    let rec pick n =
      let candidate = Printf.sprintf "xq_item_%d" n in
      if taken candidate then pick (n + 1) else candidate
    in
    if taken "item" then pick 0 else "item"

let detect (f : flwor) : flwor option =
  (* Peel leading for-clauses binding distinct values. *)
  let rec take_keys acc = function
    | For bindings :: rest -> begin
      let matched = List.map match_key_binding bindings in
      if List.for_all Option.is_some matched then
        take_keys (acc @ List.map Option.get matched) rest
      else (acc, For bindings :: rest)
    end
    | rest -> (acc, rest)
  in
  let keys, rest = take_keys [] f.clauses in
  if keys = [] then None
  else if
    (* all keys must share the same source *)
    not (List.for_all (fun kb -> kb.kb_src = (List.hd keys).kb_src) keys)
  then None
  else
    match rest with
    | Let [ binding ] :: rest -> begin
      match match_items_binding keys binding with
      | None -> None
      | Some (items_var, hint) ->
        (* optional "where exists($items)" *)
        let rest =
          match rest with
          | Where (Call (name, [ Var v ])) :: r
            when is_exists name && v = items_var ->
            r
          | r -> r
        in
        (* only a trailing order-by may remain *)
        let trailing =
          match rest with
          | [] -> Some []
          | [ (Order_by _ as ob) ] -> Some [ ob ]
          | _ -> None
        in
        (match trailing with
         | None -> None
         | Some trailing ->
           let item = fresh_item_var hint keys items_var f.return_expr in
           let src = (List.hd keys).kb_src in
           let group =
             Group_by
               {
                 keys =
                   List.map
                     (fun kb ->
                       {
                         (* atomize so the grouping variable is bound to
                            the same atomic value distinct-values would
                            have produced in the original *)
                         key_expr =
                           Call
                             (Xname.make ~prefix:"fn" "data",
                              [ Slash (Var item, kb.kb_rel) ]);
                         key_var = kb.kb_var;
                         using = None;
                       })
                     keys;
                 nests =
                   [ { nest_expr = Var item; nest_order = []; nest_var = items_var } ];
               }
           in
           (* preserve the idiom's behaviour of skipping items whose
              grouping child is absent *)
           let guard =
             List.fold_left
               (fun acc kb ->
                 let ex =
                   Call (Xname.make "exists", [ Var kb.kb_var ])
                 in
                 match acc with
                 | None -> Some ex
                 | Some a -> Some (And (a, ex)))
               None keys
           in
           let post_where =
             match guard with
             | Some g -> [ Where g ]
             | None -> []
           in
           Some
             {
               clauses =
                 [ For [ { for_var = item; positional = None; for_src = src } ];
                   group ]
                 @ post_where @ trailing;
               return_at = f.return_at;
               return_expr = f.return_expr;
             })
    end
    | _ -> None

let rec rewrite_expr e =
  let r = rewrite_expr in
  match e with
  | Literal _ | Var _ | Context_item | Root -> e
  | Sequence es -> Sequence (List.map r es)
  | Range (a, b) -> Range (r a, r b)
  | Arith (op, a, b) -> Arith (op, r a, r b)
  | Neg a -> Neg (r a)
  | General_cmp (op, a, b) -> General_cmp (op, r a, r b)
  | Value_cmp (op, a, b) -> Value_cmp (op, r a, r b)
  | Node_cmp (op, a, b) -> Node_cmp (op, r a, r b)
  | And (a, b) -> And (r a, r b)
  | Or (a, b) -> Or (r a, r b)
  | Union (a, b) -> Union (r a, r b)
  | Intersect (a, b) -> Intersect (r a, r b)
  | Except (a, b) -> Except (r a, r b)
  | Instance_of (a, t) -> Instance_of (r a, t)
  | Treat_as (a, t) -> Treat_as (r a, t)
  | Castable_as (a, t) -> Castable_as (r a, t)
  | Cast_as (a, t) -> Cast_as (r a, t)
  | If (a, b, c) -> If (r a, r b, r c)
  | Quantified (q, binds, body) ->
    Quantified (q, List.map (fun (v, e) -> (v, r e)) binds, r body)
  | Step (axis, test, preds) -> Step (axis, test, List.map r preds)
  | Slash (a, b) -> Slash (r a, r b)
  | Filter (e, preds) -> Filter (r e, List.map r preds)
  | Call (name, args) -> Call (name, List.map r args)
  | Comp_elem (a, b) -> Comp_elem (r a, r b)
  | Comp_attr (a, b) -> Comp_attr (r a, r b)
  | Comp_text a -> Comp_text (r a)
  | Direct_elem d -> Direct_elem (rewrite_direct d)
  | Flwor f ->
    let f = rewrite_flwor f in
    (match detect f with
     | Some f' -> Flwor f'
     | None -> Flwor f)

and rewrite_flwor f =
  {
    f with
    clauses =
      List.map
        (fun c ->
          match c with
          | For bs ->
            For (List.map (fun b -> { b with for_src = rewrite_expr b.for_src }) bs)
          | Let bs -> Let (List.map (fun (v, e) -> (v, rewrite_expr e)) bs)
          | Where e -> Where (rewrite_expr e)
          | Count _ as c -> c
          | Window w ->
            Window
              {
                w with
                w_src = rewrite_expr w.w_src;
                w_start = { w.w_start with wc_when = rewrite_expr w.w_start.wc_when };
                w_end =
                  Option.map
                    (fun we ->
                      { we with
                        we_cond =
                          { we.we_cond with wc_when = rewrite_expr we.we_cond.wc_when } })
                    w.w_end;
              }
          | Order_by { stable; specs } ->
            Order_by
              { stable; specs = List.map (fun (e, m) -> (rewrite_expr e, m)) specs }
          | Group_by g ->
            Group_by
              {
                keys =
                  List.map (fun k -> { k with key_expr = rewrite_expr k.key_expr }) g.keys;
                nests =
                  List.map
                    (fun n ->
                      {
                        n with
                        nest_expr = rewrite_expr n.nest_expr;
                        nest_order =
                          List.map (fun (e, m) -> (rewrite_expr e, m)) n.nest_order;
                      })
                    g.nests;
              })
        f.clauses;
    return_expr = rewrite_expr f.return_expr;
  }

and rewrite_direct d =
  {
    d with
    attrs =
      List.map
        (fun a ->
          {
            a with
            attr_value =
              List.map
                (function
                  | Attr_text _ as t -> t
                  | Attr_expr e -> Attr_expr (rewrite_expr e))
                a.attr_value;
          })
        d.attrs;
    content =
      List.map
        (function
          | (Content_text _ | Content_comment _) as c -> c
          | Content_expr e -> Content_expr (rewrite_expr e)
          | Content_elem child -> Content_elem (rewrite_direct child))
        d.content;
  }

let rewrite_query q =
  {
    prolog =
      {
        ordering = q.prolog.ordering;
        functions =
          List.map
            (fun (f : fun_def) -> { f with body = rewrite_expr f.body })
            q.prolog.functions;
        global_vars =
          List.map (fun (v, e) -> (v, rewrite_expr e)) q.prolog.global_vars;
      };
    body = rewrite_expr q.body;
  }

let count_rewrites e =
  let count = ref 0 in
  begin
    let rec walk e =
      match e with
      | Flwor f ->
        (match detect (rewrite_flwor f) with
         | Some _ -> incr count
         | None -> ());
        walk_flwor f
      | Literal _ | Var _ | Context_item | Root -> ()
      | Sequence es -> List.iter walk es
      | Range (a, b) | Arith (_, a, b) | General_cmp (_, a, b)
      | Value_cmp (_, a, b) | Node_cmp (_, a, b) | And (a, b) | Or (a, b)
      | Union (a, b) | Intersect (a, b) | Except (a, b) | Slash (a, b)
      | Comp_elem (a, b) | Comp_attr (a, b) ->
        walk a; walk b
      | Neg a | Comp_text a
      | Instance_of (a, _) | Treat_as (a, _) | Castable_as (a, _)
      | Cast_as (a, _) ->
        walk a
      | If (a, b, c) -> walk a; walk b; walk c
      | Quantified (_, binds, body) ->
        List.iter (fun (_, e) -> walk e) binds;
        walk body
      | Step (_, _, preds) -> List.iter walk preds
      | Filter (e, preds) -> walk e; List.iter walk preds
      | Call (_, args) -> List.iter walk args
      | Direct_elem d -> walk_direct d
    and walk_flwor f =
      List.iter
        (fun c ->
          match c with
          | For bs -> List.iter (fun b -> walk b.for_src) bs
          | Let bs -> List.iter (fun (_, e) -> walk e) bs
          | Where e -> walk e
          | Count _ -> ()
          | Window w ->
            walk w.w_src;
            walk w.w_start.wc_when;
            (match w.w_end with
             | Some { we_cond; _ } -> walk we_cond.wc_when
             | None -> ())
          | Order_by { specs; _ } -> List.iter (fun (e, _) -> walk e) specs
          | Group_by g ->
            List.iter (fun k -> walk k.key_expr) g.keys;
            List.iter
              (fun n ->
                walk n.nest_expr;
                List.iter (fun (e, _) -> walk e) n.nest_order)
              g.nests)
        f.clauses;
      walk f.return_expr
    and walk_direct d =
      List.iter
        (fun a ->
          List.iter
            (function Attr_text _ -> () | Attr_expr e -> walk e)
            a.attr_value)
        d.attrs;
      List.iter
        (function
          | Content_text _ | Content_comment _ -> ()
          | Content_expr e -> walk e
          | Content_elem child -> walk_direct child)
        d.content
    in
    walk e;
    !count
  end
