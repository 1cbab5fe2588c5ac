open Xq_xdm
open Xq_lang
module Prng = Xq_workload.Prng

type case = {
  seed : int;
  query : Ast.query;
  doc : string;
}

let query_text q = Pretty.query q

let round_trips q =
  let reparsed = Parser.parse_query (query_text q) in
  if reparsed = q then Ok () else Error reparsed

(* --- documents ---------------------------------------------------------- *)

(* Small trees with deliberately tiny value domains so group keys
   collide: <data> of 2-10 <item>s, each with optional k/t attributes,
   0-3 repeated <v> children (the sequence-valued keys), an optional
   <w>, 0-2 <s>, and sometimes a nested <sub>. *)

let k_pool = [| "a"; "b"; "c"; "d" |]
let t_pool = [| "x"; "y"; "z" |]
let s_pool = [| "red"; "green"; "blue" |]

let gen_doc rng =
  let buf = Buffer.create 256 in
  let n = 2 + Prng.int rng 9 in
  Buffer.add_string buf "<data>\n";
  for _ = 1 to n do
    Buffer.add_string buf "  <item";
    if not (Prng.one_in rng 6) then
      Buffer.add_string buf (Printf.sprintf " k=\"%s\"" (Prng.pick rng k_pool));
    if Prng.one_in rng 2 then
      Buffer.add_string buf (Printf.sprintf " t=\"%s\"" (Prng.pick rng t_pool));
    Buffer.add_string buf ">";
    for _ = 1 to Prng.int rng 4 do
      Buffer.add_string buf (Printf.sprintf "<v>%d</v>" (Prng.int rng 10))
    done;
    if Prng.one_in rng 2 then
      Buffer.add_string buf (Printf.sprintf "<w>%d</w>" (Prng.int rng 20));
    if Prng.one_in rng 2 then
      Buffer.add_string buf (Printf.sprintf "<s>%s</s>" (Prng.pick rng s_pool));
    if Prng.one_in rng 3 then begin
      Buffer.add_string buf "<sub>";
      for _ = 1 to 1 + Prng.int rng 2 do
        Buffer.add_string buf (Printf.sprintf "<v>%d</v>" (Prng.int rng 10))
      done;
      Buffer.add_string buf "</sub>"
    end;
    Buffer.add_string buf "</item>\n"
  done;
  Buffer.add_string buf "</data>\n";
  Buffer.contents buf

(* --- scoped expression generation --------------------------------------- *)

(* Variable kinds drive which expressions a variable may appear in:
   - Kitem: a singleton element node (a [for] binding) — path base;
   - Kint:  a singleton integer (positional, count, rank);
   - Katom: atomizes to zero-or-one value — safe as an order-by key;
   - Knum:  a sequence of numeric-ish values — safe under sum/avg;
   - Kany:  an arbitrary sequence. *)
type vkind = Kitem | Kint | Katom | Knum | Kany

type env = (string * vkind) list

let vars_of k (env : env) = List.filter (fun (_, k') -> k' = k) env

let nm local = Xname.make local
let fn local = Xname.make ~prefix:"fn" local

let str_lit_pool =
  [| "a"; "b"; "c"; "x y"; "it's"; "p&q"; "lt<gt"; "q\"q"; "" |]

let int_lit rng = Ast.Literal (Atomic.Int (Prng.int rng 10))
let str_lit rng = Ast.Literal (Atomic.Str (Prng.pick rng str_lit_pool))

let child_step ?(preds = []) name = Ast.Step (Child, Name_test (nm name), preds)
let attr_step name = Ast.Step (Attribute_axis, Name_test (nm name), [])

let abs_path steps =
  List.fold_left (fun acc s -> Ast.Slash (acc, s)) Ast.Root steps

(* a predicate over <v>/<w> element context: positional or a
   context-item comparison *)
let gen_pred rng =
  if Prng.one_in rng 2 then Ast.Literal (Atomic.Int (1 + Prng.int rng 3))
  else
    Ast.General_cmp
      ( Prng.pick rng [| Ast.Gen_gt; Ast.Gen_lt; Ast.Gen_ge; Ast.Gen_ne |],
        Ast.Context_item,
        int_lit rng )

(* a path rooted at an item variable (or absolute when none is in
   scope), ending at numeric <v>/<w> elements *)
let gen_num_path rng env =
  let tail =
    match Prng.int rng 6 with
    | 0 -> [ child_step "w" ]
    | 1 -> [ child_step "sub"; child_step "v" ]
    | 2 ->
      [ Ast.Step (Descendant_or_self, Kind_node, []); child_step "v" ]
    | 3 -> [ child_step ~preds:[ gen_pred rng ] "v" ]
    | _ -> [ child_step "v" ]
  in
  match vars_of Kitem env with
  | [] -> abs_path (child_step "data" :: child_step "item" :: tail)
  | items ->
    let v, _ = Prng.pick rng (Array.of_list items) in
    List.fold_left (fun acc s -> Ast.Slash (acc, s)) (Ast.Var v) tail

(* a path ending at string-ish values: @k/@t attributes or <s> *)
let gen_str_path rng env =
  let tail =
    match Prng.int rng 4 with
    | 0 -> [ attr_step "t" ]
    | 1 -> [ child_step "s" ]
    | _ -> [ attr_step "k" ]
  in
  match vars_of Kitem env with
  | [] ->
    (* no item variable in scope (e.g. a post-group order-by key):
       pick one item positionally so the path stays zero-or-one *)
    abs_path
      (child_step "data"
       :: child_step ~preds:[ Ast.Literal (Atomic.Int 1) ] "item"
       :: tail)
  | items ->
    let v, _ = Prng.pick rng (Array.of_list items) in
    List.fold_left (fun acc s -> Ast.Slash (acc, s)) (Ast.Var v) tail

(* numeric-ish sequence: fodder for sum/avg/min/max *)
let rec gen_numseq rng env depth =
  match Prng.int rng 6 with
  | 0 when depth > 0 ->
    Ast.Range (int_lit rng, Ast.Literal (Atomic.Int (Prng.int rng 5)))
  | 1 -> Ast.Sequence [ int_lit rng; int_lit rng ]
  | 2 ->
    let nums = vars_of Knum env and ints = vars_of Kint env in
    (match nums @ ints with
     | [] -> gen_num_path rng env
     | vs -> Ast.Var (fst (Prng.pick rng (Array.of_list vs))))
  | _ -> gen_num_path rng env

(* guaranteed to atomize to one numeric value *)
and gen_num_atom rng env depth =
  match Prng.int rng 8 with
  | 0 | 1 -> int_lit rng
  | 2 -> Ast.Call (fn "count", [ gen_seq rng env (depth - 1) ])
  | 3 -> Ast.Call (fn "sum", [ gen_numseq rng env (depth - 1) ])
  | 4 when depth > 0 ->
    Ast.Arith
      ( Prng.pick rng [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Mod; Ast.Idiv |],
        gen_num_atom rng env (depth - 1),
        gen_num_atom rng env (depth - 1) )
  | 5 ->
    (match vars_of Kint env with
     | [] -> Ast.Call (fn "count", [ gen_seq rng env (depth - 1) ])
     | vs -> Ast.Var (fst (Prng.pick rng (Array.of_list vs))))
  | 6 -> Ast.Call (fn "string-length", [ gen_str_atom rng env (depth - 1) ])
  | _ -> Ast.Call (fn "number", [ gen_str_path rng env ])

(* guaranteed to atomize to at most one string *)
and gen_str_atom rng env depth =
  match Prng.int rng 5 with
  | 0 | 1 -> str_lit rng
  | 2 -> Ast.Call (fn "string", [ gen_str_path rng env ])
  | 3 when depth > 0 ->
    Ast.Call (fn "string-join", [ gen_seq rng env (depth - 1); str_lit rng ])
  | _ -> Ast.Call (fn "string", [ gen_num_atom rng env (depth - 1) ])

(* zero-or-one atomizable — safe as an order-by key *)
and gen_atom rng env depth =
  match Prng.int rng 7 with
  | 0 | 1 -> gen_num_atom rng env depth
  | 2 -> gen_str_atom rng env depth
  | 3 ->
    (match vars_of Katom env with
     | [] -> gen_num_atom rng env depth
     | vs -> Ast.Var (fst (Prng.pick rng (Array.of_list vs))))
  | 4 -> Ast.Call (fn "avg", [ gen_numseq rng env (depth - 1) ])
  | 5 ->
    Ast.Call
      (fn (if Prng.one_in rng 2 then "min" else "max"),
       [ gen_numseq rng env (depth - 1) ])
  | _ -> gen_num_atom rng env depth

(* an arbitrary sequence *)
and gen_seq rng env depth =
  match Prng.int rng 8 with
  | 0 -> gen_numseq rng env depth
  | 1 -> gen_str_path rng env
  | 2 when depth > 0 ->
    Ast.Sequence
      [ gen_atom rng env (depth - 1); gen_seq rng env (depth - 1) ]
  | 3 ->
    (match vars_of Kany env @ vars_of Knum env with
     | [] -> gen_num_path rng env
     | vs -> Ast.Var (fst (Prng.pick rng (Array.of_list vs))))
  | 4 ->
    (match vars_of Kitem env with
     | [] -> gen_numseq rng env depth
     | vs -> Ast.Var (fst (Prng.pick rng (Array.of_list vs))))
  | 5 -> gen_atom rng env depth
  | _ -> gen_numseq rng env depth

let rec gen_bool rng env depth =
  match Prng.int rng 8 with
  | 0 | 1 ->
    Ast.General_cmp
      ( Prng.pick rng
          [| Ast.Gen_eq; Ast.Gen_ne; Ast.Gen_lt; Ast.Gen_le; Ast.Gen_gt;
             Ast.Gen_ge |],
        gen_numseq rng env depth,
        gen_num_atom rng env depth )
  | 2 ->
    Ast.General_cmp
      ( Prng.pick rng [| Ast.Gen_eq; Ast.Gen_ne |],
        gen_str_path rng env,
        str_lit rng )
  | 3 ->
    let mk = if Prng.one_in rng 2 then gen_num_atom else gen_str_atom in
    Ast.Value_cmp
      ( Prng.pick rng
          [| Ast.Val_eq; Ast.Val_ne; Ast.Val_lt; Ast.Val_gt |],
        mk rng env depth,
        mk rng env depth )
  | 4 ->
    Ast.Call
      (fn (if Prng.one_in rng 2 then "exists" else "empty"),
       [ gen_seq rng env depth ])
  | 5 when depth > 0 ->
    let mk = if Prng.one_in rng 2 then fun a b -> Ast.And (a, b)
             else fun a b -> Ast.Or (a, b) in
    mk (gen_bool rng env (depth - 1)) (gen_bool rng env (depth - 1))
  | 6 when depth > 0 ->
    Ast.Call (fn "not", [ gen_bool rng env (depth - 1) ])
  | _ ->
    Ast.General_cmp
      (Ast.Gen_eq, gen_num_path rng env, int_lit rng)

(* group keys: small-domain, frequently sequence-valued. Returns the
   expression and whether it is singleton-safe (usable directly as an
   order-by key). *)
let gen_key rng env =
  match Prng.int rng 8 with
  | 0 | 1 -> (gen_str_path rng env, false)
  | 2 -> (gen_num_path rng env, false)
  | 3 -> (Ast.Call (fn "string", [ gen_str_path rng env ]), true)
  | 4 -> (Ast.Call (fn "count", [ gen_num_path rng env ]), true)
  | 5 ->
    ( Ast.Arith
        ( Ast.Mod,
          Ast.Call (fn "count", [ gen_num_path rng env ]),
          Ast.Literal (Atomic.Int (2 + Prng.int rng 2)) ),
      true )
  | 6 -> (Ast.Sequence [ gen_str_path rng env; gen_str_path rng env ], false)
  | _ -> (Ast.Call (fn "string-join", [ gen_num_path rng env; str_lit rng ]),
          true)

let gen_order_spec rng env depth =
  let modifier : Ast.order_modifier =
    {
      descending = Prng.one_in rng 2;
      empty_greatest =
        (match Prng.int rng 3 with
         | 0 -> Some true
         | 1 -> Some false
         | _ -> None);
    }
  in
  (gen_atom rng env depth, modifier)

(* --- whole queries ------------------------------------------------------ *)

let attr_pool = [| "a"; "b"; "c" |]

let gen_return rng env =
  let attrs =
    List.init (Prng.int rng 3) (fun i ->
        {
          Ast.attr_tag = nm (attr_pool.(i));
          attr_value =
            (if Prng.one_in rng 4 then
               [ Ast.Attr_text "#"; Ast.Attr_expr (gen_atom rng env 1) ]
             else [ Ast.Attr_expr (gen_atom rng env 1) ]);
        })
  in
  let content =
    List.init (1 + Prng.int rng 3) (fun _ ->
        match Prng.int rng 5 with
        | 0 -> Ast.Content_text (Prng.pick rng s_pool)
        | 1 ->
          Ast.Content_elem
            {
              tag = nm "c";
              attrs = [];
              content = [ Ast.Content_expr (gen_atom rng env 1) ];
            }
        | _ -> Ast.Content_expr (gen_seq rng env 2))
  in
  (* adjacent literal text merges into one text node when reparsed, so
     coalesce it up front to keep the round-trip property structural *)
  let rec coalesce = function
    | Ast.Content_text a :: Ast.Content_text b :: rest ->
      coalesce (Ast.Content_text (a ^ b) :: rest)
    | c :: rest -> c :: coalesce rest
    | [] -> []
  in
  let content = coalesce content in
  Ast.Direct_elem { tag = nm "row"; attrs; content }

(* The paper's §6 implicit-grouping anti-pattern (Q): distinct-values
   over a path, then a self-join recollecting each key's items, consumed
   by aggregates. Both Table 1 shapes are emitted so [Rewrite.detect]
   has to recognize each one; the fuzzer's rewrite differential replays
   these with the rewrite on and off. *)
let agg_names = [| "count"; "sum"; "avg"; "min"; "max" |]

let gen_q_idiom rng seed doc =
  let src = abs_path [ child_step "data"; child_step "item" ] in
  let rel =
    match Prng.int rng 4 with
    | 0 -> attr_step "k"
    | 1 -> attr_step "t"
    | 2 -> child_step "s"
    | _ -> child_step "v"
  in
  let kv = "d1" and items = "m1" in
  let key_src = Ast.Call (fn "distinct-values", [ Ast.Slash (src, rel) ]) in
  let items_expr =
    if Prng.one_in rng 2 then
      (* the filter-predicate shape: /data/item[REL = $d1] *)
      match src with
      | Ast.Slash (prefix, Ast.Step (axis, test, [])) ->
        Ast.Slash
          ( prefix,
            Ast.Step
              (axis, test, [ Ast.General_cmp (Ast.Gen_eq, rel, Ast.Var kv) ])
          )
      | _ -> assert false
    else
      (* the inner-FLWOR shape: for $i in SRC where $i/REL = $d1 return $i *)
      Ast.Flwor
        {
          clauses =
            [
              Ast.For
                [ { for_var = "i1"; positional = None; for_src = src } ];
              Ast.Where
                (Ast.General_cmp
                   ( Ast.Gen_eq,
                     Ast.Slash (Ast.Var "i1", rel),
                     Ast.Var kv ));
            ];
          return_at = None;
          return_expr = Ast.Var "i1";
        }
  in
  (* aggregate-only consumption of the recollected items: count over
     the nodes themselves, the numeric folds over their <v> children *)
  let aggs =
    Ast.Content_expr (Ast.Call (fn "count", [ Ast.Var items ]))
    :: List.init (Prng.int rng 3) (fun _ ->
           Ast.Content_expr
             (Ast.Call
                ( fn (Prng.pick rng agg_names),
                  [ Ast.Slash (Ast.Var items, child_step "v") ] )))
  in
  let return_expr =
    Ast.Direct_elem
      {
        tag = nm "row";
        attrs =
          [ { Ast.attr_tag = nm "a"; attr_value = [ Ast.Attr_expr (Ast.Var kv) ] } ];
        content = aggs;
      }
  in
  let query =
    Ast.query_of_expr
      (Ast.Flwor
         {
           clauses =
             [
               Ast.For
                 [ { for_var = kv; positional = None; for_src = key_src } ];
               Ast.Let [ (items, items_expr) ];
             ];
           return_at = None;
           return_expr;
         })
  in
  Static.check_query query;
  { seed; query; doc }

let generate seed =
  let rng = Prng.create seed in
  let doc = gen_doc rng in
  if Prng.one_in rng 8 then gen_q_idiom rng seed doc
  else begin
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let clauses = ref [] in
  let push c = clauses := c :: !clauses in
  let env = ref [] in
  (* for clauses *)
  let nfor = 1 + Prng.int rng 3 in
  for j = 1 to nfor do
    let item_vars = vars_of Kitem !env in
    let src, kind =
      if j = 1 || item_vars = [] || Prng.one_in rng 3 then
        (abs_path [ child_step "data"; child_step "item" ], Kitem)
      else
        match Prng.int rng 4 with
        | 0 -> (Ast.Range (Ast.Literal (Atomic.Int 1),
                           Ast.Literal (Atomic.Int (1 + Prng.int rng 4))),
                Kint)
        | 1 ->
          let v, _ = Prng.pick rng (Array.of_list item_vars) in
          (Ast.Slash (Ast.Var v, child_step "v"), Kitem)
        | _ -> (abs_path [ child_step "data"; child_step "item" ], Kitem)
    in
    let var = fresh "i" in
    let positional =
      if kind = Kitem && Prng.one_in rng 4 then Some (fresh "p") else None
    in
    push (Ast.For [ { for_var = var; positional; for_src = src } ]);
    env := (var, kind) :: !env;
    Option.iter (fun p -> env := (p, Kint) :: !env) positional
  done;
  (* pre-group lets *)
  for _ = 1 to Prng.int rng 3 do
    let var = fresh "l" in
    let e, kind =
      match Prng.int rng 3 with
      | 0 -> (gen_atom rng !env 2, Katom)
      | 1 -> (gen_numseq rng !env 2, Knum)
      | _ -> (gen_seq rng !env 2, Kany)
    in
    push (Ast.Let [ (var, e) ]);
    env := (var, kind) :: !env
  done;
  if Prng.one_in rng 6 then begin
    let var = fresh "c" in
    push (Ast.Count var);
    env := (var, Kint) :: !env
  end;
  if Prng.one_in rng 2 then push (Ast.Where (gen_bool rng !env 2));
  (* group by *)
  let grouped = not (Prng.one_in rng 4) in
  (* aggregate-only consumption: the nest variables never escape into
     the general expression pool — their only uses are the aggregate
     calls appended to the return element, which is exactly the shape
     the optimizer's eager-aggregation pushdown fires on *)
  let agg_nest_vars = ref [] in
  if grouped then begin
    let keys =
      List.init (1 + Prng.int rng 3) (fun _ ->
          let e, safe = gen_key rng !env in
          let using =
            if Prng.one_in rng 6 then Some (fn "deep-equal") else None
          in
          (({ key_expr = e; key_var = fresh "g"; using } : Ast.group_key),
           safe))
    in
    let agg_only = Prng.one_in rng 3 in
    let nests =
      List.init (Prng.int rng 3) (fun _ ->
          let e, kind =
            if Prng.one_in rng 2 then (gen_numseq rng !env 2, Knum)
            else (gen_seq rng !env 2, Kany)
          in
          (* pushdown eligibility needs unsorted nests *)
          let nest_order =
            if (not agg_only) && Prng.one_in rng 3 then
              [ gen_order_spec rng !env 1 ]
            else []
          in
          (({ nest_expr = e; nest_order; nest_var = fresh "n" } :
              Ast.nest_spec),
           kind))
    in
    push
      (Ast.Group_by
         { keys = List.map fst keys; nests = List.map fst nests });
    if agg_only then
      agg_nest_vars := List.map (fun ((n : Ast.nest_spec), _) -> n.nest_var) nests;
    env :=
      List.map
        (fun ((k : Ast.group_key), safe) ->
          (k.key_var, if safe then Katom else Kany))
        keys
      @ (if agg_only then []
         else
           List.map
             (fun ((n : Ast.nest_spec), kind) -> (n.nest_var, kind))
             nests);
    (* post-group lets and where *)
    for _ = 1 to Prng.int rng 3 do
      let var = fresh "l" in
      push (Ast.Let [ (var, gen_atom rng !env 2) ]);
      env := (var, Katom) :: !env
    done;
    if Prng.one_in rng 3 then push (Ast.Where (gen_bool rng !env 1))
  end;
  (* trailing order by *)
  let ordered =
    if grouped then not (Prng.one_in rng 3) else Prng.one_in rng 2
  in
  if ordered then
    push
      (Ast.Order_by
         {
           stable = Prng.one_in rng 4;
           specs = List.init (1 + Prng.int rng 2) (fun _ ->
               gen_order_spec rng !env 2);
         });
  (* [return at $rank] exposes tuple order, so only emit it when the
     order is pinned (a trailing order by) or no grouping reordered
     anything — otherwise the paper leaves group order undefined and the
     rank would bake an implementation choice into the output. *)
  let return_at =
    if (ordered || not grouped) && Prng.one_in rng 3 then begin
      let v = fresh "r" in
      env := (v, Kint) :: !env;
      Some v
    end
    else None
  in
  let return_expr = gen_return rng !env in
  (* aggregate-only nests surface here and nowhere else: one aggregate
     call per nest variable, appended to the returned element *)
  let return_expr =
    match return_expr, !agg_nest_vars with
    | _, [] -> return_expr
    | Ast.Direct_elem d, vars ->
      let aggs =
        List.map
          (fun v ->
            Ast.Content_expr
              (Ast.Call (fn (Prng.pick rng agg_names), [ Ast.Var v ])))
          vars
      in
      Ast.Direct_elem { d with content = d.content @ aggs }
    | other, _ -> other
  in
  let query =
    Ast.query_of_expr
      (Ast.Flwor { clauses = List.rev !clauses; return_at; return_expr })
  in
  Static.check_query query;
  { seed; query; doc }
  end

(* --- key lists for partition-agreement tests ---------------------------- *)

let key_item rng =
  match Prng.int rng 8 with
  | 0 -> Item.Atomic (Atomic.Int (Prng.int rng 3))
  | 1 -> Item.Atomic (Atomic.Str (Prng.pick rng [| "a"; "b"; "" |]))
  | 2 -> Item.Atomic (Atomic.Untyped (Prng.pick rng [| "1"; "2"; "a" |]))
  | 3 -> Item.Atomic (Atomic.Dec (float_of_int (Prng.int rng 3)))
  | 4 -> Item.Atomic (Atomic.Dbl (float_of_int (Prng.int rng 3)))
  | _ ->
    let el = Node.element (nm (Prng.pick rng [| "e"; "f" |])) in
    if Prng.one_in rng 3 then
      Node.set_attribute el
        (Node.attribute (nm "k") (Prng.pick rng [| "a"; "b" |]));
    if not (Prng.one_in rng 4) then
      Node.append_child el (Node.text (Prng.pick rng [| "1"; "2"; "x" |]));
    Node.seal el;
    Item.Node el

let key_lists seed =
  let rng = Prng.create seed in
  let n_tuples = 4 + Prng.int rng 13 in
  let n_keys = 1 + Prng.int rng 3 in
  List.init n_tuples (fun _ ->
      List.init n_keys (fun _ ->
          List.init (Prng.int rng 4) (fun _ -> key_item rng)))
