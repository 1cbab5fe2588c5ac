open Xq_lang
module Sset = Ast_utils.Sset

let free = Ast_utils.free_vars

let spec_free specs =
  List.fold_left
    (fun acc (e, _) -> Sset.union acc (free e))
    Sset.empty specs

let group_free (shape : Plan.group_shape) =
  List.fold_left
    (fun acc (k : Ast.group_key) -> Sset.union acc (free k.Ast.key_expr))
    (List.fold_left
       (fun acc (n : Ast.nest_spec) ->
         Sset.union acc
           (Sset.union (free n.Ast.nest_expr) (spec_free n.Ast.nest_order)))
       Sset.empty shape.Plan.nests)
    shape.Plan.keys

let is_true_pred = function
  | Ast.Literal (Xq_xdm.Atomic.Bool true) -> true
  | Ast.Call (name, []) ->
    Xq_xdm.Xname.is_default_fn name && name.Xq_xdm.Xname.local = "true"
  | _ -> false

(* One top-down pass. [live] is the set of variables some operator above
   (or the return clause) still reads; [rewrites] counts rule
   applications, so the fixpoint knows when a pass changed nothing. *)
let rec pass rewrites live (op : Plan.op) : Plan.op =
  let pass = pass rewrites in
  match op with
  | Plan.Unit -> Plan.Unit
  | Plan.Select { pred; input } when is_true_pred pred ->
    incr rewrites;
    pass live input
  | Plan.Select { pred; input = Plan.Select { pred = inner; input } } ->
    incr rewrites;
    pass live (Plan.Select { pred = Ast.And (inner, pred); input })
  | Plan.Select { pred; input = Plan.Sort s } ->
    (* stable sort commutes with filtering *)
    incr rewrites;
    pass live (Plan.Sort { s with input = Plan.Select { pred; input = s.input } })
  | Plan.Select { pred; input = Plan.Let_bind l }
    when not (Sset.mem l.var (free pred)) ->
    incr rewrites;
    pass live
      (Plan.Let_bind { l with input = Plan.Select { pred; input = l.input } })
  | Plan.Select { pred; input } ->
    Plan.Select { pred; input = pass (Sset.union live (free pred)) input }
  | Plan.Let_bind { var; expr; input }
    when (not (Sset.mem var live)) && Ast_utils.pure expr ->
    incr rewrites;
    pass live input
  | Plan.Let_bind { var; expr; input } ->
    let live_below = Sset.union (Sset.remove var live) (free expr) in
    Plan.Let_bind { var; expr; input = pass live_below input }
  | Plan.For_expand { var; positional; source; input } ->
    let live_below =
      let live = Sset.remove var live in
      let live =
        match positional with Some p -> Sset.remove p live | None -> live
      in
      Sset.union live (free source)
    in
    Plan.For_expand { var; positional; source; input = pass live_below input }
  | Plan.Number { var; input } ->
    Plan.Number { var; input = pass (Sset.remove var live) input }
  | Plan.Window_expand { window; input } ->
    let cond_vars (wc : Ast.window_vars_cond) =
      List.filter_map Fun.id
        [ wc.Ast.wc_item; wc.Ast.wc_pos; wc.Ast.wc_prev; wc.Ast.wc_next ]
    in
    let bound =
      window.Ast.w_var
      :: (cond_vars window.Ast.w_start
          @ match window.Ast.w_end with
            | Some { Ast.we_cond; _ } -> cond_vars we_cond
            | None -> [])
    in
    let live_below =
      Sset.union
        (List.fold_left (Fun.flip Sset.remove) live bound)
        (Sset.union (free window.Ast.w_src)
           (Sset.union
              (free window.Ast.w_start.Ast.wc_when)
              (match window.Ast.w_end with
               | Some { Ast.we_cond; _ } -> free we_cond.Ast.wc_when
               | None -> Sset.empty)))
    in
    Plan.Window_expand { window; input = pass live_below input }
  | Plan.Sort { stable; specs; input } ->
    Plan.Sort { stable; specs; input = pass (Sset.union live (spec_free specs)) input }
  | Plan.Hash_group shape ->
    Plan.Hash_group { shape with input = pass (group_free shape) shape.input }
  | Plan.Scan_group shape ->
    Plan.Scan_group { shape with input = pass (group_free shape) shape.input }
  | Plan.Sort_group { shape; sorted_output } ->
    Plan.Sort_group
      {
        shape = { shape with input = pass (group_free shape) shape.input };
        sorted_output;
      }

let optimize (plan : Plan.plan) =
  let rewrites = ref 0 in
  let root_live =
    let live = free plan.Plan.return_expr in
    match plan.Plan.return_at with
    | Some v -> Sset.remove v live
    | None -> live
  in
  let rec fix op =
    let before = !rewrites in
    let op' = pass rewrites root_live op in
    if !rewrites = before then op' else fix op'
  in
  { plan with Plan.pipeline = fix plan.Plan.pipeline }

(* --- grouping-strategy selection ----------------------------------------- *)

module Config = Xq_governor.Config

type group_strategy = Config.strategy = Hash | Sort | Auto

let strategy_to_string = Config.strategy_to_string
let strategy_from_env () = (Config.resolve ()).Config.strategy

(* [auto] fuses a downstream sort into the grouping only when the sort
   is exactly on the group's key variables, ascending with default empty
   handling — the one case where the run order of the sort-grouping
   matches order-by semantics on singleton keys. *)
let default_modifier (m : Ast.order_modifier) =
  (not m.Ast.descending)
  && (match m.Ast.empty_greatest with None -> true | Some g -> not g)

let specs_cover_keys specs (keys : Ast.group_key list) =
  List.length specs = List.length keys
  && List.for_all2
       (fun (e, m) (k : Ast.group_key) ->
         default_modifier m
         && (match e with Ast.Var v -> v = k.Ast.key_var | _ -> false))
       specs keys

let rec map_strategy strategy (op : Plan.op) : Plan.op =
  match strategy, op with
  | Sort, Plan.Hash_group shape ->
    Plan.Sort_group
      {
        shape = { shape with Plan.input = map_strategy strategy shape.Plan.input };
        sorted_output = false;
      }
  | Auto, Plan.Sort { specs; input = Plan.Hash_group shape; _ }
    when specs_cover_keys specs shape.Plan.keys ->
    Plan.Sort_group
      {
        shape = { shape with Plan.input = map_strategy strategy shape.Plan.input };
        sorted_output = true;
      }
  | _, Plan.Unit -> Plan.Unit
  | _, Plan.For_expand r ->
    Plan.For_expand { r with input = map_strategy strategy r.input }
  | _, Plan.Let_bind r ->
    Plan.Let_bind { r with input = map_strategy strategy r.input }
  | _, Plan.Select r ->
    Plan.Select { r with input = map_strategy strategy r.input }
  | _, Plan.Number r ->
    Plan.Number { r with input = map_strategy strategy r.input }
  | _, Plan.Window_expand r ->
    Plan.Window_expand { r with input = map_strategy strategy r.input }
  | _, Plan.Sort r -> Plan.Sort { r with input = map_strategy strategy r.input }
  | _, Plan.Hash_group shape ->
    Plan.Hash_group
      { shape with Plan.input = map_strategy strategy shape.Plan.input }
  | _, Plan.Scan_group shape ->
    Plan.Scan_group
      { shape with Plan.input = map_strategy strategy shape.Plan.input }
  | _, Plan.Sort_group { shape; sorted_output } ->
    Plan.Sort_group
      {
        shape = { shape with Plan.input = map_strategy strategy shape.Plan.input };
        sorted_output;
      }

let apply_strategy strategy (plan : Plan.plan) =
  match strategy with
  | Hash -> plan
  | Sort | Auto ->
    { plan with Plan.pipeline = map_strategy strategy plan.Plan.pipeline }

(* --- group-cardinality estimates (table presizing) ----------------------- *)

(* EXPLAIN-fed feedback loop: every executed grouping operator reports
   how many groups it built, keyed on its [Plan.op_line] signature; the
   next execution of a structurally identical operator presizes its hash
   tables from that estimate instead of growing by rehash from the
   64-slot default. Purely a performance hint — a stale or missing
   estimate never changes results. Process-wide (the server's resident
   queries are the main beneficiary), bounded, and disabled alongside
   the other batched-execution fast paths for baseline measurements. *)

let estimates : (string, int) Hashtbl.t = Hashtbl.create 64
let estimates_lock = Mutex.create ()
let estimates_cap = 512
let estimate_feedback = Atomic.make true

let set_estimate_feedback b = Atomic.set estimate_feedback b

let note_groups ~signature n =
  if Atomic.get estimate_feedback && n > 0 then
    Mutex.protect estimates_lock (fun () ->
        if
          Hashtbl.length estimates >= estimates_cap
          && not (Hashtbl.mem estimates signature)
        then Hashtbl.reset estimates;
        Hashtbl.replace estimates signature n)

let estimated_groups ~signature =
  if not (Atomic.get estimate_feedback) then None
  else Mutex.protect estimates_lock (fun () -> Hashtbl.find_opt estimates signature)

(* --- eager-aggregation pushdown ------------------------------------------ *)

(* When every use of a nest variable above its grouping operator is an
   eligible one-argument aggregate call ([fn:count]/[sum]/[avg]/[min]/
   [max] on exactly [Var v]), the group need not materialize that
   variable's member list at all: the executor folds each member into a
   per-group running accumulator ({!Xq_engine.Acc}) and the call sites
   read the finished value. [push_aggregates] performs the plan surgery:
   it marks the group shape ([aggs]) and substitutes every eligible call
   site [agg($v)] with the internal unwrap call on the mangled variable
   the executor will bind ([$v!agg]).

   The analysis is deliberately conservative and scope-blind:
   - all-or-nothing per group — every nest variable must be aggregate-
     only or completely unread, or nothing is pushed;
   - a nest variable mentioned inside any construct that also introduces
     a binding of the same name is rejected (occurrence counts cannot be
     trusted under shadowing);
   - [nest ... order by] disables the rewrite (member order feeds the
     fold's error timing);
   - only the topmost grouping operator of the pipeline is considered
     (grammar allows one [group by] per FLWOR anyway);
   - two-argument variants ([sum($v, $zero)], [min($v, $collation)])
     never match the call-site pattern and so fall back to
     materialization. *)

let agg_kind_of_call (name : Xq_xdm.Xname.t) =
  if Xq_xdm.Xname.is_default_fn name then
    Xq_engine.Acc.kind_of_name name.Xq_xdm.Xname.local
  else None

(* Occurrences of [$v] and of eligible aggregate calls on [$v] in [e].
   Each eligible call contains exactly one [Var v], so the counts agree
   exactly when every occurrence of the variable is an aggregate
   argument. *)
let consumption v e =
  let vars = ref 0 and kinds = ref [] in
  Ast_utils.iter_exprs
    (fun sub ->
      match sub with
      | Ast.Var x when x = v -> incr vars
      | Ast.Call (name, [ Ast.Var x ]) when x = v -> begin
        match agg_kind_of_call name with
        | Some k -> kinds := k :: !kinds
        | None -> ()
      end
      | _ -> ())
    e;
  (!vars, !kinds)

let kind_order = Xq_engine.Acc.[ Count; Sum; Avg; Min; Max ]

(* Binder names and consumer expressions of one operator sitting above
   the grouping operator. *)
let op_binds_exprs (op : Plan.op) =
  match op with
  | Plan.Unit | Plan.Hash_group _ | Plan.Scan_group _ | Plan.Sort_group _ ->
    ([], [])
  | Plan.For_expand { var; positional; source; _ } ->
    (var :: Option.to_list positional, [ source ])
  | Plan.Let_bind { var; expr; _ } -> ([ var ], [ expr ])
  | Plan.Select { pred; _ } -> ([], [ pred ])
  | Plan.Number { var; _ } -> ([ var ], [])
  | Plan.Sort { specs; _ } -> ([], List.map fst specs)
  | Plan.Window_expand { window = w; _ } ->
    let cond (wc : Ast.window_vars_cond) =
      List.filter_map Fun.id
        [ wc.Ast.wc_item; wc.Ast.wc_pos; wc.Ast.wc_prev; wc.Ast.wc_next ]
    in
    ( (w.Ast.w_var :: cond w.Ast.w_start)
      @ (match w.Ast.w_end with
         | Some { Ast.we_cond; _ } -> cond we_cond
         | None -> []),
      w.Ast.w_src :: w.Ast.w_start.Ast.wc_when
      :: (match w.Ast.w_end with
          | Some { Ast.we_cond; _ } -> [ we_cond.Ast.wc_when ]
          | None -> []) )

let push_aggregates (plan : Plan.plan) =
  (* locate the topmost grouping operator; collect the binders and
     consumer expressions of everything above it *)
  let rec locate above_binds above_exprs op =
    match op with
    | Plan.Hash_group shape | Plan.Scan_group shape
    | Plan.Sort_group { shape; _ } ->
      Some (above_binds, above_exprs, shape)
    | Plan.Unit -> None
    | Plan.For_expand { input; _ }
    | Plan.Let_bind { input; _ }
    | Plan.Select { input; _ }
    | Plan.Number { input; _ }
    | Plan.Window_expand { input; _ }
    | Plan.Sort { input; _ } ->
      let binds, exprs = op_binds_exprs op in
      locate (binds @ above_binds) (exprs @ above_exprs) input
  in
  match locate [] [] plan.Plan.pipeline with
  | None -> plan
  | Some (above_binds, above_exprs, shape) ->
    let nest_vars =
      List.map (fun (n : Ast.nest_spec) -> n.Ast.nest_var) shape.Plan.nests
    in
    let consumers =
      (* [return at $r] shadows [$r] in the return clause; rejected
         below when [$r] is a nest variable, so including the return
         expression unconditionally is sound *)
      plan.Plan.return_expr :: above_exprs
    in
    let shadowed v =
      List.mem v above_binds
      || plan.Plan.return_at = Some v
      || List.exists (Ast_utils.rebinds v) consumers
    in
    let classify v =
      if shadowed v then None
      else
        let vars, kinds =
          List.fold_left
            (fun (vs, ks) e ->
              let v', k' = consumption v e in
              (vs + v', k' @ ks))
            (0, []) consumers
        in
        if vars = 0 then Some []
        else if vars = List.length kinds then
          Some (List.filter (fun k -> List.mem k kinds) kind_order)
        else None
    in
    let slots = List.map (fun v -> (v, classify v)) nest_vars in
    let ok =
      shape.Plan.aggs = []
      && List.for_all
           (fun (n : Ast.nest_spec) -> n.Ast.nest_order = [])
           shape.Plan.nests
      && List.for_all (fun (_, c) -> c <> None) slots
      && List.exists (fun (_, c) -> c <> None && c <> Some []) slots
    in
    if not ok then plan
    else begin
      let aggs = List.map (fun (v, c) -> (v, Option.get c)) slots in
      let unwrap_name = Xq_xdm.Xname.make Xq_engine.Acc.unwrap_local in
      let eligible = List.filter (fun (_, ks) -> ks <> []) aggs in
      let subst e =
        Ast_utils.map_exprs
          (fun sub ->
            match sub with
            | Ast.Call (name, [ Ast.Var x ]) when List.mem_assoc x eligible
              -> begin
                match agg_kind_of_call name with
                | Some k ->
                  Some
                    (Ast.Call
                       (unwrap_name, [ Ast.Var (Xq_engine.Acc.mangle x k) ]))
                | None -> None
              end
            | _ -> None)
          e
      in
      let rec rebuild op =
        match op with
        | Plan.Hash_group shape -> Plan.Hash_group { shape with aggs }
        | Plan.Scan_group shape -> Plan.Scan_group { shape with aggs }
        | Plan.Sort_group { shape; sorted_output } ->
          Plan.Sort_group { shape = { shape with aggs }; sorted_output }
        | Plan.Unit -> op
        | Plan.For_expand r ->
          Plan.For_expand
            { r with source = subst r.source; input = rebuild r.input }
        | Plan.Let_bind r ->
          Plan.Let_bind { r with expr = subst r.expr; input = rebuild r.input }
        | Plan.Select r ->
          Plan.Select { pred = subst r.pred; input = rebuild r.input }
        | Plan.Number r -> Plan.Number { r with input = rebuild r.input }
        | Plan.Window_expand r ->
          Plan.Window_expand { r with input = rebuild r.input }
        | Plan.Sort r ->
          Plan.Sort
            {
              r with
              specs = List.map (fun (e, m) -> (subst e, m)) r.specs;
              input = rebuild r.input;
            }
      in
      {
        plan with
        Plan.pipeline = rebuild plan.Plan.pipeline;
        return_expr = subst plan.Plan.return_expr;
      }
    end

(* Number of aggregate kinds folded into the plan's grouping operator —
   the [agg-pushdown=N] figure EXPLAIN and the stats report. *)
let agg_pushdown_count (plan : Plan.plan) =
  let rec go op =
    match op with
    | Plan.Hash_group shape | Plan.Scan_group shape
    | Plan.Sort_group { shape; _ } ->
      List.fold_left (fun n (_, ks) -> n + List.length ks) 0 shape.Plan.aggs
    | _ -> (
      match Plan.input_of op with None -> 0 | Some input -> go input)
  in
  go plan.Plan.pipeline
