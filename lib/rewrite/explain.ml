open Xq_xdm
open Xq_lang
open Ast

let add buf depth line =
  Buffer.add_string buf (String.make (2 * depth) ' ');
  Buffer.add_string buf line;
  Buffer.add_char buf '\n'

let short e =
  let s = Pretty.expr e in
  let s = String.map (function '\n' -> ' ' | c -> c) s in
  if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

let rec explain_expr buf depth e =
  match e with
  | Flwor f -> explain_flwor buf depth f
  | Sequence es -> List.iter (explain_expr buf depth) es
  | If (_, t, els) ->
    if contains_flwor t || contains_flwor els then begin
      add buf depth "conditional:";
      explain_expr buf (depth + 1) t;
      explain_expr buf (depth + 1) els
    end
  | Call (_, args) -> List.iter (explain_expr buf depth) args
  | Slash (a, b) ->
    explain_expr buf depth a;
    explain_expr buf depth b
  | Filter (e, preds) ->
    explain_expr buf depth e;
    List.iter (explain_expr buf depth) preds
  | Direct_elem d -> explain_direct buf depth d
  | Comp_elem (a, b) | Comp_attr (a, b) ->
    explain_expr buf depth a;
    explain_expr buf depth b
  | Comp_text a | Neg a -> explain_expr buf depth a
  | Range (a, b) | Arith (_, a, b) | General_cmp (_, a, b)
  | Value_cmp (_, a, b) | Node_cmp (_, a, b) | And (a, b) | Or (a, b)
  | Union (a, b) | Intersect (a, b) | Except (a, b) ->
    explain_expr buf depth a;
    explain_expr buf depth b
  | Instance_of (a, _) | Treat_as (a, _) | Castable_as (a, _)
  | Cast_as (a, _) ->
    explain_expr buf depth a
  | Quantified (_, binds, body) ->
    List.iter (fun (_, e) -> explain_expr buf depth e) binds;
    explain_expr buf depth body
  | Step (_, _, preds) -> List.iter (explain_expr buf depth) preds
  | Literal _ | Var _ | Context_item | Root -> ()

and explain_direct buf depth d =
  List.iter
    (fun a ->
      List.iter
        (function Attr_text _ -> () | Attr_expr e -> explain_expr buf depth e)
        a.attr_value)
    d.attrs;
  List.iter
    (function
      | Content_text _ | Content_comment _ -> ()
      | Content_expr e -> explain_expr buf depth e
      | Content_elem child -> explain_direct buf depth child)
    d.content

and contains_flwor = function
  | Flwor _ -> true
  | Literal _ | Var _ | Context_item | Root -> false
  | Sequence es -> List.exists contains_flwor es
  | Range (a, b) | Arith (_, a, b) | General_cmp (_, a, b)
  | Value_cmp (_, a, b) | Node_cmp (_, a, b) | And (a, b) | Or (a, b)
  | Union (a, b) | Intersect (a, b) | Except (a, b) | Slash (a, b)
  | Comp_elem (a, b) | Comp_attr (a, b) ->
    contains_flwor a || contains_flwor b
  | Neg a | Comp_text a
  | Instance_of (a, _) | Treat_as (a, _) | Castable_as (a, _)
  | Cast_as (a, _) ->
    contains_flwor a
  | If (a, b, c) -> contains_flwor a || contains_flwor b || contains_flwor c
  | Quantified (_, binds, body) ->
    List.exists (fun (_, e) -> contains_flwor e) binds || contains_flwor body
  | Step (_, _, preds) -> List.exists contains_flwor preds
  | Filter (e, preds) -> contains_flwor e || List.exists contains_flwor preds
  | Call (_, args) -> List.exists contains_flwor args
  | Direct_elem _ -> false

and explain_flwor buf depth f =
  add buf depth "FLWOR pipeline:";
  let d = depth + 1 in
  List.iter
    (fun c ->
      match c with
      | For bindings ->
        List.iter
          (fun fb ->
            add buf d
              (Printf.sprintf "FOR $%s%s in %s  -- expand tuples" fb.for_var
                 (match fb.positional with
                  | Some p -> " at $" ^ p
                  | None -> "")
                 (short fb.for_src));
            explain_expr buf (d + 1) fb.for_src)
          bindings
      | Let bindings ->
        List.iter
          (fun (v, e) ->
            add buf d (Printf.sprintf "LET $%s := %s" v (short e));
            explain_expr buf (d + 1) e)
          bindings
      | Where e ->
        add buf d (Printf.sprintf "WHERE %s  -- filter tuples" (short e));
        explain_expr buf (d + 1) e
      | Count v -> add buf d (Printf.sprintf "COUNT $%s  -- number tuples" v)
      | Window w ->
        add buf d
          (Printf.sprintf "WINDOW (%s) $%s over %s"
             (match w.w_kind with Tumbling -> "tumbling" | Sliding -> "sliding")
             w.w_var (short w.w_src))
      | Order_by { stable; specs } ->
        add buf d
          (Printf.sprintf "SORT%s on %d key(s): %s"
             (if stable then " (stable)" else "")
             (List.length specs)
             (String.concat ", " (List.map (fun (e, _) -> short e) specs)))
      | Group_by g ->
        let strategy =
          if List.for_all (fun k -> k.using = None) g.keys then
            "HASH GROUP (one pass, fn:deep-equal keys)"
          else "SCAN GROUP (comparator scan: custom 'using' equality)"
        in
        add buf d
          (Printf.sprintf "%s by %s" strategy
             (String.concat ", "
                (List.map
                   (fun k ->
                     Printf.sprintf "%s -> $%s%s" (short k.key_expr) k.key_var
                       (match k.using with
                        | Some fn -> " using " ^ Xname.to_string fn
                        | None -> ""))
                   g.keys)));
        List.iter
          (fun n ->
            let note =
              if n.nest_order = [] then "" else "  -- sorted within groups"
            in
            add buf (d + 1)
              (Printf.sprintf "NEST %s -> $%s%s" (short n.nest_expr) n.nest_var
                 note))
          g.nests)
    f.clauses;
  (match Rewrite.detect f with
   | Some _ ->
     add buf d
       "NOTE: matches the implicit-grouping idiom; Rewrite.rewrite_expr \
        would turn this into a HASH GROUP"
   | None -> ());
  add buf d
    (Printf.sprintf "RETURN%s %s"
       (match f.return_at with Some v -> " at $" ^ v | None -> "")
       (short f.return_expr));
  explain_expr buf (d + 1) f.return_expr

let expr e =
  let buf = Buffer.create 256 in
  explain_expr buf 0 e;
  if Buffer.length buf = 0 then "no FLWOR pipelines (scalar expression)\n"
  else Buffer.contents buf

let query (q : Ast.query) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (f : Ast.fun_def) ->
      add buf 0 (Printf.sprintf "function %s:" (Xname.to_string f.fun_name));
      Buffer.add_string buf (expr f.body))
    q.prolog.functions;
  Buffer.add_string buf (expr q.body);
  Buffer.contents buf

(* --- EXPLAIN ANALYZE ------------------------------------------------------ *)

module Plan = Xq_algebra.Plan
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer

let fmt_stat ~timings (e : Exec.Stats.entry) =
  Printf.sprintf "  [in=%d out=%d%s%s%s%s%s%s%s%s" e.Exec.Stats.rows_in
    e.Exec.Stats.rows_out
    (match e.Exec.Stats.groups_built with
     | Some g -> Printf.sprintf " groups=%d" g
     | None -> "")
    (if e.Exec.Stats.cmp_calls > 0 then
       Printf.sprintf " cmp=%d" e.Exec.Stats.cmp_calls
     else "")
    (if e.Exec.Stats.key_walks > 0 then
       Printf.sprintf " walks=%d" e.Exec.Stats.key_walks
     else "")
    (* Spill counters only appear when the operator actually spilled, so
       ungoverned runs (and all goldens) are byte-stable. *)
    (if e.Exec.Stats.spill_files > 0 then
       Printf.sprintf " spilled=%dB spill-files=%d%s" e.Exec.Stats.spilled_bytes
         e.Exec.Stats.spill_files
         (if e.Exec.Stats.repartitions > 0 then
            Printf.sprintf " repartitions=%d" e.Exec.Stats.repartitions
          else "")
     else "")
    (* Dictionary/batch counters likewise stay silent unless the operator
       interned keys (small inputs never do) or actually vectorized: more
       than one input vector of width > 1 — so the golden corpus stays
       stable, including under XQ_BATCH=1 where every vector is a
       singleton and "batch=1" would say nothing. *)
    (if e.Exec.Stats.dict_interns > 0 then
       Printf.sprintf " dict=%d" e.Exec.Stats.dict_entries
     else "")
    (if e.Exec.Stats.batches > 1 && e.Exec.Stats.batch > 1 then
       Printf.sprintf " batch=%d" e.Exec.Stats.batch
     else "")
    (if e.Exec.Stats.par > 1 then Printf.sprintf " par=%d" e.Exec.Stats.par
     else "")
    (if timings then Printf.sprintf " %.2fms]" e.Exec.Stats.elapsed_ms
     else "]")

let analyzed ?(timings = true) (plan : Plan.plan) (stats : Exec.Stats.t) =
  let buf = Buffer.create 256 in
  (* one entry per operator, outermost first, and nothing left over: a
     count mismatch would annotate rows with another operator's figures *)
  let rec go depth op = function
    | s :: rest -> (
      add buf depth (Plan.op_line op ^ fmt_stat ~timings s);
      match Plan.input_of op with
      | Some input -> go (depth + 1) input rest
      | None -> assert (rest = []))
    | [] -> assert false
  in
  (* stats run innermost-first with RETURN last; the tree prints RETURN
     first, then outermost down — i.e. the reversed stats order. *)
  match List.rev stats with
  | ret :: outer_first ->
    add buf 0 (Plan.return_line plan ^ fmt_stat ~timings ret);
    go 1 plan.Plan.pipeline outer_first;
    Buffer.contents buf
  | [] -> assert false

let analyze_query ?(timings = true) ?config ?optimize ?strategy ?parallel
    ?scan ~context_node (q : Ast.query) =
  let buf = Buffer.create 256 in
  let total = ref 0 in
  List.iter
    (function
      | Exec.Analyzed_plan (plan, result, stats) ->
        total := !total + List.length result;
        (* pushdown annotation before the plan it reshaped, only when it
           applied — the untouched golden corpus stays byte-stable *)
        let n = Optimizer.agg_pushdown_count plan in
        if n > 0 then add buf 0 (Printf.sprintf "rewrite: agg-pushdown=%d" n);
        Buffer.add_string buf (analyzed ~timings plan stats)
      | Exec.Analyzed_expr result ->
        total := !total + List.length result;
        add buf 0 "(non-FLWOR expression: evaluated directly)")
    (Exec.analyze_query ?config ?optimize ?strategy ?parallel ?scan
       ~context_node q);
  add buf 0 (Printf.sprintf "result: %d item(s)" !total);
  (* governor trip counts and peak budgets, only when one is installed —
     ungoverned runs (and the golden explain corpus) are unchanged *)
  (match Xq_governor.Governor.current () with
   | Some g -> add buf 0 (Xq_governor.Governor.summary g)
   | None -> ());
  Buffer.contents buf
