(** A physical tuple-stream algebra for FLWOR expressions.

    The paper's argument is about plans: an explicit [group by] lets the
    engine emit a single {!Hash_group} operator where the implicit idiom
    forces nested scans. This module makes those plans first-class — the
    same shape System RX (and the Natix tuple algebra the paper cites)
    uses: a tree of operators over streams of variable-binding tuples.

    {!compile} translates a FLWOR clause list into an operator tree;
    {!Exec.run} interprets it (delegating expression evaluation to
    [Xq_engine.Eval]); [Exec.to_string] renders the plan. The test suite
    checks [Exec.run ∘ compile] against the naive reference evaluator on
    the paper's queries and on randomized workloads. *)

open Xq_lang

type op =
  | Unit  (** the stream containing one empty tuple *)
  | For_expand of {
      var : string;
      positional : string option;
      source : Ast.expr;
      input : op;
    }  (** map-concat: one output tuple per item of [source] per input tuple *)
  | Let_bind of { var : string; expr : Ast.expr; input : op }
  | Select of { pred : Ast.expr; input : op }  (** [where] *)
  | Number of { var : string; input : op }  (** [count $var] *)
  | Window_expand of { window : Ast.window_clause; input : op }
      (** the XQuery 3.0 window clause *)
  | Sort of {
      stable : bool;
      specs : (Ast.expr * Ast.order_modifier) list;
      input : op;
    }
  | Hash_group of group_shape  (** all keys use fn:deep-equal *)
  | Scan_group of group_shape  (** some key has a [using] comparator *)
  | Sort_group of { shape : group_shape; sorted_output : bool }
      (** sort by atomized keys, emit groups from equal runs (deep-equal
          tie-break within a run keeps results identical to
          [Hash_group]); [sorted_output] leaves groups in key order — a
          downstream sort on the keys has been fused away *)

and group_shape = {
  keys : Ast.group_key list;
  nests : Ast.nest_spec list;
  aggs : (string * Xq_engine.Acc.kind list) list;
      (** non-empty iff the optimizer pushed eager aggregation into this
          group: one entry per nest spec (same order), naming the
          aggregate kinds the return expression applies to that variable
          ([[]] for a dead variable that is never read). Empty list =
          the group materializes member lists as usual. *)
  input : op;
}

(** Compile a FLWOR's clause list bottom-up into an operator tree. *)
val compile : Ast.clause list -> op

(** Compile a whole FLWOR; the result pairs the plan with the return
    clause. *)
type plan = {
  pipeline : op;
  return_at : string option;
  return_expr : Ast.expr;
}

val of_flwor : Ast.flwor -> plan

(** Operator count (plan size), for tests and plan output. *)
val size : op -> int

(** The operator's input (pipelines are linear chains); [None] for
    {!Unit}. *)
val input_of : op -> op option

(** One-line rendering of a single operator (no children). *)
val op_line : op -> string

(** One-line rendering of the plan's return clause. *)
val return_line : plan -> string

(** Render the operator tree, one operator per line, leaves last. *)
val to_string : plan -> string
