(** Logical rewrites over {!Plan} operator trees, applied to a fixpoint:

    - {b select pushdown}: a [Select] commutes below a [Sort] (filtering
      then sorting equals sorting then filtering, and the sort is
      stable), and below a [Let_bind] whose variable the predicate does
      not reference — on a selective predicate this skips evaluating the
      binding for tuples that are about to be dropped (a freedom the
      XQuery spec grants explicitly: a processor need not evaluate what
      the result does not require);
    - {b select fusion}: adjacent [Select]s conjoin into one;
    - {b dead-binding elimination}: a [Let_bind] whose variable nothing
      downstream references is dropped, when its expression is pure
      (cannot raise);
    - {b trivial-select elimination}: [where true()] and literal-true
      predicates vanish.

    All rewrites preserve results; the test suite checks every rule both
    structurally and by executing randomized plans before and after. *)

(** Optimize a plan's pipeline (the return clause is the root use-site
    for liveness). *)
val optimize : Plan.plan -> Plan.plan

(** {1 Grouping-strategy selection}

    Which physical operator executes a default-equality [group by]:
    - [Hash] (the default): the paper's one-pass hash grouping;
    - [Sort]: {!Plan.Sort_group} — sort by atomized keys and emit groups
      from runs; results are identical to hash;
    - [Auto]: keep hash, except when the grouping feeds a sort on
      exactly its key variables (ascending, default empty handling) — in
      that case the sort is fused away and the grouping emits groups
      already in key order.

    Groupings with a [using] comparator always stay {!Plan.Scan_group}. *)

type group_strategy = Xq_governor.Config.strategy = Hash | Sort | Auto

val strategy_to_string : group_strategy -> string

(** The environment's strategy ([XQ_GROUP_STRATEGY]: [hash]/[sort]/
    [auto]); [Hash] when unset or unrecognized. *)
val strategy_from_env : unit -> group_strategy

val apply_strategy : group_strategy -> Plan.plan -> Plan.plan

(** {1 Group-cardinality estimates}

    A process-wide feedback registry: executed grouping operators report
    the group count they built, keyed on the operator's [Plan.op_line]
    signature, and later executions of a structurally identical operator
    presize their hash tables from it. A hint only — results never
    depend on it. *)

(** Record that the operator with this signature built [n] groups. *)
val note_groups : signature:string -> int -> unit

(** Last recorded group count for this signature, if any. *)
val estimated_groups : signature:string -> int option

(** Disable/enable the registry (bench item-at-a-time baselines). *)
val set_estimate_feedback : bool -> unit

(** {1 Eager-aggregation pushdown}

    When every use of a nest variable above the grouping operator is an
    eligible one-argument aggregate call ([fn:count]/[sum]/[avg]/[min]/
    [max] on exactly [$v]), {!push_aggregates} marks the group shape
    ([Plan.group_shape.aggs]) so the executor folds members into
    per-group running accumulators ({!Xq_engine.Acc}) instead of
    materializing (or spilling) member lists, and substitutes each call
    site with the internal unwrap call on the mangled accumulator
    variable. All-or-nothing per group: every nest variable must be
    aggregate-only or completely unread, none may be shadowed anywhere
    in a consumer expression, and [nest ... order by] disables the
    rewrite. Results are byte-identical either way; the rewrite is a
    plan-shape and resource change only. Apply after strategy selection
    and before {!optimize}; [Exec.plan_flwor] applies it when the
    query's [Config.agg_pushdown] is on ([--no-agg-pushdown] /
    [XQ_NO_AGG_PUSHDOWN] turn it off). *)

val push_aggregates : Plan.plan -> Plan.plan

(** Number of aggregate kinds folded into the plan's grouping operator
    (the [agg-pushdown=N] figure in EXPLAIN); [0] when the rewrite did
    not apply. *)
val agg_pushdown_count : Plan.plan -> int
