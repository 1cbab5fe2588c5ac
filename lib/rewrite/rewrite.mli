(** Recognition of the implicit-grouping idiom and its rewrite into an
    explicit [group by] — the query-optimizer task the paper argues is
    "extremely difficult" in general (Sections 2, 6, 7), implemented here
    for the exact Table 1 shape so the ablation benches can compare
    naive / rewritten / hand-written-explicit plans.

    Recognized pattern (N grouping variables; both Table 1 templates):

    {v
    for $v1 in distinct-values(SRC/rel1)
    for $v2 in distinct-values(SRC/rel2) ...
    let $items := SRC[rel1 = $v1 and rel2 = $v2 ...]
                | for $i in SRC
                  where $i/rel1 = $v1 and $i/rel2 = $v2 ...
                  return $i
    (where exists($items))?
    (order by ...)?
    return BODY
    v}

    rewritten to

    {v
    for $i in SRC
    group by $i/rel1 into $v1, $i/rel2 into $v2 ...
    nest $i into $items
    where exists($v1) and exists($v2) ...
    (order by ...)?
    return BODY
    v}

    The post-group [where] preserves the original's behaviour of omitting
    items whose grouping child is absent. The rewrite is equivalence-
    preserving when each [rel] yields at most one value per item (the
    paper's experimental setting); with multi-valued keys the idiom and
    the explicit grouping genuinely differ (Section 2, query Q2), so the
    matcher requiring simple relative paths is a feature, not a bug. *)

open Xq_lang

(** [detect f] returns the rewritten FLWOR when [f] matches the idiom. *)
val detect : Ast.flwor -> Ast.flwor option

(** Rewrite every matching FLWOR in an expression (bottom-up). *)
val rewrite_expr : Ast.expr -> Ast.expr

(** Rewrite the body and every function body of a query. *)
val rewrite_query : Ast.query -> Ast.query

(** Number of FLWORs [rewrite_expr] would change — used by tests and the
    CLI's [--explain]. *)
val count_rewrites : Ast.expr -> int
