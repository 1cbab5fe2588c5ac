(** Textual evaluation-plan explanations.

    Describes how a query's FLWORs execute: the clause pipeline of every
    FLWOR, which grouping strategy applies (one hash pass for default
    deep-equal keys, a comparator scan when any key has [using]), nests,
    sorts — and flags FLWORs that
    match the implicit-grouping idiom {!Rewrite.detect} could rewrite. *)

open Xq_lang

val expr : Ast.expr -> string
val query : Ast.query -> string

(** {1 EXPLAIN ANALYZE}

    Renders the plan tree that actually executed, each operator
    annotated with its runtime counters — rows in/out, groups built,
    comparator calls, key-subtree walks ([walks=], when any), the
    domain-pool degree ([par=], when above 1), and (unless
    [timings:false], which golden tests use for determinism) each
    operator's wall-clock self time. The counters come from the chain a
    normal run executes ({!Xq_algebra.Exec.run} with statistics). *)

(** Render one executed plan with its statistics: one entry per
    operator plus the return clause's, as {!Xq_algebra.Exec.run}
    produces them (a count mismatch is an assertion failure). *)
val analyzed :
  ?timings:bool -> Xq_algebra.Plan.plan -> Xq_algebra.Exec.Stats.t -> string

(** Compile, execute and render every top-level FLWOR of the query body
    (non-FLWOR parts evaluate directly and are noted as such), ending
    with the total result cardinality. [optimize] runs the plan
    optimizer first; the configuration resolves as in
    {!Xq_algebra.Exec.query_context} — [strategy] and [parallel]
    override [config], which defaults to the environment, so the
    analysis runs under the settings a normal run of the query uses.
    With [scan] the input streams, exactly as in
    {!Xq_algebra.Exec.eval_query}: the rows are those of the streamed
    chain. *)
val analyze_query :
  ?timings:bool ->
  ?config:Xq_governor.Config.t ->
  ?optimize:bool ->
  ?strategy:Xq_algebra.Optimizer.group_strategy ->
  ?parallel:int ->
  ?scan:Xq_algebra.Exec.scan ->
  context_node:Xq_xdm.Node.t ->
  Ast.query ->
  string
