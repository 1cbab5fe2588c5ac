(** The expression evaluator. FLWOR expressions — with the paper's
    extensions ([group by]/[nest]/[using], post-group [let]/[where],
    [nest … order by], [return at]) — are not evaluated here: the
    [Flwor] case hands them to the runner installed in the context
    ({!Context.run_flwor}), which is the plan executor's operator chain
    wherever the FLWOR sits. *)

open Xq_xdm
open Xq_lang

(** Evaluate an expression in a context. A FLWOR anywhere inside it runs
    through the context's FLWOR runner. *)
val eval : Context.t -> Ast.expr -> Xseq.t

(** True when evaluating the expression concurrently on several domains
    is safe: it constructs no nodes (node ids come from a global
    non-atomic counter) and calls no user functions nor the
    registry-reading or tracing builtins. Conservative — used to decide
    whether grouping may evaluate key expressions on the {!Par} pool. *)
val parallel_safe : Context.t -> Ast.expr -> bool

(** Expand one FLWOR tuple (as variable/value bindings) into one tuple
    per window of the clause — exposed for the algebra executor so both
    back ends share the XQuery 3.0 window semantics. *)
val expand_window_bindings :
  Context.t ->
  Ast.window_clause ->
  (string * Xseq.t) list ->
  (string * Xseq.t) list list
