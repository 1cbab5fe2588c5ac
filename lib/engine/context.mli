(** Dynamic evaluation context: variable bindings, user-declared
    functions, globals, ordering mode and the focus (context item,
    position, size) used by path steps and predicates. *)

open Xq_xdm
open Xq_lang

type func = {
  fn_params : string list;
  fn_body : Ast.expr;
}

type focus = {
  item : Item.t;
  position : int;  (** 1-based *)
  size : int;
}

type t

(** An empty context (ordered mode, no bindings). *)
val empty : t

(** Build a context from a query prolog: registers declared functions;
    global variables are evaluated later ([Exec.query_context]). *)
val of_prolog : Ast.prolog -> t

val ordering : t -> Ast.ordering_mode

val bind : t -> string -> Xseq.t -> t
val bind_many : t -> (string * Xseq.t) list -> t
val lookup : t -> string -> Xseq.t option

(** Raises [XPST0008] when unbound (should have been caught statically). *)
val lookup_exn : t -> string -> Xseq.t

val find_function : t -> Xname.t -> int -> func option

(** Context for evaluating a function body: globals plus the arguments —
    local dynamic variables do not leak in. *)
val function_scope : t -> (string * Xseq.t) list -> t

(** Record a variable as global (visible inside function bodies). *)
val bind_global : t -> string -> Xseq.t -> t

val with_focus : t -> focus -> t
val focus : t -> focus option

(** Raises [XPDY0002] when there is no focus. *)
val focus_exn : t -> focus

(** {1 Available documents and collections}

    The dynamic context's registry behind [fn:doc] and [fn:collection]:
    named documents, named collections, and the default collection. *)

val add_document : t -> uri:string -> Node.t -> t
val add_collection : t -> name:string -> Node.t list -> t
val set_default_collection : t -> Node.t list -> t

val find_document : t -> string -> Node.t option
val find_collection : t -> string -> Node.t list option
val default_collection : t -> Node.t list option

(** {1 FLWOR runner}

    The evaluator runs every FLWOR expression — top-level, nested or in
    a function body — through the runner stored here. The plan executor
    installs it once per query ([Exec.query_context]); the runner reads
    the query's settings from the context's {!config}. A context without
    one raises [Invalid_argument] on its first FLWOR. *)

val with_flwor_runner : t -> (t -> Ast.flwor -> Xseq.t) -> t

(** Run a FLWOR expression in this context through the installed runner. *)
val run_flwor : t -> Ast.flwor -> Xseq.t

(** The query's configuration, set once per query by
    [Exec.query_context]; being a context field rather than a process
    global, concurrent queries never see each other's. {!empty} carries
    {!Xq_governor.Config.default}. *)

val with_config : t -> Xq_governor.Config.t -> t
val config : t -> Xq_governor.Config.t

(** Does the input arrive as detached subtrees (a streamed scan's)?
    Set once per streamed run by [Exec.run] and inherited by every
    context derived from it; grouping then spills members by value. *)

val with_detached : t -> bool -> t
val detached : t -> bool
