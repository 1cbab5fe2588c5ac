(** Static projection analysis: the path set a checked query navigates,
    and the streaming verdict as its special case.

    The {e path set} lists every root-anchored path the query
    navigates, each marked navigate-only or whole subtree
    ({!Xq_xml.Xml_stream.mark}). Atomization, string values,
    comparisons, group and order keys, [deep-equal], serialization,
    constructor content and the arguments of unmodelled functions read
    a path's whole subtree; [count], [exists], [empty], effective
    boolean values, [is] and [<<] only navigate it. Variables,
    [return] values, [nest] and [let] carry paths to the places their
    values are used. Wildcards, [node()], [text()] and [fn:root] mark
    the context they touch whole subtree; an upward or sideways step
    whose path has no name, an ancestor axis, [fn:doc] and
    [fn:collection] make the whole document the answer. A projected
    load ({!Xq_xml.Xml_stream.load}) of the path set gives the query
    output byte-identical to the whole document.

    The streamable special case: the body is a single FLWOR whose first
    clause is a [for] whose first binding ranges over an absolute
    child/descendant element path without predicates, and no other
    part of the query (remaining bindings, clauses, return, prolog
    globals and function bodies) reaches the document again — no
    absolute paths, no free context item, no upward/sideways axes, no
    [fn:doc] / [fn:collection] / [fn:root]. Such a query runs over a
    streamed scan of that path. Anything outside the fragment yields
    {!Materialize} with the reason, which EXPLAIN surfaces. *)

type verdict =
  | Streamable of {
      path : Xq_xml.Xml_stream.path;  (** the projection to scan *)
      var : string;  (** the first binding's variable *)
      positional : string option;  (** its [at $p] variable *)
    }
  | Materialize of string  (** not streamable, with the reason *)

type t = {
  verdict : verdict;
  paths : (Xq_xml.Xml_stream.path_set, string) result;
      (** the path set, or why the query needs the whole document *)
}

(** The one analysis: path set and verdict from a single walk. *)
val analyze_paths : Xq_lang.Ast.query -> t

(** [(analyze_paths q).verdict]. *)
val analyze : Xq_lang.Ast.query -> verdict

(** One-line rendering, e.g. ["streamable: $o <- scan /orders/order"]
    or ["materialize: the context item denotes the document …"]. *)
val to_string : verdict -> string
