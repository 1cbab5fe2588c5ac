(** Public API facade for the XQuery-analytics engine.

    {[
      let doc = Xq.load_string "<bib>…</bib>" in
      let result = Xq.run doc {|
        for $b in //book
        group by $b/publisher into $p
        nest $b/price into $prices
        return <r>{$p}<avg>{avg($prices)}</avg></r> |} in
      print_endline (Xq.to_xml result)
    ]}

    Re-exported submodules give access to every layer: [Xdm] (data
    model), [Xml] (parser/serializer/builder), [Lang] (AST, parser,
    pretty-printer, static checks), [Engine] (evaluator), [Rewrite]
    (implicit-group-by detection). *)

module Xdm = Xq_xdm
module Xml = Xq_xml
module Lang = Xq_lang
module Engine = Xq_engine
module Rewrite = Xq_rewrite
module Algebra = Xq_algebra

(** One query's configuration: every [XQ_*] knob, resolved once. *)
module Config = Xq_governor.Config

(** Fork-join domain pool, run at each query's [Config.parallel]. *)
module Par = Xq_par.Par

(** Executor batch size ([Config.batch]). *)
module Batch = Xq_par.Batch

(** Per-query resource governor: deadlines, group/memory budgets,
    cooperative cancellation, fault injection ([XQ_FAULTS]). *)
module Governor = Xq_governor.Governor

(** Crash-safe spill files behind external grouping, under the spill
    settings of the query's governor. *)
module Spill = Xq_spill.Spill

(** Naive reference evaluator — the differential-fuzzing oracle. *)
module Refimpl = Xq_refimpl.Refimpl

(** Seeded grammar-driven query/document generator. *)
module Qgen = Xq_qgen.Qgen

(** Greedy delta-debugging shrinker for failing cases. *)
module Shrink = Xq_qgen.Shrink

(** The differential harness: configuration matrix, outcome comparison
    modulo undefined group order, and failure minimization. *)
module Fuzz = Xq_fuzzer.Fuzz

(** The shared compile-and-run pipeline behind the CLI, REPL, fuzzer
    and query server. *)
module Pipeline = Xq_pipeline.Pipeline

(** A loaded document (its document node). *)
type doc = Xq_xdm.Node.t

(** The result of a query: an XQuery sequence. *)
type result = Xq_xdm.Xseq.t

(** {1 Loading data} *)

(** Parse an XML string into a document. Raises
    [Xml.Xml_parse.Parse_error] on malformed input. *)
val load_string : string -> doc

val load_file : string -> doc

(** {1 Running queries} *)

(** Parse a query (prolog + expression). Raises [Xerror.Error] with a
    static error code on bad syntax. *)
val parse : string -> Xq_lang.Ast.query

(** Run the static checks (scoping incl. the paper's group-by rules,
    function arities, clause order). *)
val check : Xq_lang.Ast.query -> unit

(** Parse, check and evaluate a query against a document. [documents],
    [collections] and [default_collection] are served to the query
    through [fn:doc] and [fn:collection]. *)
val run :
  ?documents:(string * doc) list ->
  ?collections:(string * doc list) list ->
  ?default_collection:doc list ->
  doc ->
  string ->
  result

(** Evaluate an already-parsed query. *)
val run_query :
  ?check:bool ->
  ?documents:(string * doc) list ->
  ?collections:(string * doc list) list ->
  ?default_collection:doc list ->
  doc ->
  Xq_lang.Ast.query ->
  result

(** Rewrite the implicit-grouping idiom (distinct-values + self-join)
    into an explicit [group by], then evaluate. *)
val run_rewritten : doc -> string -> result

(** {1 Results} *)

(** Serialize a result sequence as XML (atomic values space-separated). *)
val to_xml : ?indent:bool -> result -> string

(** Atomic convenience accessors (raise [XPTY0004] on mismatch). *)
val to_strings : result -> string list

val length : result -> int
