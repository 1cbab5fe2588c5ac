(** The differential harness: one generated case, many engine
    configurations, one oracle.

    Each case runs through the real engine under a sampled configuration
    matrix — the plan executor at strategy hash/sort/auto, parallel degree 1/2/4, spill watermark armed or off,
    document materialized, or loaded as the CLI loads a file: pulled
    through the streaming scan when the projection verdict allows, else
    projected to the query's path set (fault injection always
    cleared) — and
    every outcome is compared
    against {!Xq_refimpl.Refimpl}. Outputs are compared per returned
    item, as ordered lists when the query pins its tuple order (a
    trailing [order by], or no [group by] at all) and as multisets
    otherwise, implementing Section 3.4.2's undefined group order.
    Dynamic errors agree when their W3C error codes agree. *)

open Xq_xdm
open Xq_lang

type config = {
  strategy : Xq_algebra.Optimizer.group_strategy;
      (** the plan executor's grouping operator *)
  parallel : int;  (** domain-pool degree *)
  spill : bool;    (** arm a tiny spill watermark to force external grouping *)
  stream : bool;
      (** load the document through the pipeline's load decision:
          streamed when the projection verdict allows, else the
          projected tree of the query's path set *)
  nopush : bool;
      (** force the eager-aggregation pushdown off for this run — the
          rewritten-vs-unrewritten differential column. Only this run's
          configuration changes, so an [XQ_NO_AGG_PUSHDOWN] environment
          still governs the other columns. *)
}

(** e.g. ["plan:sort/par=4/spill/stream"] — stable, used in reports. *)
val config_label : config -> string

(** The always-run configurations: each strategy at parallel 1
    without spilling, the streamed hash executor with and without the
    spill watermark armed, and the hash executor with the aggregation
    pushdown forced off (unspilled and spilled). *)
val base_configs : config list

(** [base_configs] plus three seed-sampled stress configurations
    (strategy × parallel 2/4 × spill × stream). Deterministic per
    seed. *)
val sampled_configs : seed:int -> config list

type outcome =
  | Output of string list  (** serialized per returned item, in order *)
  | Error_code of string   (** a W3C/engine error code, e.g. "XPTY0004" *)

(** Serialized per-item result, or the error code. *)
val oracle_outcome : Node.t -> Ast.query -> outcome

(** Run one engine configuration. [inject_bug] artificially drops the
    last result item (when the result is non-empty) — a test-only fake
    engine defect for exercising the shrinker end-to-end. [doc] is the
    raw document text, required for streamed configurations (without it
    they fall back to the materialized executor): a streamed run
    re-reads the document through the streaming scan or a projected
    load, so a wrong [Streamable] verdict or a wrong path set surfaces
    as an ordinary divergence and shrinks like one. *)
val engine_outcome :
  ?inject_bug:bool -> ?doc:string -> config -> Node.t -> Ast.query -> outcome

(** True when the query's top-level FLWOR pins its tuple order: a
    trailing [order by], or no [group by]. Non-FLWOR bodies are pinned. *)
val pinned_order : Ast.query -> bool

val outcomes_agree : pinned:bool -> outcome -> outcome -> bool

type verdict =
  | Pass of int  (** configurations run *)
  | Oracle_unsupported of string
  | Roundtrip_failure  (** [parse (pretty q)] is not [q] *)
  | Divergence of { config : config; oracle : outcome; engine : outcome }

(** Check the pretty-printer round-trip, then every configuration
    against the oracle; first disagreement wins. *)
val check_case :
  ?inject_bug:bool -> configs:config list -> doc:string -> Ast.query -> verdict

(** Greedily minimize a diverging case under the one configuration that
    caught it (see {!Xq_qgen.Shrink}). *)
val shrink_divergence :
  ?inject_bug:bool ->
  config ->
  doc:string ->
  Ast.query ->
  Ast.query * string
