open Xq_xdm
open Xq_lang
module Optimizer = Xq_algebra.Optimizer
module Prng = Xq_workload.Prng

type config = {
  strategy : Optimizer.group_strategy;
  parallel : int;
  spill : bool;
  stream : bool;
  nopush : bool;
}

let config_label c =
  "plan:" ^ Optimizer.strategy_to_string c.strategy
  ^ (if c.parallel > 1 then Printf.sprintf "/par=%d" c.parallel else "")
  ^ (if c.spill then "/spill" else "")
  ^ (if c.stream then "/stream" else "")
  ^ if c.nopush then "/nopush" else ""

let base_configs =
  [
    { strategy = Optimizer.Hash; parallel = 1; spill = false; stream = false;
      nopush = false };
    { strategy = Optimizer.Sort; parallel = 1; spill = false; stream = false;
      nopush = false };
    { strategy = Optimizer.Auto; parallel = 1; spill = false; stream = false;
      nopush = false };
    { strategy = Optimizer.Hash; parallel = 1; spill = false; stream = true;
      nopush = false };
    { strategy = Optimizer.Hash; parallel = 1; spill = true; stream = true;
      nopush = false };
    (* the rewrite differential: the same plan with the eager-aggregation
       pushdown forced off — a pushdown bug shows up as this column
       disagreeing with its rewritten twin (both against the oracle),
       and shrinks like any other divergence *)
    { strategy = Optimizer.Hash; parallel = 1; spill = false; stream = false;
      nopush = true };
    { strategy = Optimizer.Hash; parallel = 1; spill = true; stream = false;
      nopush = true };
  ]

let sampled_configs ~seed =
  (* derive from a distinct stream so adding configurations never
     perturbs the generator's choices for the same seed; nopush draws
     from its own stream so the older fields replay identically too *)
  let rng = Prng.create (seed lxor 0x5eed5eed) in
  let rng_push = Prng.create (seed lxor 0x906070) in
  let strategies = [| Optimizer.Hash; Optimizer.Sort; Optimizer.Auto |] in
  base_configs
  @ List.init 3 (fun _ ->
        {
          strategy = Prng.pick rng strategies;
          parallel = (if Prng.one_in rng 2 then 2 else 4);
          spill = Prng.one_in rng 2;
          stream = Prng.one_in rng 2;
          nopush = Prng.one_in rng_push 3;
        })

type outcome =
  | Output of string list
  | Error_code of string

let serialize_items seq =
  List.map (fun item -> Xq_xml.Serialize.sequence [ item ]) seq

let capture f =
  match f () with
  | seq -> Output (serialize_items seq)
  | exception Xerror.Error (code, _) -> Error_code (Xerror.code_to_string code)

let oracle_outcome context_node query =
  capture (fun () -> Xq_refimpl.Refimpl.eval_query ~context_node query)

(* A tiny watermark plus a roomy hard limit: grouping spills to disk
   almost immediately, while the XQENG0002 hard trip stays out of reach
   for these small cases. *)
let spill_governor () = Xq_governor.Governor.create ~spill_watermark_bytes:4096 ~max_mem_mb:512 ()

let engine_outcome ?(inject_bug = false) ?doc config context_node query =
  (* streamed and materialized runs alike go through the shared
     pipeline — the same entry the CLI, REPL and query server use — with
     the static check hoisted *)
  let compiled = Xq_pipeline.Pipeline.of_query query in
  let strategy = config.strategy and parallel = config.parallel in
  (* the nopush column forces the pushdown off; the other columns leave
     it to the environment *)
  let agg_pushdown = if config.nopush then Some false else None in
  let run () =
    Xq_lang.Static.check_query query;
    let engine = Xq_governor.Config.resolve ?agg_pushdown ~strategy ~parallel () in
    (* the streamed column loads the document exactly as the CLI
       would: streamable plans pull it through the streaming scan, the
       rest run over the projected tree of their path set (the oracle
       reads the whole tree). A wrong verdict or a wrong path set
       therefore shows up as an ordinary divergence and shrinks like
       one. *)
    let scan, doc =
      match doc with
      | Some src when config.stream ->
        let load, doc =
          Xq_pipeline.Pipeline.load ~config:engine (Lazy.from_val query)
            (`String src)
        in
        (Xq_pipeline.Pipeline.scan_of load, doc)
      | _ -> (None, context_node)
    in
    Xq_pipeline.Pipeline.eval ?scan ~config:engine ~doc compiled
  in
  let outcome =
    capture (fun () ->
        if config.spill then
          Xq_governor.Governor.with_governor (spill_governor ()) run
        else run ())
  in
  match outcome with
  | Output (_ :: _ as items) when inject_bug ->
    Output (List.filteri (fun i _ -> i < List.length items - 1) items)
  | o -> o

let pinned_order (q : Ast.query) =
  match q.body with
  | Flwor f ->
    let grouped =
      List.exists (function Ast.Group_by _ -> true | _ -> false) f.clauses
    in
    let ordered =
      match List.rev f.clauses with
      | Ast.Order_by _ :: _ -> true
      | _ -> false
    in
    ordered || not grouped
  | _ -> true

let outcomes_agree ~pinned a b =
  match a, b with
  | Error_code x, Error_code y -> x = y
  | Output x, Output y ->
    if pinned then x = y
    else List.sort String.compare x = List.sort String.compare y
  | _ -> false

type verdict =
  | Pass of int
  | Oracle_unsupported of string
  | Roundtrip_failure
  | Divergence of { config : config; oracle : outcome; engine : outcome }

let check_case ?(inject_bug = false) ~configs ~doc query =
  match Xq_qgen.Qgen.round_trips query with
  | Error _ -> Roundtrip_failure
  | Ok () -> begin
    let context_node = Xq_xml.Xml_parse.parse doc in
    match oracle_outcome context_node query with
    | exception Xq_refimpl.Refimpl.Unsupported what -> Oracle_unsupported what
    | oracle ->
      let pinned = pinned_order query in
      let rec go n = function
        | [] -> Pass n
        | config :: rest ->
          let engine = engine_outcome ~inject_bug ~doc config context_node query in
          if outcomes_agree ~pinned oracle engine then go (n + 1) rest
          else Divergence { config; oracle; engine }
      in
      go 0 configs
  end

let shrink_divergence ?(inject_bug = false) config ~doc query =
  let still_failing q d =
    match Xq_xml.Xml_parse.parse d with
    | exception _ -> false
    | context_node -> begin
      match oracle_outcome context_node q with
      | exception Xq_refimpl.Refimpl.Unsupported _ -> false
      | oracle ->
        let engine = engine_outcome ~inject_bug ~doc:d config context_node q in
        not (outcomes_agree ~pinned:(pinned_order q) oracle engine)
    end
  in
  Xq_qgen.Shrink.shrink ~still_failing ~query ~doc
