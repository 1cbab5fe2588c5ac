open Xq_xdm
open Xq_lang

module Smap = Map.Make (String)
module Par = Xq_par.Par
module Governor = Xq_governor.Governor
module Clock = Xq_governor.Clock
module Config = Xq_governor.Config

type tuple = Xseq.t Smap.t

let ctx_with_tuple ctx tuple =
  Smap.fold (fun v value ctx -> Xq_engine.Context.bind ctx v value) tuple ctx

(* Spill codec for executor tuples — same wire shape as the evaluator's
   (sorted variable/sequence bindings), letting grouping operators
   degrade to the external build under memory pressure. *)
let tuple_codec : tuple Xq_engine.Group.codec =
  {
    Xq_engine.Group.enc =
      (fun reg buf tup ->
        Binio.put_varint buf (Smap.cardinal tup);
        Smap.iter
          (fun v value ->
            Binio.put_string buf v;
            Binio.put_seq reg buf value)
          tup);
    dec =
      (fun reg r ->
        let n = Binio.get_varint r in
        let rec go acc i =
          if i >= n then acc
          else begin
            let v = Binio.get_string r in
            let value = Binio.get_seq reg r in
            go (Smap.add v value acc) (i + 1)
          end
        in
        go Smap.empty 0);
  }

(* Live-heap estimate of a streamed tuple: its bindings own detached
   subtrees (nothing else references them), so a group member pins the
   whole tree until the partition flushes. The builder's flush
   accounting needs the real size — its default per-member constant
   assumes members alias an already-resident document. *)
let rec node_cost n =
  match Node.kind n with
  | Node.Text -> 64 + String.length (Node.text_content n)
  | Node.Attribute -> 64 + String.length (Node.attribute_value n)
  | Node.Comment -> 64 + String.length (Node.comment_text n)
  | Node.Pi -> 64 + String.length (Node.pi_data n)
  | Node.Element | Node.Document ->
    List.fold_left
      (fun acc c -> acc + node_cost c)
      (List.fold_left (fun acc a -> acc + node_cost a) 64 (Node.attributes n))
      (Node.children n)

let tuple_cost tup =
  Smap.fold
    (fun _ value acc ->
      List.fold_left
        (fun acc item ->
          match item with Item.Node n -> acc + node_cost n | _ -> acc + 32)
        acc value)
    tup 24

let eval_in ctx tuple e = Xq_engine.Eval.eval (ctx_with_tuple ctx tuple) e

let tick = function Some r -> incr r | None -> ()

(* Sort tuples by order specs — same semantics as the engine's order by
   (stable; untyped keys as strings; empty least unless specified). With
   [parallel] > 1 the stable sort runs on the domain pool (key
   evaluation stays sequential — order expressions are arbitrary);
   output is byte-identical at any degree. *)
let sort_tuples ?tally ?(parallel = 1) ctx specs tuples =
  let keyed =
    List.map
      (fun tuple ->
        let keys =
          List.map
            (fun (e, modifier) ->
              (Xseq.atomized_opt (eval_in ctx tuple e), modifier))
            specs
        in
        (keys, tuple))
      tuples
  in
  let compare_keys (ka, _) (kb, _) =
    tick tally;
    Governor.tick ();
    let rec go = function
      | [] -> 0
      | ((a, modifier), (b, _)) :: rest ->
        let c = Xq_engine.Compare.order_keys modifier a b in
        if c <> 0 then c else go rest
    in
    go (List.combine ka kb)
  in
  if parallel <= 1 then List.map snd (List.stable_sort compare_keys keyed)
  else begin
    let arr = Array.of_list keyed in
    Par.sort ~degree:parallel compare_keys arr;
    List.map snd (Array.to_list arr)
  end

let group_output ?tally ctx (shape : Plan.group_shape) groups =
  List.map
    (fun (grp : tuple Xq_engine.Group.group) ->
      let out =
        List.fold_left2
          (fun out (k : Ast.group_key) key_value ->
            Smap.add k.Ast.key_var key_value out)
          Smap.empty shape.Plan.keys grp.Xq_engine.Group.keys
      in
      List.fold_left
        (fun out (n : Ast.nest_spec) ->
          let members =
            if n.Ast.nest_order = [] then grp.Xq_engine.Group.members
            else
              sort_tuples ?tally ctx n.Ast.nest_order
                grp.Xq_engine.Group.members
          in
          let value =
            Xseq.concat
              (List.map (fun tuple -> eval_in ctx tuple n.Ast.nest_expr) members)
          in
          Smap.add n.Ast.nest_var value out)
        out shape.Plan.nests)
    groups

(* --- eager aggregation (shape.aggs <> []) -------------------------------- *)

module Acc = Xq_engine.Acc

(* When the optimizer marked the group shape ([aggs]), members are not
   materialized: each input tuple becomes a row carrying its key values
   and one running accumulator per nest slot, and the group builder's
   reduce mode folds rows of the same group together — every group
   retains exactly one row, spill frames carry O(groups) encoded
   accumulators, and parallel partial merges combine accumulators. *)
type agg_row = {
  ar_keys : Xseq.t list;
      (* [[]] on rows decoded from spill frames: the frame's canonical
         key re-keys the group, the row is only ever merged as a member *)
  ar_accs : Acc.t array;  (* one per nest spec, in spec order *)
}

(* Re-raise the first recorded nest-expression error in group-emission ×
   slot order — exactly where the materializing path, which evaluates
   nest expressions group by group before any output, would have raised
   it — then bind each aggregate's finished value (or its call-site
   poison marker, unwrapped by the engine's internal builtin) under the
   mangled variable names the optimizer substituted. *)
let agg_output (shape : Plan.group_shape) groups =
  List.iter
    (fun (grp : agg_row Xq_engine.Group.group) ->
      List.iter
        (fun row ->
          Array.iter
            (fun acc ->
              match Acc.nest_err acc with
              | Some (code, msg) -> raise (Xerror.Error (code, msg))
              | None -> ())
            row.ar_accs)
        grp.Xq_engine.Group.members)
    groups;
  List.map
    (fun (grp : agg_row Xq_engine.Group.group) ->
      let row =
        match grp.Xq_engine.Group.members with
        | [ row ] -> row
        | _ -> assert false (* reduce mode retains exactly one member *)
      in
      let out =
        List.fold_left2
          (fun out (k : Ast.group_key) key_value ->
            Smap.add k.Ast.key_var key_value out)
          Smap.empty shape.Plan.keys grp.Xq_engine.Group.keys
      in
      let slot = ref (-1) in
      List.fold_left
        (fun out (v, kinds) ->
          incr slot;
          let acc = row.ar_accs.(!slot) in
          List.fold_left
            (fun out kind ->
              let value =
                match Acc.finish acc kind with
                | Ok seq -> seq
                | Error (code, msg) ->
                  [
                    Item.Atomic (Atomic.Str Acc.poison_tag);
                    Item.Atomic (Atomic.Str (Xerror.code_to_string code));
                    Item.Atomic (Atomic.Str msg);
                  ]
              in
              Smap.add (Acc.mangle v kind) value out)
            out kinds)
        out shape.Plan.aggs)
    groups

(* Apply a user (or builtin) equality function to two key sequences by
   binding them to fresh variables and evaluating a call. *)
let apply_equality ctx fname a b =
  let va = "xq-algebra-eq-lhs" and vb = "xq-algebra-eq-rhs" in
  let ctx = Xq_engine.Context.bind (Xq_engine.Context.bind ctx va a) vb b in
  Xseq.effective_boolean_value
    (Xq_engine.Eval.eval ctx (Ast.Call (fname, [ Ast.Var va; Ast.Var vb ])))

let shape_keys_of ctx (shape : Plan.group_shape) tuple =
  List.map
    (fun (k : Ast.group_key) -> eval_in ctx tuple k.Ast.key_expr)
    shape.Plan.keys

(* May grouping evaluate this shape's key expressions on the pool?
   Delegated to the engine's static check. *)
let shape_parallel_keys ctx (shape : Plan.group_shape) =
  List.for_all
    (fun (k : Ast.group_key) -> Xq_engine.Eval.parallel_safe ctx k.Ast.key_expr)
    shape.Plan.keys

(* --- batched pipeline --------------------------------------------------- *)

(* The executor is batch-at-a-time: tuples flow between operators in
   vectors of the query's batch size ([Config.batch], default 4096), so
   per-tuple dispatch, governor bookkeeping and domain-pool task setup
   amortize over a whole vector. Each operator is a sink: [push] consumes
   one vector, [close] flushes whatever the operator buffered (expansion
   remainders, the sort's accumulated input, a group builder) and closes
   downstream. [Unit] is the source — its [close] injects the seed tuple
   and drives the cascade. At batch size 1 the same code degenerates to
   item-at-a-time execution (every vector is a singleton), which is the
   bench ablation's baseline mode.

   Byte-identity at any batch size: stateless operators are pure maps
   over each vector; stateful ones (Number's counter, Sort's barrier,
   the group builders — see {!Xq_engine.Group.builder}) are defined over
   the concatenated stream, which is independent of where vector
   boundaries fall. *)

type vec = tuple array

type sink = {
  push : vec -> unit;
  close : unit -> unit;
  pressure : unit -> unit;
      (* shed what the operator can spare under memory pressure (group
         builders flush flushable partitions); stateless operators just
         propagate downstream. Called from the streamed scan's pressure
         callback — i.e. never while a push is in flight. *)
}

(* Accumulate single items and emit full vectors to [push]. The buffer
   starts empty and doubles up to [batch] on demand: a nested FLWOR
   builds its chain on every evaluation, and most of those chains carry
   a handful of tuples, not a full vector. *)
let rebatcher batch push =
  let cap = max 1 batch in
  let buf = ref [||] in
  let fill = ref 0 in
  let flush () =
    if !fill > 0 then begin
      let vec = Array.sub !buf 0 !fill in
      fill := 0;
      push vec
    end
  in
  let push_one t =
    if !fill = Array.length !buf then begin
      let grown = Array.make (min cap (max 8 (2 * !fill))) t in
      Array.blit !buf 0 grown 0 !fill;
      buf := grown
    end;
    Array.unsafe_set !buf !fill t;
    incr fill;
    if !fill >= cap then flush ()
  in
  (push_one, flush)

let scan_comparators ctx (shape : Plan.group_shape) =
  let module Key = Xq_engine.Key in
  let comparators =
    Array.of_list
      (List.map
         (fun (k : Ast.group_key) ->
           match k.Ast.using with
           | None ->
             fun (a : Key.single) (b : Key.single) -> Key.equal_single a b
           | Some fname ->
             fun (a : Key.single) (b : Key.single) ->
               apply_equality ctx fname a.Key.orig b.Key.orig)
         shape.Plan.keys)
  in
  fun i a b -> comparators.(i) a b

(* --- the streamed scan ---------------------------------------------------- *)

type scan = {
  source : Xq_xml.Xml_stream.source;
  path : Xq_xml.Xml_stream.path;
  var : string;
  positional : string option;
}

(* Bounded-memory mode trades collector idle time for footprint: the
   default pacing (space_overhead 120) lets the major heap balloon to
   > 2x the live set while parse garbage pours in at wire speed, and the
   pool high-water never comes back down — the Gc-delta estimate would
   trip the budget on memory that is mostly reusable. Tighter pacing
   keeps the heap near the live set for the scan's duration. The pacing
   is process state, so overlapping scans (concurrent STREAM requests)
   share one tightening: the first to start saves the setting, the last
   to finish restores it.

   The byte-level scan allocates almost nothing for what it skips, so
   it leaves the collector little work of its own; pacing at 20 spends
   that headroom on a lower peak in the group finish and spill replay
   that run under the same tightening. *)
let tight_space_overhead = 20

let tight_gc = Mutex.create ()
let tight_scans = ref 0
let saved_overhead = ref 0

let with_tight_gc f =
  Mutex.protect tight_gc (fun () ->
      if !tight_scans = 0 then begin
        let g = Gc.get () in
        saved_overhead := g.Gc.space_overhead;
        Gc.set { g with Gc.space_overhead = tight_space_overhead }
      end;
      incr tight_scans);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect tight_gc (fun () ->
          decr tight_scans;
          if !tight_scans = 0 then
            Gc.set { (Gc.get ()) with Gc.space_overhead = !saved_overhead }))
    f

(* Parse-ahead bound in subtree-estimate bytes, whatever the batch size
   or watermark: without it an ungoverned scan would hold up to a whole
   default vector of captured subtrees (several MB) before handing any
   downstream. *)
let stream_ahead_bytes = 256 * 1024

(* The streamed scan's vectors: each captured subtree is charged against
   the governor from emission until its vector is handed to [down], so
   memory pressure sees parse-ahead data. A vector goes downstream once
   it holds [batch] subtrees or the next one would take its summed
   estimate past the cap — a governed scan's cap is the smaller of
   [stream_ahead_bytes] and a slice of its watermark, since parse-ahead
   alone would otherwise eat most of a small budget. Operators are
   byte-identical at any vector boundary. *)
let scan_vectors ~batch ~path source
    (down : bytes:int -> Node.t array -> unit) =
  let cap =
    min stream_ahead_bytes (max (Governor.spill_watermark () / 8) 65536)
  in
  let held = ref 0 in
  let release () =
    if !held > 0 then begin
      Governor.uncharge_bytes !held;
      held := 0
    end
  in
  let push_one, flush =
    rebatcher batch (fun vec ->
        down ~bytes:!held vec;
        release ())
  in
  let emit ~bytes n =
    if !held > 0 && !held + bytes > cap then flush ();
    if bytes > 0 then begin
      Governor.charge_bytes bytes;
      held := !held + bytes
    end;
    push_one n
  in
  Fun.protect ~finally:release (fun () ->
      Xq_xml.Xml_stream.scan ~path ~emit source;
      flush ())

(* A streamed run's leading FOR-EXPAND: the same operator, with the
   byte scan as its source instead of [source] evaluated over a resident
   tree. Each input tuple (UNIT's one seed) expands to the subtrees the
   projection path matches, pushed downstream batch-at-a-time while
   parsing proceeds. The scan runs at [close], so the downstream close
   (group finish, spill replay) stays under the same GC pacing and
   pressure callback as the scan that fed it. *)
let scan_sink ~batch (s : scan) (down : sink) : sink =
  let seeds = ref [] in
  let expand seed =
    let idx = ref 0 in
    let tuple n =
      incr idx;
      let t = Smap.add s.var [ Item.Node n ] seed in
      match s.positional with
      | Some p -> Smap.add p (Xseq.of_int !idx) t
      | None -> t
    in
    scan_vectors ~batch ~path:s.path s.source (fun ~bytes:_ nodes ->
        down.push (Array.map tuple nodes))
  in
  {
    push =
      (fun vec ->
        Governor.tick ();
        seeds := vec :: !seeds);
    close =
      (fun () ->
        (* Parse garbage — skipped content and already-consumed subtrees
           — dominates the Gc-delta memory estimate during a streamed
           scan, and nothing else collects it before the hard budget
           check (the group's flush callback only engages once enough
           live group state accumulates). Under pressure, collect it
           ourselves; the growth guard keeps the collector from
           thrashing while the estimate stays pressure-dominated.
           Operators that register their own callback (hash-group
           inserts) shadow this one for their scope and restore it
           after. *)
        let floor_words =
          let wm = Governor.spill_watermark () in
          let bytes =
            if wm = max_int then 32 lsl 20 else max (wm / 8) (1 lsl 18)
          in
          bytes / (Sys.word_size / 8)
        in
        let last_heap = ref (Gc.quick_stat ()).Gc.heap_words in
        let relieve () =
          (* first let the chain shed retained state (group partitions
             flush to spill files), then collect the parse garbage *)
          down.pressure ();
          let h = (Gc.quick_stat ()).Gc.heap_words in
          if h - !last_heap >= floor_words then begin
            Gc.full_major ();
            last_heap := (Gc.quick_stat ()).Gc.heap_words
          end
        in
        (* ungoverned scans keep the stock throughput-friendly pacing *)
        let pacing f =
          if Governor.spill_watermark () < max_int then with_tight_gc f
          else f ()
        in
        pacing (fun () ->
            Governor.with_pressure_callback relieve (fun () ->
                List.iter (Array.iter expand) (List.rev !seeds);
                down.close ())));
    pressure = down.pressure;
  }

(* Build the sink for one operator. [tally] counts comparator work (key
   equality tests, sort comparisons). [parallel] is the domain-pool
   degree; any degree produces byte-identical output. With [scan], the
   FOR-EXPAND fed by UNIT takes its items from the byte scan. *)
let op_sink ?tally ?scan ~batch ~parallel ctx (op : Plan.op) (down : sink) :
    sink =
  match op with
  | Plan.For_expand { input = Plan.Unit; _ } when scan <> None ->
    scan_sink ~batch (Option.get scan) down
  | Plan.Unit ->
    {
      push = (fun _ -> ());
      close =
        (fun () ->
          Governor.tick ();
          down.push [| Smap.empty |];
          down.close ());
      pressure = down.pressure;
    }
  | Plan.For_expand { var; positional; source; _ } ->
    let push_one, flush = rebatcher batch down.push in
    {
      push =
        (fun vec ->
          Governor.tick ();
          Array.iter
            (fun tuple ->
              let items = eval_in ctx tuple source in
              List.iteri
                (fun i item ->
                  let t = Smap.add var [ item ] tuple in
                  let t =
                    match positional with
                    | Some p -> Smap.add p (Xseq.of_int (i + 1)) t
                    | None -> t
                  in
                  push_one t)
                items)
            vec);
      close =
        (fun () ->
          flush ();
          down.close ());
      pressure = down.pressure;
    }
  | Plan.Let_bind { var; expr; _ } ->
    let par_ok = parallel > 1 && Xq_engine.Eval.parallel_safe ctx expr in
    let bind tuple = Smap.add var (eval_in ctx tuple expr) tuple in
    {
      push =
        (fun vec ->
          Governor.tick ();
          down.push
            (if par_ok then Par.map ~degree:parallel bind vec
             else Array.map bind vec));
      close = (fun () -> down.close ());
      pressure = down.pressure;
    }
  | Plan.Select { pred; _ } ->
    let par_ok = parallel > 1 && Xq_engine.Eval.parallel_safe ctx pred in
    let test tuple = Xseq.effective_boolean_value (eval_in ctx tuple pred) in
    {
      push =
        (fun vec ->
          Governor.tick ();
          let keep =
            if par_ok then Par.map ~degree:parallel test vec
            else Array.map test vec
          in
          let kept = Array.fold_left (fun n b -> if b then n + 1 else n) 0 keep in
          if kept = Array.length vec then down.push vec
          else if kept > 0 then begin
            let out = Array.make kept Smap.empty in
            let j = ref 0 in
            Array.iteri
              (fun i t ->
                if keep.(i) then begin
                  out.(!j) <- t;
                  incr j
                end)
              vec;
            down.push out
          end);
      close = (fun () -> down.close ());
      pressure = down.pressure;
    }
  | Plan.Number { var; _ } ->
    let n = ref 0 in
    {
      push =
        (fun vec ->
          Governor.tick ();
          down.push
            (Array.map
               (fun t ->
                 incr n;
                 Smap.add var (Xseq.of_int !n) t)
               vec));
      close = (fun () -> down.close ());
      pressure = down.pressure;
    }
  | Plan.Window_expand { window; _ } ->
    let push_one, flush = rebatcher batch down.push in
    {
      push =
        (fun vec ->
          Governor.tick ();
          Array.iter
            (fun tuple ->
              List.iter
                (fun bindings ->
                  push_one
                    (List.fold_left
                       (fun m (v, value) -> Smap.add v value m)
                       Smap.empty bindings))
                (Xq_engine.Eval.expand_window_bindings ctx window
                   (Smap.bindings tuple)))
            vec);
      close =
        (fun () ->
          flush ();
          down.close ());
      pressure = down.pressure;
    }
  | Plan.Sort { specs; _ } ->
    (* a barrier: order is only defined over the whole stream *)
    let acc = ref [] in
    {
      push =
        (fun vec ->
          acc := vec :: !acc);
      close =
        (fun () ->
          Governor.tick ();
          let input = List.concat_map Array.to_list (List.rev !acc) in
          acc := [];
          let push_one, flush = rebatcher batch down.push in
          List.iter push_one (sort_tuples ?tally ~parallel ctx specs input);
          flush ();
          down.close ());
      pressure = down.pressure;
    }
  | Plan.Hash_group _ | Plan.Sort_group _ | Plan.Scan_group _ ->
    let shape =
      match op with
      | Plan.Hash_group s | Plan.Scan_group s -> s
      | Plan.Sort_group { shape; _ } -> shape
      | _ -> assert false
    in
    let mode =
      match op with
      | Plan.Hash_group _ -> `Hash
      | Plan.Sort_group { sorted_output; _ } -> `Sort sorted_output
      | _ -> `Scan (scan_comparators ctx shape)
    in
    (* EXPLAIN-fed presizing: a previous run of a structurally identical
       grouping reported its group count; start the hash tables there.
       Skipped at batch size 1 (the baseline mode measures unsized
       builds); the count is re-reported after every finish. *)
    let signature = Plan.op_line op in
    let presize =
      if batch > 1 then Optimizer.estimated_groups ~signature else None
    in
    let detach = Xq_engine.Context.detached ctx in
    if shape.Plan.aggs <> [] then begin
      (* eager aggregation: fold tuples into per-group accumulators at
         feed time instead of materializing member lists *)
      let nslots = List.length shape.Plan.nests in
      let nests = Array.of_list shape.Plan.nests in
      let agg_codec : agg_row Xq_engine.Group.codec =
        {
          Xq_engine.Group.enc =
            (fun _reg buf r ->
              Binio.put_varint buf (Array.length r.ar_accs);
              Array.iter (fun a -> Acc.encode buf a) r.ar_accs);
          dec =
            (fun _reg rd ->
              let n = Binio.get_varint rd in
              if n <> nslots then
                raise
                  (Binio.Corrupt
                     (Printf.sprintf "accumulator arity %d, expected %d" n
                        nslots));
              { ar_keys = []; ar_accs = Array.init nslots (fun _ -> Acc.decode rd) });
        }
      in
      let row_cost r =
        Array.fold_left (fun c a -> c + Acc.charged_bytes a) 0 r.ar_accs
      in
      (* a slot only [count] reads skips atomization and the other folds *)
      let steps =
        Array.of_list
          (List.map
             (function
               | _, [ Acc.Count ] -> Acc.step_count
               | _ -> Acc.step)
             shape.Plan.aggs)
      in
      let make_row tuple =
        let keys = shape_keys_of ctx shape tuple in
        let accs = Array.init nslots (fun _ -> Acc.create ()) in
        Array.iteri
          (fun i (n : Ast.nest_spec) ->
            match eval_in ctx tuple n.Ast.nest_expr with
            | value -> steps.(i) accs.(i) value
            | exception Xerror.Error (code, msg)
              when not (Xerror.is_resource code) ->
              (* delivered later, in the materializing path's order *)
              Acc.poison_nest accs.(i) code msg)
          nests;
        { ar_keys = keys; ar_accs = accs }
      in
      let merge_rows a b =
        Array.iteri (fun i acc -> ignore (Acc.merge acc b.ar_accs.(i))) a.ar_accs;
        a
      in
      let par_rows =
        parallel > 1
        && shape_parallel_keys ctx shape
        && List.for_all
             (fun (n : Ast.nest_spec) ->
               Xq_engine.Eval.parallel_safe ctx n.Ast.nest_expr)
             shape.Plan.nests
      in
      let bld =
        Xq_engine.Group.builder ?tally ?presize ~spill:agg_codec ~cost:row_cost
          ~reduce:merge_rows ~parallel
          ~parallel_keys:(parallel > 1) (* keys_of is a pure field read *)
          ~detach
          ~config:(Xq_engine.Context.config ctx) ~mode
          ~keys_of:(fun r -> r.ar_keys)
          ()
      in
      {
        push =
          (fun vec ->
            Governor.tick ();
            Xq_engine.Group.feed bld
              (if par_rows then Par.map ~degree:parallel make_row vec
               else Array.map make_row vec));
        close =
          (fun () ->
            let groups = Xq_engine.Group.finish bld in
            Optimizer.note_groups ~signature (List.length groups);
            let push_one, flush = rebatcher batch down.push in
            List.iter push_one (agg_output shape groups);
            flush ();
            down.close ());
        pressure =
          (fun () ->
            Xq_engine.Group.relieve bld;
            down.pressure ());
      }
    end
    else begin
      (* streamed scans feed detached subtrees; see [tuple_cost] *)
      let cost = if detach then Some tuple_cost else None in
      let bld =
        Xq_engine.Group.builder ?tally ?presize ~spill:tuple_codec ?cost
          ~parallel
          ~parallel_keys:(parallel > 1 && shape_parallel_keys ctx shape)
          ~detach
          ~config:(Xq_engine.Context.config ctx) ~mode
          ~keys_of:(shape_keys_of ctx shape)
          ()
      in
      {
        push =
          (fun vec ->
            Xq_engine.Group.feed bld vec);
        close =
          (fun () ->
            let groups = Xq_engine.Group.finish bld in
            Optimizer.note_groups ~signature (List.length groups);
            let push_one, flush = rebatcher batch down.push in
            List.iter push_one (group_output ?tally ctx shape groups);
            flush ();
            down.close ());
        pressure =
          (fun () ->
            Xq_engine.Group.relieve bld;
            down.pressure ());
      }
    end

(* The pipeline is a linear chain; list its operators innermost first. *)
let linearize op =
  let rec go acc (op : Plan.op) =
    match Plan.input_of op with
    | None -> op :: acc
    | Some input -> go (op :: acc) input
  in
  go [] op

(* --- statistics ------------------------------------------------------------ *)

module Stats = struct
  type entry = {
    label : string;
    rows_in : int;
    rows_out : int;
    groups_built : int option;
    cmp_calls : int;
    key_walks : int;
    spilled_bytes : int;
    spill_files : int;
    repartitions : int;
    dict_interns : int;
    dict_entries : int;
    batches : int;
    batch : int;
    par : int;
    elapsed_ms : float;
  }

  (* Innermost operator first, the return clause last — execution order. *)
  type t = entry list
end

(* Spill counters of the installed governor. All zero when ungoverned,
   so the fields stay silent in EXPLAIN ANALYZE output. *)
let spill_now () =
  match Governor.current () with
  | None -> (0, 0, 0)
  | Some g ->
    let s = Governor.stats g in
    ( s.Governor.s_spilled_bytes,
      s.Governor.s_spill_files,
      s.Governor.s_repartitions )

let op_label (op : Plan.op) =
  match op with
  | Plan.Unit -> "UNIT"
  | Plan.For_expand { var; _ } -> "FOR-EXPAND $" ^ var
  | Plan.Let_bind { var; _ } -> "LET-BIND $" ^ var
  | Plan.Select _ -> "SELECT"
  | Plan.Number { var; _ } -> "NUMBER $" ^ var
  | Plan.Window_expand { window; _ } -> "WINDOW $" ^ window.Ast.w_var
  | Plan.Sort _ -> "SORT"
  | Plan.Hash_group _ -> "HASH-GROUP"
  | Plan.Scan_group _ -> "SCAN-GROUP"
  | Plan.Sort_group _ -> "SORT-GROUP"

let is_grouping = function
  | Plan.Hash_group _ | Plan.Scan_group _ | Plan.Sort_group _ -> true
  | Plan.Unit | Plan.For_expand _ | Plan.Let_bind _ | Plan.Select _
  | Plan.Number _ | Plan.Window_expand _ | Plan.Sort _ ->
    false

(* Which operators can actually use the pool (the [par=] annotation). *)
let op_parallelizable ctx = function
  | Plan.Sort _ -> true
  | Plan.Let_bind { expr; _ } -> Xq_engine.Eval.parallel_safe ctx expr
  | Plan.Select { pred; _ } -> Xq_engine.Eval.parallel_safe ctx pred
  | op -> is_grouping op

(* Monotonic figures a meter brackets each call with: wall time (ns), key
   walks, dictionary interns, spilled bytes, spill files, repartitions. *)
let figures () =
  let sb, sf, rp = spill_now () in
  [|
    Clock.now_ns ();
    Xq_engine.Key.walk_count ();
    Xq_engine.Key.intern_count ();
    sb;
    sf;
    rp;
  |]

let zero_figures () = Array.make 6 0

(* Counters of one sink in an instrumented chain. [incl] sums each
   figure over the sink's push/close/pressure calls, so it includes the
   operators downstream (they run inside those calls); a stats entry
   subtracts the downstream meter's [incl] to get the operator's own
   share. *)
type meter = {
  mutable rows : int;
  mutable vectors : int;
  tally : int ref;
  incl : int array;
}

let metered m (s : sink) : sink =
  let measure f x =
    let before = figures () in
    f x;
    Array.iteri
      (fun i now -> m.incl.(i) <- m.incl.(i) + now - before.(i))
      (figures ())
  in
  {
    push =
      (fun vec ->
        m.rows <- m.rows + Array.length vec;
        m.vectors <- m.vectors + 1;
        measure s.push vec);
    close = measure s.close;
    pressure = measure s.pressure;
  }

(* The one chain builder: [ops] innermost first, each operator's sink
   feeding the next and the last feeding [final]. With [meter], every
   sink ([final] included) is wrapped in a fresh meter, returned in
   chain order; without, the chain is the bare sinks. *)
let build_chain ?scan ~meter ~batch ~parallel ctx ops final =
  let with_meter make =
    if meter then begin
      let m = { rows = 0; vectors = 0; tally = ref 0; incl = zero_figures () } in
      (metered m (make (Some m.tally)), [ m ])
    end
    else (make None, [])
  in
  List.fold_right
    (fun op (down, meters) ->
      let s, m =
        with_meter (fun tally ->
            op_sink ?tally ?scan ~batch ~parallel ctx op down)
      in
      (s, m @ meters))
    ops
    (with_meter (fun _ -> final))

(* One entry per operator plus RETURN, from the meters of a finished
   chain: rows out are the downstream sink's rows in (RETURN's are the
   result items), self figures are own minus downstream inclusive. *)
let stats_of ~batch ~parallel ctx ops meters ~result_items =
  let entry ~label ~grouping ~par ~rows_out m down =
    let self i = m.incl.(i) - down.(i) in
    {
      Stats.label;
      rows_in = m.rows;
      rows_out;
      groups_built = (if grouping then Some rows_out else None);
      cmp_calls = !(m.tally);
      key_walks = self 1;
      dict_interns = self 2;
      spilled_bytes = self 3;
      spill_files = self 4;
      repartitions = self 5;
      dict_entries = Xq_engine.Key.dict_size ();
      batches = m.vectors;
      batch;
      par;
      elapsed_ms = float_of_int (self 0) /. 1e6;
    }
  in
  let rec go ops meters =
    match (ops, meters) with
    | op :: ops, m :: (down :: _ as rest) ->
      entry ~label:(op_label op) ~grouping:(is_grouping op)
        ~par:(if op_parallelizable ctx op then parallel else 1)
        ~rows_out:down.rows m down.incl
      :: go ops rest
    | [], [ m ] ->
      [
        entry ~label:"RETURN" ~grouping:false ~par:1 ~rows_out:result_items m
          (zero_figures ());
      ]
    | _ -> assert false (* one meter per operator, plus RETURN's *)
  in
  go ops meters

(* The chain's last sink: number the tuples ([return at]) and evaluate
   the return clause; [result ()] concatenates what it collected. *)
let return_sink ctx (plan : Plan.plan) =
  let rev_out = ref [] in
  let counter = ref 0 in
  let final =
    {
      push =
        (fun vec ->
          Array.iter
            (fun t ->
              let t =
                match plan.Plan.return_at with
                | None -> t
                | Some v ->
                  incr counter;
                  Smap.add v (Xseq.of_int !counter) t
              in
              rev_out := eval_in ctx t plan.Plan.return_expr :: !rev_out)
            vec);
      close = (fun () -> ());
      pressure = (fun () -> ());
    }
  in
  (final, fun () -> Xseq.concat (List.rev !rev_out))

let no_streamed_binding () =
  invalid_arg "Exec: plan does not start with the streamed binding"

(* A scan's subtrees are detached: the context says so once, and every
   nested FLWOR chain and pool task of the run inherits it. *)
let run ?stats ?scan ctx (plan : Plan.plan) =
  let { Config.batch; parallel; _ } = Xq_engine.Context.config ctx in
  let ops = linearize plan.Plan.pipeline in
  let ctx =
    match (scan, ops) with
    | None, _ -> ctx
    | Some s, Plan.Unit :: Plan.For_expand { var; _ } :: _ when var = s.var ->
      Xq_engine.Context.with_detached ctx true
    | Some _, _ -> no_streamed_binding ()
  in
  let final, result = return_sink ctx plan in
  let chain, meters =
    build_chain ?scan ~meter:(stats <> None) ~batch ~parallel ctx ops final
  in
  chain.close ();
  let result = result () in
  (match stats with
   | Some r ->
     r :=
       stats_of ~batch ~parallel ctx ops meters
         ~result_items:(List.length result)
   | None -> ());
  result

(* --- queries --------------------------------------------------------------- *)

(* The one place a FLWOR becomes an executable plan: compile, pick the
   grouping operator, push aggregates, optionally optimize. *)
let plan_flwor ?(optimize = false) ~(config : Config.t) f =
  let plan = Optimizer.apply_strategy config.strategy (Plan.of_flwor f) in
  let plan =
    if config.agg_pushdown then Optimizer.push_aggregates plan else plan
  in
  if optimize then Optimizer.optimize plan else plan

let plan_in ?optimize ctx f =
  plan_flwor ?optimize ~config:(Xq_engine.Context.config ctx) f

(* Dynamic context for a query: its configuration (resolved here, once),
   prolog, the fn:doc/fn:collection registry, the FLWOR runner, focus on
   the context node, then the prolog's global variables (evaluated in
   order — they may hold FLWORs themselves, so the runner goes in
   first). *)
let query_context ?config ?optimize ?strategy ?parallel ?(documents = [])
    ?(collections = []) ?default_collection ~context_node (q : Ast.query) =
  let module C = Xq_engine.Context in
  let ctx =
    C.with_config (C.of_prolog q.Ast.prolog)
      (Config.resolve ?base:config ?strategy ?parallel ())
  in
  let ctx =
    List.fold_left (fun ctx (uri, d) -> C.add_document ctx ~uri d) ctx documents
  in
  let ctx =
    List.fold_left
      (fun ctx (name, nodes) -> C.add_collection ctx ~name nodes)
      ctx collections
  in
  let ctx =
    match default_collection with
    | Some nodes -> C.set_default_collection ctx nodes
    | None -> ctx
  in
  let ctx =
    C.with_flwor_runner ctx (fun ctx f -> run ctx (plan_in ?optimize ctx f))
  in
  let ctx =
    C.with_focus ctx { C.item = Item.Node context_node; position = 1; size = 1 }
  in
  List.fold_left
    (fun ctx (v, e) -> C.bind_global ctx v (Xq_engine.Eval.eval ctx e))
    ctx q.Ast.prolog.Ast.global_vars

let eval_query ?(check = true) ?config ?optimize ?strategy ?parallel
    ?documents ?collections ?default_collection ?scan ~context_node
    (q : Ast.query) =
  if check then Static.check_query q;
  let ctx =
    query_context ?config ?optimize ?strategy ?parallel ?documents
      ?collections ?default_collection ~context_node q
  in
  match (q.Ast.body, scan) with
  | _, None -> Xq_engine.Eval.eval ctx q.Ast.body
  | Ast.Flwor f, Some _ -> run ?scan ctx (plan_in ?optimize ctx f)
  | _, Some _ -> no_streamed_binding ()

let run_string ?config ?optimize ?strategy ?parallel ~context_node src =
  eval_query ?config ?optimize ?strategy ?parallel ~context_node
    (Parser.parse_query src)

type analyzed =
  | Analyzed_plan of Plan.plan * Xseq.t * Stats.t
  | Analyzed_expr of Xseq.t

let analyze_query ?config ?optimize ?strategy ?parallel ?scan ~context_node
    (q : Ast.query) =
  let ctx =
    query_context ?config ?optimize ?strategy ?parallel ~context_node q
  in
  let rec go ?scan (e : Ast.expr) =
    match e with
    | Ast.Flwor f ->
      let plan = plan_in ?optimize ctx f in
      let stats = ref [] in
      let result = run ~stats ?scan ctx plan in
      [ Analyzed_plan (plan, result, !stats) ]
    | _ when scan <> None -> no_streamed_binding ()
    | Ast.Sequence es -> List.concat_map (fun e -> go e) es
    | other -> [ Analyzed_expr (Xq_engine.Eval.eval ctx other) ]
  in
  go ?scan q.Ast.body

(* Kept for the perfbench harness; everything else calls [eval_query ~scan]. *)
let eval_query_stream ?check ?config ?optimize ?strategy ?parallel ~source
    ~path ~var ~positional q =
  eval_query ?check ?config ?optimize ?strategy ?parallel
    ~scan:{ source; path; var; positional } ~context_node:(Node.document ()) q

