(* The layered benchmark's measuring program.

     xqbench gen    --workload W --seed S [--smoke]
     xqbench expect --workload W --seed S [--smoke]
     xqbench run    --workload W --seed S --seconds T --trace 0|1
                    --server XQ_SERVER_EXE --expected DIR [--rev REV] [--smoke]

   [gen] writes the workload's generated documents into the current
   directory; [expect] computes the digest every operation's output
   must have, through a second execution path; [run] sets up, measures
   a closed loop for T seconds and prints the metrics, the last line
   being one JSON object. [run] spawns [gen] and [expect] as child
   processes, so input generation never sets the measured process's
   peak RSS. All timings use the monotonic clock. *)

open Xq_xdm
module Pipeline = Xq_pipeline.Pipeline
module Governor = Xq_governor.Governor
module Projection = Xq_rewrite.Projection
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer
module Key = Xq_engine.Key
module Group = Xq_engine.Group
module Server = Xq_server.Server_core
module Protocol = Xq_server.Protocol
module Client = Xq_client.Client
module W = Workloads

let default_seed = 42
let socket = "xq.sock"
let now_ms () = Int64.to_float (Trace.now_ns ()) /. 1e6
let digest s = Digest.to_hex (Digest.string s)
let file_bytes path = (Unix.stat path).Unix.st_size

(* nearest-rank percentile; 0 for no samples (a layer off the path) *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median = percentile 0.5

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some l -> (
          try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
          with Scanf.Scan_failure _ | End_of_file -> find ())
      in
      find ())

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* --- inputs and expected outputs ---------------------------------------- *)

let gen (w : W.t) size seed =
  List.iter
    (fun f ->
      let xml = Xq_xml.Serialize.node (W.generate ~lineitems:w.lineitems size seed f) in
      Out_channel.with_open_bin (W.file_name f) (fun oc ->
          output_string oc xml;
          output_char oc '\n'))
    w.files

let header (w : W.t) size seed =
  Printf.sprintf "# seed=%d lineitems=%d sales=%d books=%d" seed w.lineitems
    size.W.sales size.W.books

(* The second execution path: a streamed op is checked materialized, a
   direct-evaluator op through the plan algebra's hash grouping. *)
let reference_output (w : W.t) (op : W.op) =
  let path = W.file_name op.file in
  let hash = { Pipeline.default_knobs with k_strategy = Some Optimizer.Hash } in
  if w.resident then
    let load_doc () = Xq_xml.Xml_parse.parse_file path in
    (Pipeline.run ~knobs:hash ~source:op.source ~load_doc ()).r_output
  else
    let knobs =
      match Projection.analyze (Pipeline.query (Pipeline.compile op.source)) with
      | Projection.Streamable _ ->
        { Pipeline.default_knobs with k_stream = Some false }
      | Projection.Materialize _ -> hash
    in
    (Pipeline.run ~knobs ~source:op.source ~stream_source:(`File path) ())
      .r_output

let expect (w : W.t) size seed =
  Out_channel.with_open_text "expected.txt" (fun oc ->
      output_string oc (header w size seed ^ "\n");
      List.iter
        (fun (op : W.op) ->
          Printf.fprintf oc "%s %s\n" op.label (digest (reference_output w op)))
        w.ops)

let read_expected path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match String.split_on_char '\n' text with
    | hdr :: rows ->
      let digests =
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ label; d ] -> Some (label, d)
            | _ -> None)
          rows
      in
      Some (hdr, digests)
    | [] -> None)

(* --- child processes ------------------------------------------------------ *)

let spawn prog args =
  (* children write nothing to our stdout: its last line is the result *)
  Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin
    Unix.stderr Unix.stderr

let run_child prog args =
  match Unix.waitpid [] (spawn prog args) with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args))

let daemon : int option ref = ref None

let stop_daemon () =
  match !daemon with
  | None -> ()
  | Some pid ->
    daemon := None;
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)

let ping () =
  let c = Client.create ~attempts:1 ~socket () in
  let r = Client.request c Protocol.Ping in
  Client.close c;
  Result.is_ok r

(* [xq-server serve] with its default config, answering on [socket]
   (relative, so the path length never depends on the checkout). *)
let start_daemon server_exe =
  stop_daemon ();
  let pid = spawn server_exe [ "serve"; "--socket"; socket ] in
  daemon := Some pid;
  let give_up = now_ms () +. 20_000. in
  while not (ping ()) do
    if now_ms () > give_up then failwith "xq-server did not come up";
    Unix.sleepf 0.005
  done

(* --- one operation -------------------------------------------------------- *)

type outcome = { label : string; ms : float; ok : bool }

let run_request (op : W.op) =
  Protocol.Run
    {
      rq_source = op.source;
      rq_doc = Protocol.Doc_path (W.file_name op.file);
      rq_knobs = Pipeline.default_knobs;
      rq_indent = false;
    }

(* Report the first few failures on stderr; returns [false]. *)
let complaints = ref 0

let complain label why =
  incr complaints;
  if !complaints <= 5 then Printf.eprintf "xqbench: %s failed: %s\n%!" label why;
  false

(* A workload with a memory cap must take the external path on every
   operation, and none may trip (a trip raises, so it fails the op). *)
let must_spill (w : W.t) = w.knobs.Pipeline.k_max_mem_mb <> None

let spilled = function
  | Some s -> s.Governor.s_spilled_bytes > 0
  | None -> false

(* Exactly the call [xq run q.xq -i doc.xml] makes. An untimed
   compaction first clears the previous op's garbage, so no op pays
   for collecting another's. *)
let oneshot (w : W.t) expected (op : W.op) =
  Gc.compact ();
  let t0 = now_ms () in
  let r =
    try
      Ok
        (Pipeline.run ~knobs:w.knobs ~source:op.source
           ~stream_source:(`File (W.file_name op.file)) ())
    with e -> Error e
  in
  let ms = now_ms () -. t0 in
  let ok =
    match r with
    | Ok r when digest r.r_output <> List.assoc op.label expected ->
      complain op.label "output digest mismatch"
    | Ok r when must_spill w && not (spilled r.r_stats) ->
      complain op.label "did not spill"
    | Ok _ -> true
    | Error e -> complain op.label (Printexc.to_string e)
  in
  { label = op.label; ms; ok }

let request client expected (op : W.op) =
  let t0 = now_ms () in
  let r = Client.request client (run_request op) in
  let ms = now_ms () -. t0 in
  let ok =
    match r with
    | Ok payload when digest (strip_newline payload) <> List.assoc op.label expected ->
      complain op.label "output digest mismatch"
    | Ok _ -> true
    | Error f -> complain op.label (Client.failure_message f)
  in
  { label = op.label; ms; ok }

(* --- closed loops --------------------------------------------------------- *)

(* One client, whole rounds of the mix, until [seconds] have passed and
   at least [min_samples] operations are in (capped, so a run always
   ends). *)
let loop_oneshot w expected ~seconds ~min_samples =
  let t_start = now_ms () in
  let deadline = t_start +. (seconds *. 1000.) in
  let cap = t_start +. (seconds *. 4000.) in
  let out = ref [] and n = ref 0 in
  while (now_ms () < deadline || !n < min_samples) && now_ms () < cap do
    List.iter
      (fun op ->
        out := oneshot w expected op :: !out;
        incr n)
      w.W.ops
  done;
  (!out, (now_ms () -. t_start) /. 1000.)

(* Two client threads (the machine's core count), each with its own
   connection, rotating through the mix from staggered offsets until
   the deadline. *)
let loop_server (w : W.t) expected ~seconds =
  let clients = 2 in
  let ops = Array.of_list w.ops in
  let t_start = now_ms () in
  let deadline = t_start +. (seconds *. 1000.) in
  let results = Array.make clients [] in
  let worker i =
    let c = Client.create ~seed:(i + 1) ~socket () in
    let k = ref (i * Array.length ops / clients) and out = ref [] in
    while now_ms () < deadline do
      out := request c expected ops.(!k mod Array.length ops) :: !out;
      incr k
    done;
    results.(i) <- !out;
    Client.close c
  in
  List.iter Thread.join (List.init clients (Thread.create worker));
  (List.concat (Array.to_list results), (now_ms () -. t_start) /. 1000.)

let prime_server (w : W.t) expected =
  let c = Client.create ~socket () in
  let out = List.map (request c expected) w.ops in
  Client.close c;
  out

(* --- set-up ----------------------------------------------------------------- *)

type ctx = {
  w : W.t;
  size : W.size;
  seed : int;
  self : string;
  server_exe : string;
  expected_dir : string;
}

let common_args ctx =
  [ "--workload"; ctx.w.name; "--seed"; string_of_int ctx.seed ]
  @ if ctx.size = W.smoke then [ "--smoke" ] else []

let gen_files ctx = run_child ctx.self ("gen" :: common_args ctx)

(* Generation, file writes and, for the daemon, start-up plus one
   priming pass that fills the plan cache and the document store.
   Returns the priming pass's outcomes. *)
let setup ctx expected =
  stop_daemon ();
  gen_files ctx;
  if ctx.w.resident then begin
    start_daemon ctx.server_exe;
    prime_server ctx.w expected
  end
  else []

(* Committed digests serve the default seed; any other seed (or size)
   computes them once, before set-up is timed, through the second
   path. *)
let load_expected ctx =
  let committed = Filename.concat ctx.expected_dir (ctx.w.name ^ ".txt") in
  match read_expected committed with
  | Some (hdr, d) when hdr = header ctx.w ctx.size ctx.seed -> d
  | _ -> (
    gen_files ctx;
    run_child ctx.self ("expect" :: common_args ctx);
    match read_expected "expected.txt" with
    | Some (_, d) -> d
    | None -> failwith "expect wrote no digests")

(* --- reporting ---------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %16.6f %s\n" name v unit)
    metrics;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
              (json_number v) unit)
          metrics));
  print_newline ()

let failures outcomes = List.length (List.filter (fun o -> not o.ok) outcomes)
let ok_latencies outcomes = List.filter_map (fun o -> if o.ok then Some o.ms else None) outcomes

(* --- the untraced run: end-to-end metrics ------------------------------- *)

let run_untraced ctx ~seconds ~min_samples ~reps =
  let expected = load_expected ctx in
  let primed = ref [] in
  (* set up [reps] times and keep the last; report the median *)
  let setup_times =
    List.init reps (fun _ ->
        let t0 = now_ms () in
        primed := setup ctx expected;
        (now_ms () -. t0) /. 1000.)
  in
  let outcomes, elapsed, peak =
    if ctx.w.resident then begin
      let out, elapsed = loop_server ctx.w expected ~seconds in
      let pid = string_of_int (Option.get !daemon) in
      let peak = vm_hwm_mb pid in
      stop_daemon ();
      (out, elapsed, peak)
    end
    else begin
      (* one warm-up round, verified but not counted in the latencies *)
      primed := List.map (oneshot ctx.w expected) ctx.w.ops;
      let out, elapsed = loop_oneshot ctx.w expected ~seconds ~min_samples in
      (out, elapsed, vm_hwm_mb "self")
    end
  in
  let lat = ok_latencies outcomes in
  let attempted = List.length outcomes + List.length !primed in
  let failed = failures outcomes + failures !primed in
  let n = List.length lat in
  let p90 = percentile 0.9 lat in
  let beyond = List.length (List.filter (fun x -> x > p90) lat) in
  List.iter
    (fun (op : W.op) ->
      let own = ok_latencies (List.filter (fun o -> o.label = op.label) outcomes) in
      Printf.printf "op %-20s p50 %10.3f ms  n=%d\n" op.label (median own)
        (List.length own))
    ctx.w.ops;
  Printf.printf "samples %d (%d beyond p90) in %.2f s\n" n beyond elapsed;
  Printf.printf "%d failed of %d attempted\n" failed attempted;
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("throughput_qps", float n /. elapsed, "ops/s");
      ("latency_p50_ms", median lat, "ms");
      ("latency_p90_ms", p90, "ms");
      ("peak_rss_mb", peak, "MB");
      ("setup_s", median setup_times, "s");
      ("error_rate", float failed /. float attempted, "fraction");
    ];
  failed = 0

(* --- the traced run: per-layer metrics ---------------------------------- *)

(* The calls [Pipeline.run] makes for a one-shot op, each in its own
   span, under the same governor construction. *)
let traced_oneshot (w : W.t) (op : W.op) =
  let path = W.file_name op.file in
  let input = float (file_bytes path) in
  let knobs = w.knobs in
  let gov =
    Governor.of_limits ?timeout_ms:knobs.Pipeline.k_timeout_ms
      ?max_groups:knobs.k_max_groups ?max_mem_mb:knobs.k_max_mem_mb
      ?spill_watermark_bytes:
        (Option.map (fun mb -> mb * 1024 * 1024) knobs.k_spill_at_mb)
      ()
  in
  let body () =
    let c = Trace.with_span "lang.compile" (fun () -> Pipeline.compile op.source) in
    let verdict =
      Trace.with_span "rewrite.projection" (fun () ->
          Projection.analyze (Pipeline.query c))
    in
    let result =
      match verdict with
      | Projection.Streamable { path = ppath; var; positional } ->
        Option.iter Governor.rebaseline gov;
        let strategy =
          match knobs.k_strategy with
          | Some s -> s
          | None -> Optimizer.strategy_from_env ()
        in
        Trace.with_span "algebra.stream_exec" (fun () ->
            Exec.eval_query_stream ~check:false ~strategy ~source:(`File path)
              ~path:ppath ~var ~positional (Pipeline.query c))
      | Projection.Materialize _ ->
        let doc =
          Trace.with_span
            ~attrs:(fun _ -> [ ("bytes", input) ])
            "xml.parse"
            (fun () -> Xq_xml.Xml_parse.parse_file path)
        in
        Option.iter Governor.rebaseline gov;
        Trace.with_span "engine.eval" (fun () -> Pipeline.eval ~doc c)
    in
    Trace.with_span
      ~attrs:(fun s -> [ ("bytes", float (String.length s)) ])
      "xml.serialize"
      (fun () -> Pipeline.render result)
  in
  let walks0 = Key.walk_count () in
  Trace.with_span
    ~attrs:(fun (_, stats) ->
      let counts =
        match stats with
        | None -> []
        | Some s ->
          Governor.
            [
              ("spilled_bytes", float s.s_spilled_bytes);
              ("spill_files", float s.s_spill_files);
              ("repartitions", float s.s_repartitions);
              ("peak_mem_bytes", float s.s_peak_mem_bytes);
            ]
      in
      ("input_bytes", input)
      :: ("walks", float (Key.walk_count () - walks0))
      :: counts)
    "pipeline.run"
    (fun () ->
      match gov with
      | None -> (body (), None)
      | Some g ->
        Governor.with_governor g (fun () ->
            let out = body () in
            (out, Some (Governor.stats g))))

(* The daemon's per-request path over a resident document and a cached
   plan: a scoped unlimited governor, direct evaluation, rendering. *)
let traced_resident docs plans (op : W.op) =
  let doc = List.assoc op.file docs and c = Hashtbl.find plans op.label in
  let walks0 = Key.walk_count () in
  Trace.with_span
    ~attrs:(fun _ -> [ ("walks", float (Key.walk_count () - walks0)) ])
    "pipeline.run"
    (fun () ->
      Governor.with_scoped_governor (Governor.create ()) (fun () ->
          let result = Trace.with_span "engine.eval" (fun () -> Pipeline.eval ~doc c) in
          Trace.with_span
            ~attrs:(fun s -> [ ("bytes", float (String.length s)) ])
            "xml.serialize"
            (fun () -> Pipeline.render result)))

(* Grouping keys of the op, as the group operator sees them: one key
   list per bound element. *)
let key_lists doc (item, keys) =
  let child n name =
    List.filter_map
      (fun c ->
        if Node.is_element c && Node.local_name c = name then Some (Item.Node c)
        else None)
      (Node.children n)
  in
  Node.descendants doc
  |> List.filter (fun n -> Node.is_element n && Node.local_name n = item)
  |> List.map (fun n -> List.map (child n) keys)
  |> Array.of_list

let key_probes tuples =
  let n = float (Array.length tuples) in
  let count _ = [ ("tuples", n) ] in
  Trace.with_span ~attrs:count "engine.key_canon" (fun () ->
      Array.iter (fun ks -> ignore (Key.canonicalize ks)) tuples);
  Trace.with_span ~attrs:count "engine.group_feed" (fun () ->
      let b = Group.builder ~mode:`Hash ~keys_of:Fun.id () in
      Group.feed b tuples;
      ignore (Group.finish b))

let scan_probe (op : W.op) =
  let path = W.file_name op.file in
  match Projection.analyze (Pipeline.query (Pipeline.compile op.source)) with
  | Projection.Materialize _ -> ()
  | Projection.Streamable { path = ppath; _ } ->
    Trace.with_span
      ~attrs:(fun _ -> [ ("bytes", float (file_bytes path)) ])
      "xml.scan"
      (fun () ->
        Xq_xml.Xml_stream.scan ~path:ppath ~emit:(fun ~bytes:_ _ -> ()) (`File path))

let stats_snapshot () =
  let c = Client.create ~socket () in
  let r = Client.request c Protocol.Stats in
  Client.close c;
  match r with
  | Error f -> failwith ("STATS: " ^ Client.failure_message f)
  | Ok text ->
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' text)

let run_traced ctx ~seconds =
  let w = ctx.w in
  let expected = load_expected ctx in
  let primed = setup ctx expected in
  let stats0 = if w.resident then stats_snapshot () else [] in
  (* the daemon's resident documents (each parse timed once) and plans *)
  let load_docs () =
    List.map
      (fun f ->
        let path = W.file_name f in
        Trace.new_op "resident-load";
        ( f,
          Trace.with_span
            ~attrs:(fun _ -> [ ("bytes", float (file_bytes path)) ])
            "xml.parse"
            (fun () -> Xq_xml.Xml_parse.parse_file path) ))
      w.files
  in
  let docs = if w.resident then load_docs () else [] in
  (* an in-process server with the daemon's default config, primed *)
  let plans = Hashtbl.create 8 and local = Server.create () in
  if w.resident then
    List.iter
      (fun (op : W.op) ->
        Hashtbl.replace plans op.label (Pipeline.compile op.source);
        ignore (Server.handle local (run_request op)))
      w.ops;
  let client = Client.create ~socket () in
  let traced = ref [] and untraced = ref [] in
  let record (op : W.op) ok = traced := { label = op.label; ms = 0.; ok } :: !traced in
  let matches (op : W.op) output = digest output = List.assoc op.label expected in
  let traced_op (op : W.op) =
    (* each traced op follows its untraced twin, so the tracing overhead
       compares ops that ran under the same machine load *)
    untraced :=
      (if w.resident then request client expected op else oneshot w expected op)
      :: !untraced;
    Trace.new_op op.label;
    if w.resident then begin
      (match
         Trace.with_span "client.request" (fun () -> Client.request client (run_request op))
       with
      | Ok p -> record op (matches op (strip_newline p))
      | Error f -> record op (complain op.label (Client.failure_message f)));
      Trace.new_op op.label;
      let walks0 = Key.walk_count () in
      (match
         Trace.with_span
           ~attrs:(fun _ -> [ ("walks", float (Key.walk_count () - walks0)) ])
           "server.handle"
           (fun () -> Server.handle local (run_request op))
       with
      | Protocol.Payload p -> record op (matches op (strip_newline p))
      | Protocol.Error { message; _ } -> record op (complain op.label message));
      Trace.new_op op.label;
      record op (matches op (traced_resident docs plans op))
    end
    else begin
      (* the same heap state the untraced op starts from *)
      Gc.compact ();
      (match traced_oneshot w op with
      | out, stats -> record op (matches op out && ((not (must_spill w)) || spilled stats))
      | exception e -> record op (complain op.label (Printexc.to_string e)));
      Trace.new_op op.label;
      scan_probe op
    end
  in
  (* whole rounds, at least one *)
  let t_end = now_ms () +. (seconds *. 1000.) in
  List.iter traced_op w.ops;
  while now_ms () < t_end do
    List.iter traced_op w.ops
  done;
  (* the key-layer probes come last, so the one-shot ops above never
     run beside a resident copy of their document *)
  let docs =
    if w.resident then docs
    else List.map (fun f -> (f, Xq_xml.Xml_parse.parse_file (W.file_name f))) w.files
  in
  List.iter
    (fun (op : W.op) ->
      Option.iter
        (fun k ->
          let tuples = key_lists (List.assoc op.file docs) k in
          for _ = 1 to 5 do
            Trace.new_op op.label;
            key_probes tuples
          done)
        op.keys)
    w.ops;
  let stats1 = if w.resident then stats_snapshot () else [] in
  let client_retries = (Client.stats client).Client.s_retries in
  Client.close client;
  stop_daemon ();
  Trace.write (Printf.sprintf "trace-%s.jsonl" w.name);
  (* --- per-layer metrics from the spans --- *)
  let med name = median (List.map Trace.ms (Trace.named name)) in
  let med_attr name key =
    median (List.filter_map (fun s -> Trace.attr s key) (Trace.named name))
  in
  let rate name =
    median
      (List.filter_map
         (fun s ->
           Option.map (fun b -> b /. 1e6 /. (Trace.ms s /. 1000.)) (Trace.attr s "bytes"))
         (Trace.named name))
  in
  let per_tuple_ns name =
    median
      (List.filter_map
         (fun s -> Option.map (fun n -> Trace.ms s *. 1e6 /. n) (Trace.attr s "tuples"))
         (Trace.named name))
  in
  let by_label name label =
    median
      (List.filter_map
         (fun s -> if s.Trace.label = label then Some (Trace.ms s) else None)
         (Trace.named name))
  in
  let labels = List.map (fun (op : W.op) -> op.label) w.ops in
  let exec_self =
    median
      (List.filter_map
         (fun l ->
           let e = by_label "algebra.stream_exec" l in
           if e > 0. then Some (e -. by_label "xml.scan" l) else None)
         labels)
  in
  let wire =
    median
      (List.map
         (fun s -> Trace.ms s -. by_label "server.handle" s.Trace.label)
         (Trace.named "client.request"))
  in
  let runs = Trace.named "pipeline.run" in
  let spill_ratio =
    median
      (List.filter_map
         (fun s ->
           match (Trace.attr s "spilled_bytes", Trace.attr s "input_bytes") with
           | Some b, Some i -> Some (b /. i)
           | _ -> None)
         runs)
  in
  let delta k = float (List.assoc k stats1 - List.assoc k stats0) in
  let ratio hits misses =
    if w.resident then
      let h = delta hits and m = delta misses in
      Printf.printf "%s: %.0f of %.0f lookups\n" hits h (h +. m);
      if h +. m > 0. then h /. (h +. m) else 0.
    else 0.
  in
  let traced_p50 =
    median
      (List.map Trace.ms
         (Trace.named (if w.resident then "client.request" else "pipeline.run")))
  in
  let untraced_p50 = median (ok_latencies !untraced) in
  Printf.printf "tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms\n"
    traced_p50 untraced_p50;
  let all = primed @ !untraced @ !traced in
  let failed = failures all in
  print_result ~correct:(failed = 0) ~attempted:(List.length all) ~failed
    [
      ("xml.scan_ms", med "xml.scan", "ms");
      ("xml.scan_mb_s", rate "xml.scan", "MB/s");
      ("xml.parse_ms", med "xml.parse", "ms");
      ("xml.parse_mb_s", rate "xml.parse", "MB/s");
      ("xml.serialize_ms", med "xml.serialize", "ms");
      ("xml.serialize_mb_s", rate "xml.serialize", "MB/s");
      ("lang.compile_ms", med "lang.compile", "ms");
      ("rewrite.projection_ms", med "rewrite.projection", "ms");
      ("engine.eval_ms", med "engine.eval", "ms");
      ("engine.key_canon_ns", per_tuple_ns "engine.key_canon", "ns");
      ("engine.group_feed_ns", per_tuple_ns "engine.group_feed", "ns");
      ( "engine.key_walks",
        median
          (List.filter_map
             (fun s -> Trace.attr s "walks")
             (Trace.named (if w.resident then "server.handle" else "pipeline.run"))),
        "count" );
      ( "engine.dict_entries",
        (if w.resident then float (List.assoc "dict_entries" stats1)
         else float (Key.dict_size ())),
        "count" );
      ("algebra.stream_exec_ms", med "algebra.stream_exec", "ms");
      ("algebra.exec_self_ms", exec_self, "ms");
      ("spill.bytes_per_input_byte", spill_ratio, "B/B");
      ("spill.files", med_attr "pipeline.run" "spill_files", "count");
      ("spill.repartitions", med_attr "pipeline.run" "repartitions", "count");
      ( "governor.peak_est_mb",
        med_attr "pipeline.run" "peak_mem_bytes" /. 1048576.,
        "MB" );
      ("pipeline.run_ms", med "pipeline.run", "ms");
      ("pipeline.other_ms", median (List.map Trace.self_ms runs), "ms");
      ("server.handle_ms", med "server.handle", "ms");
      ("server.wire_ms", wire, "ms");
      ("server.plan_hit_ratio", ratio "plan_hits" "plan_misses", "ratio");
      ("server.doc_hit_ratio", ratio "doc_hits" "doc_misses", "ratio");
      ( "server.admission_rejects",
        (if w.resident then delta "admission_rejects" else 0.),
        "count" );
      ("client.retries", float client_retries, "count");
      ("trace.overhead_ms", traced_p50 -. untraced_p50, "ms");
    ];
  failed = 0

(* --- command line ------------------------------------------------------- *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and smoke = ref false and server = ref ""
  and expected_dir = ref "." and rev = ref "unknown" in
  let spec =
    Arg.
      [
        ("--workload", Set_string workload, "NAME cli-oneshot|server-resident|bounded-mem");
        ("--seed", Set_int seed, "N workload seed");
        ("--seconds", Set_float seconds, "T measured seconds");
        ("--trace", Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
        ("--smoke", Set smoke, " tiny inputs, a few operations");
        ("--server", Set_string server, "EXE the xq-server executable");
        ("--expected", Set_string expected_dir, "DIR committed digests");
        ("--rev", Set_string rev, "REV source revision, recorded in the output");
      ]
  in
  let usage = "xqbench gen|expect|run [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage;
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let size = if !smoke then W.smoke else W.full in
  let ctx =
    {
      w;
      size;
      seed = !seed;
      self = Sys.executable_name;
      server_exe = !server;
      expected_dir = !expected_dir;
    }
  in
  match cmd with
  | "gen" -> gen w size !seed
  | "expect" -> expect w size !seed
  | "run" ->
    at_exit stop_daemon;
    Printf.printf
      "# workload=%s seed=%d rev=%s nproc=%d ocaml=%s batch=%d lineitems=%d \
       sales=%d books=%d trace=%d\n"
      w.name !seed !rev
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (Xq_par.Batch.size ()) w.lineitems size.sales
      size.books !trace;
    let ok =
      if !trace = 1 then run_traced ctx ~seconds:!seconds
      else
        run_untraced ctx ~seconds:!seconds
          ~min_samples:(if !smoke then 1 else 110)
          ~reps:(if !smoke then 1 else 7)
    in
    exit (if ok then 0 else 1)
  | _ ->
    prerr_endline usage;
    exit 2
