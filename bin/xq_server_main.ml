(* xq-server — resident query daemon, its supervisor and its client.

     xq-server serve --socket /tmp/xq.sock [--plan-cache 64]
                     [--doc-cache-mb 256] [--max-concurrent 8]
                     [--admit-at 1024] [--drain-timeout 5000]
                     [--max-request-bytes N] [--max-connections 64]
                     [--retry-after-ms 200]
                     [--supervise [--max-restarts 5]
                      [--restart-window 30] [--backoff-ms 100]]
                     [--chaos-crash]
     xq-server once                  # protocol loop on stdin/stdout
     xq-server run query.xq --socket /tmp/xq.sock [-i data.xml] [...]
     xq-server stats --socket /tmp/xq.sock
     xq-server ping --socket /tmp/xq.sock

   Lifecycle: SIGTERM/SIGINT flip the daemon into draining mode — the
   listener closes at once, new RUNs are refused with XQENG0007 plus a
   RETRY-AFTER-MS hint, in-flight queries get --drain-timeout to
   finish (stragglers are cooperatively cancelled, XQENG0004), final
   STATS go to stderr, and the process exits 0. Under --supervise a
   parent process restarts the serving worker on abnormal death with
   jittered exponential backoff, giving up (exit 70, crash report on
   stderr) when crashes cluster faster than --max-restarts per
   --restart-window seconds. Exit codes: 0 clean drain/shutdown, 1
   usage (bad flags, socket owned by a live server, daemon
   unreachable), 70 crash-loop give-up.

   The client commands ride lib/client: connection failures and
   XQENG0007 refusals are retried with jittered exponential backoff,
   honouring the server's RETRY-AFTER-MS hints, under --retries and an
   optional end-to-end --deadline. [run] prints exactly what [xq run]
   would, with the same exit-code taxonomy, so the two are
   interchangeable in scripts. *)

open Cmdliner
module Server = Xq_server.Server_core
module Protocol = Xq_server.Protocol
module Client = Xq_client.Client
module Governor = Xq_governor.Governor

(* --- serve -------------------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let pos_int what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error
        (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let config_term =
  let plan_cache =
    let doc = "Plan-cache capacity (compiled queries kept resident)." in
    Arg.(
      value
      & opt (pos_int "--plan-cache") Server.default_config.Server.c_plan_capacity
      & info [ "plan-cache" ] ~docv:"N" ~doc)
  in
  let doc_cache_mb =
    let doc = "Document-store capacity in megabytes (resident estimate)." in
    Arg.(
      value
      & opt (pos_int "--doc-cache-mb") 256
      & info [ "doc-cache-mb" ] ~docv:"MB" ~doc)
  in
  let max_concurrent =
    let doc = "Admission concurrency cap: queries executing at once." in
    Arg.(
      value
      & opt
          (pos_int "--max-concurrent")
          Server.default_config.Server.c_max_concurrent
      & info [ "max-concurrent" ] ~docv:"N" ~doc)
  in
  let admit_at =
    let doc =
      "Admission memory watermark in megabytes: new queries are refused \
       with XQENG0007 while the server's resident-plus-heap estimate is \
       past it. 0 disables the memory gate."
    in
    Arg.(value & opt int 1024 & info [ "admit-at" ] ~docv:"MB" ~doc)
  in
  let drain_timeout =
    let doc =
      "Drain window in milliseconds: after SIGTERM/SIGINT, in-flight \
       queries may keep running this long before their governors are \
       cooperatively cancelled (XQENG0004)."
    in
    Arg.(
      value
      & opt (pos_int "--drain-timeout")
          Server.default_config.Server.c_drain_timeout_ms
      & info [ "drain-timeout" ] ~docv:"MS" ~doc)
  in
  let max_request_bytes =
    let doc =
      "Cap on any counted request field (QUERY, DOCINLINE): a longer \
       declared length is answered USAGE before any allocation."
    in
    Arg.(
      value
      & opt (pos_int "--max-request-bytes")
          Server.default_config.Server.c_max_request_bytes
      & info [ "max-request-bytes" ] ~docv:"BYTES" ~doc)
  in
  let max_connections =
    let doc =
      "Connection-thread cap, separate from query admission: over-cap \
       connects get one XQENG0007 refusal frame and are closed."
    in
    Arg.(
      value
      & opt (pos_int "--max-connections")
          Server.default_config.Server.c_max_connections
      & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let retry_after_ms =
    let doc =
      "The RETRY-AFTER-MS hint sent with load-based XQENG0007 refusals \
       (drain refusals hint the drain window instead)."
    in
    Arg.(
      value
      & opt (pos_int "--retry-after-ms")
          Server.default_config.Server.c_retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS" ~doc)
  in
  let build plan_cache doc_cache_mb max_concurrent admit_at drain_timeout
      max_request_bytes max_connections retry_after_ms =
    {
      Server.default_config with
      Server.c_plan_capacity = plan_cache;
      c_doc_capacity_bytes = doc_cache_mb * 1024 * 1024;
      c_max_concurrent = max_concurrent;
      c_admission_watermark_mb = (if admit_at <= 0 then None else Some admit_at);
      c_drain_timeout_ms = drain_timeout;
      c_max_request_bytes = max_request_bytes;
      c_max_connections = max_connections;
      c_retry_after_ms = retry_after_ms;
    }
  in
  Term.(
    const build $ plan_cache $ doc_cache_mb $ max_concurrent $ admit_at
    $ drain_timeout $ max_request_bytes $ max_connections $ retry_after_ms)

(* --- the serving worker -------------------------------------------------- *)

(* One serving process: signal wiring, the accept loop, final STATS on
   stderr once drained. Runs directly ([serve]) or as the supervised
   child ([serve --supervise]). *)
let serve_worker ~socket ~config ~chaos_crash () =
  let t = Server.create ~config () in
  (* Async-signal-safe by construction: request_drain is one atomic
     store. The interrupted select/accept surfaces as EINTR, which the
     accept loop treats as "re-check the flags". *)
  let drain = Sys.Signal_handle (fun _ -> Server.request_drain t) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain;
  (* A handled no-op, not Signal_ignore: delivery still interrupts
     syscalls, so `kill -USR1` is a liveness probe of the daemon's
     EINTR hardening (and of nothing else). *)
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ()));
  (match chaos_crash with
  | None -> ()
  | Some rate -> Governor.arm_crash_faults ?rate ());
  match
    Printf.eprintf "xq-server: listening on %s (pid %d)\n%!" socket
      (Unix.getpid ());
    Server.serve_unix t ~path:socket ~stop:(fun () -> false) ()
  with
  | report ->
    Printf.eprintf
      "xq-server: drained in %d ms (%d in flight at signal, %d cancelled)\n"
      report.Server.dr_elapsed_ms report.Server.dr_inflight_at_drain
      report.Server.dr_cancelled;
    prerr_string (Server.stats_text t);
    flush stderr;
    0
  | exception Server.Socket_in_use msg ->
    Printf.eprintf "xq-server: %s\n%!" msg;
    1

(* --- the supervisor ------------------------------------------------------ *)

(* Keep a serving child alive: fork it, wait, and on abnormal death
   (killed by a signal, or exit >= 2 — an uncaught crash) restart it
   after a jittered exponential backoff. Exit 0 is a clean drain and
   exit 1 a configuration error; neither is retried. Crashes clustering
   faster than [max_restarts] in [window_s] seconds mean restarting is
   not helping — give up with a crash report and exit 70. *)
let supervise ~max_restarts ~window_s ~backoff_ms run_child =
  let child = ref 0 in
  let stopping = ref false in
  let forward signum =
    Sys.Signal_handle
      (fun _ ->
        stopping := true;
        if !child > 0 then
          try Unix.kill !child signum with Unix.Unix_error _ -> ())
  in
  Sys.set_signal Sys.sigterm (forward Sys.sigterm);
  Sys.set_signal Sys.sigint (forward Sys.sigint);
  let jitter_state = ref (Int64.of_int ((Unix.getpid () * 2) + 1)) in
  let jitter () =
    let open Int64 in
    let z = add !jitter_state 0x9E3779B97F4A7C15L in
    jitter_state := z;
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.to_float (shift_right_logical (logxor z (shift_right_logical z 31)) 11)
    /. 9007199254740992.0
  in
  let rec waitpid pid =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  in
  let crash_times = ref [] in
  let describe = function
    | Unix.WEXITED c -> Printf.sprintf "exit %d" c
    | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
  in
  let rec loop restarts =
    match Unix.fork () with
    | 0 -> Stdlib.exit (run_child ())
    | pid ->
      child := pid;
      (* a signal that raced the fork: forward it now *)
      if !stopping then
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      let status = waitpid pid in
      child := 0;
      (match status with
       | Unix.WEXITED 0 -> 0
       | Unix.WEXITED 1 ->
         Printf.eprintf
           "xq-supervisor: worker exited 1 (configuration error), not \
            restarting\n%!";
         1
       | status when !stopping ->
         Printf.eprintf "xq-supervisor: worker %s during shutdown\n%!"
           (describe status);
         (match status with Unix.WEXITED c -> c | _ -> 70)
       | status ->
         let now = Unix.gettimeofday () in
         crash_times :=
           now :: List.filter (fun t0 -> now -. t0 <= window_s) !crash_times;
         let recent = List.length !crash_times in
         if recent > max_restarts then begin
           Printf.eprintf
             "xq-supervisor: crash loop — %d crashes within %.0f s (last: \
              %s after %d restart(s)); giving up\n%!"
             recent window_s (describe status) restarts;
           70
         end
         else begin
           let nominal =
             min (backoff_ms * (1 lsl min 20 (recent - 1))) 10_000
           in
           let delay =
             float_of_int nominal *. (0.5 +. jitter ()) /. 1000.0
           in
           Printf.eprintf
             "xq-supervisor: worker %s; restart %d in %.0f ms\n%!"
             (describe status) (restarts + 1) (delay *. 1000.0);
           Unix.sleepf delay;
           if !stopping then 0 else loop (restarts + 1)
         end)
  in
  loop 0

let serve_cmd =
  let supervise_flag =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Fork the serving worker under a supervisor that restarts it \
             on abnormal death with jittered exponential backoff.")
  in
  let max_restarts =
    Arg.(
      value
      & opt (pos_int "--max-restarts") 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Crash-loop threshold: give up (exit 70) past this many \
             crashes within the restart window.")
  in
  let restart_window =
    Arg.(
      value
      & opt (pos_int "--restart-window") 30
      & info [ "restart-window" ] ~docv:"SECONDS"
          ~doc:"The sliding window for crash-loop detection.")
  in
  let backoff =
    Arg.(
      value
      & opt (pos_int "--backoff-ms") 100
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base restart backoff (doubles per recent crash, jittered).")
  in
  let chaos_crash =
    (* bare --chaos-crash draws at the shared XQ_FAULTS rate;
       --chaos-crash=0.2 gives the crash stream its own rate so chaos
       harnesses can crash often while alloc/conn noise stays rare *)
    Arg.(
      value
      & opt ~vopt:(Some None) (some (some float)) None
      & info [ "chaos-crash" ] ~docv:"RATE"
          ~doc:
            "Arm the XQ_FAULTS worker-crash stream: drawn faults kill the \
             serving process abruptly mid-query. An optional =RATE overrides \
             the shared XQ_FAULTS rate for this stream only. Chaos testing \
             only; pointless without --supervise.")
  in
  let action socket config drain_supervise max_restarts restart_window
      backoff_ms chaos_crash =
    let worker = serve_worker ~socket ~config ~chaos_crash in
    if drain_supervise then
      supervise ~max_restarts ~window_s:(float_of_int restart_window)
        ~backoff_ms worker
    else worker ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident query daemon on a Unix socket (optionally \
          supervised).")
    Term.(
      const action $ socket_arg $ config_term $ supervise_flag $ max_restarts
      $ restart_window $ backoff $ chaos_crash)

let once_cmd =
  let action config =
    let t = Server.create ~config () in
    Server.serve_connection t stdin stdout;
    0
  in
  Cmd.v
    (Cmd.info "once"
       ~doc:
         "Serve one protocol conversation on stdin/stdout — the daemon's \
          request loop without the socket, for tests and scripting.")
    Term.(const action $ config_term)

(* --- client ------------------------------------------------------------- *)

let retries_arg =
  Arg.(
    value
    & opt (pos_int "--retries") 5
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Attempts per request: connection failures and XQENG0007 \
           refusals are retried with jittered exponential backoff, \
           honouring the server's RETRY-AFTER-MS hints.")

let retry_base_arg =
  Arg.(
    value
    & opt (pos_int "--retry-base-ms") 50
    & info [ "retry-base-ms" ] ~docv:"MS"
        ~doc:"Base backoff before the first retry (doubles per attempt).")

let deadline_arg =
  Arg.(
    value
    & opt (some (pos_int "--deadline")) None
    & info [ "deadline" ] ~docv:"MS"
        ~doc:
          "End-to-end deadline for the request, covering all retries and \
           socket reads.")

(* One command through the retry layer; server-reported errors keep
   their own exit family, exhausted retries are usage-class failures
   (the daemon isn't there). *)
let round_trip socket ~retries ~retry_base ~deadline cmd ~on_ok =
  let client =
    Client.create ~attempts:retries ~base_backoff_ms:retry_base
      ?deadline_ms:deadline ~seed:(Unix.getpid ()) ~socket ()
  in
  Fun.protect
    ~finally:(fun () -> Client.close client)
    (fun () ->
      match Client.request client cmd with
      | Ok p -> on_ok p
      | Error (Client.Server_error { message; _ } as f) ->
        Printf.eprintf "error %s\n" message;
        Client.exit_code f
      | Error (Client.Unreachable _ as f) ->
        Printf.eprintf "xq-server: %s\n" (Client.failure_message f);
        Client.exit_code f)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cmd =
  let query_file =
    let doc = "File containing the XQuery expression." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY" ~doc)
  in
  let input_file =
    let doc =
      "XML document to query, referenced by path so the server's resident \
       store serves repeat queries without reparsing."
    in
    Arg.(
      value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)
  in
  let inline_flag =
    let doc =
      "Ship the input document's bytes inline instead of its path (no \
       server-side caching; works when the server cannot see the file)."
    in
    Arg.(value & flag & info [ "inline" ] ~doc)
  in
  let strategy_opt =
    let doc = "Grouping strategy: hash, sort or auto." in
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("hash", Xq.Algebra.Optimizer.Hash);
                  ("sort", Xq.Algebra.Optimizer.Sort);
                  ("auto", Xq.Algebra.Optimizer.Auto) ]))
          None
      & info [ "strategy" ] ~docv:"STRATEGY" ~doc)
  in
  let parallel_opt =
    Arg.(
      value
      & opt (some (pos_int "--parallel")) None
      & info [ "parallel" ] ~docv:"N" ~doc:"Domain-pool degree.")
  in
  let batch_opt =
    Arg.(
      value
      & opt (some (pos_int "--batch")) None
      & info [ "batch" ] ~docv:"N" ~doc:"Executor batch size (1 = item-at-a-time).")
  in
  let timeout_opt =
    Arg.(
      value
      & opt (some (pos_int "--timeout")) None
      & info [ "timeout" ] ~docv:"MS" ~doc:"Per-query deadline (XQENG0001).")
  in
  let max_groups_opt =
    Arg.(
      value
      & opt (some (pos_int "--max-groups")) None
      & info [ "max-groups" ] ~docv:"N" ~doc:"Group cap (XQENG0003).")
  in
  let max_mem_opt =
    Arg.(
      value
      & opt (some (pos_int "--max-mem")) None
      & info [ "max-mem" ] ~docv:"MB" ~doc:"Memory budget (XQENG0002).")
  in
  let spill_at_opt =
    Arg.(
      value
      & opt (some (pos_int "--spill-at")) None
      & info [ "spill-at" ] ~docv:"MB" ~doc:"Soft spill watermark.")
  in
  let rewrite_flag =
    Arg.(
      value & flag
      & info [ "rewrite" ] ~doc:"Apply the implicit-group-by rewrite.")
  in
  let indent_flag =
    Arg.(value & flag & info [ "indent" ] ~doc:"Pretty-print the output.")
  in
  let stream_flag =
    Arg.(
      value
      & vflag None
          [
            ( Some true,
              info [ "stream" ]
                ~doc:
                  "Stream the document (projection pushdown, document \
                   store bypassed) when the query allows." );
            ( Some false,
              info [ "no-stream" ] ~doc:"Always materialize the document." );
          ])
  in
  let action socket retries retry_base deadline qf input inline strategy
      parallel batch timeout max_groups max_mem spill_at rewrite indent
      stream =
    let rq_doc =
      match input with
      | None -> Protocol.Doc_none
      | Some p when inline -> Protocol.Doc_inline (read_file p)
      | Some p ->
        (* absolute path: the daemon's cwd is not the client's *)
        Protocol.Doc_path
          (if Filename.is_relative p then
             Filename.concat (Sys.getcwd ()) p
           else p)
    in
    let cmd =
      Protocol.Run
        {
          Protocol.rq_source = read_file qf;
          rq_doc;
          rq_knobs =
            Xq.Pipeline.
              {
                k_strategy = strategy;
                k_parallel = parallel;
                k_batch = batch;
                k_rewrite = rewrite;
                k_timeout_ms = timeout;
                k_max_groups = max_groups;
                k_max_mem_mb = max_mem;
                k_spill_at_mb = spill_at;
                k_stream = stream;
              };
          rq_indent = indent;
        }
    in
    round_trip socket ~retries ~retry_base ~deadline cmd ~on_ok:(fun payload ->
        (* the payload already carries [xq run]'s trailing newline *)
        print_string payload;
        0)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a query file through the daemon, printing exactly what \
          'xq run' would.")
    Term.(
      const action $ socket_arg $ retries_arg $ retry_base_arg $ deadline_arg
      $ query_file $ input_file $ inline_flag $ strategy_opt $ parallel_opt
      $ batch_opt $ timeout_opt $ max_groups_opt $ max_mem_opt $ spill_at_opt
      $ rewrite_flag $ indent_flag $ stream_flag)

let stats_cmd =
  let action socket retries retry_base deadline =
    round_trip socket ~retries ~retry_base ~deadline Protocol.Stats
      ~on_ok:(fun p ->
        print_string p;
        0)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's counters, one per line.")
    Term.(
      const action $ socket_arg $ retries_arg $ retry_base_arg $ deadline_arg)

let ping_cmd =
  let action socket retries retry_base deadline =
    round_trip socket ~retries ~retry_base ~deadline Protocol.Ping
      ~on_ok:(fun p ->
        print_endline p;
        0)
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Check the daemon is accepting connections.")
    Term.(
      const action $ socket_arg $ retries_arg $ retry_base_arg $ deadline_arg)

let () =
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success, including a clean SIGTERM drain.";
      Cmd.Exit.info 1
        ~doc:
          "on usage or connection errors (daemon unreachable after all \
           retries, or the socket is owned by a live server).";
      Cmd.Exit.info 2 ~doc:"on static query errors reported by the daemon.";
      Cmd.Exit.info 3 ~doc:"on dynamic errors reported by the daemon.";
      Cmd.Exit.info 4
        ~doc:
          "on resource trips reported by the daemon, including XQENG0007 \
           admission rejections that outlasted the client's retries.";
      Cmd.Exit.info 70
        ~doc:
          "when the supervisor gives up on a crash-looping worker \
           (--max-restarts crashes within --restart-window seconds).";
    ]
  in
  let info =
    Cmd.info "xq-server" ~version:"1.0.0" ~exits
      ~doc:
        "Resident query daemon: plan cache, shared document store, \
         per-query governors, admission control, graceful drain and \
         supervised restarts over a Unix socket."
  in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info [ serve_cmd; once_cmd; run_cmd; stats_cmd; ping_cmd ])
     with
     | Ok (`Ok code) -> code
     | Ok (`Help | `Version) -> 0
     | Error (`Parse | `Term | `Exn) -> 1)
