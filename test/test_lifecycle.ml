(* Server-lifecycle battery: graceful drain, request-frame bounds, the
   connection cap, the retrying client layer, and — through the real
   xq-server binary — signal handling (EINTR hardening), socket-steal
   refusal, drain-under-load and the supervised chaos run.

   In-process tests drive [Server_core] directly on a Unix socket, like
   test_server.ml. Subprocess tests spawn ../bin/xq_server_main.exe
   (tests run from _build/default/test) so signals, fork, the
   supervisor and process exit codes are the production ones. *)

module Governor = Xq_governor.Governor
module Pipeline = Xq_pipeline.Pipeline
module Protocol = Xq_server.Protocol
module Server = Xq_server.Server_core
module Client = Xq_client.Client

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run_cmd ?(doc = Protocol.Doc_none) source =
  Protocol.Run
    {
      Protocol.rq_source = source;
      rq_doc = doc;
      rq_knobs = Pipeline.default_knobs;
      rq_indent = false;
    }

(* A query whose runtime scales as n^3: slow enough to still be in
   flight when the drain switch flips, fast enough to finish inside a
   generous drain window. Counts to exactly n^3. *)
let slow_doc n =
  let b = Buffer.create (n * 8) in
  Buffer.add_string b "<a>";
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "<b>%d</b>" (i mod 7))
  done;
  Buffer.add_string b "</a>";
  Buffer.contents b

let slow_query =
  "fn:count(for $x in /a/b for $y in /a/b for $z in /a/b return 1)"

let slow_expected n = Printf.sprintf "%d\n" (n * n * n)

(* --- socket plumbing ----------------------------------------------------- *)

let sock_counter = ref 0

let fresh_sock_path () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xq-lc-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let wait_for_file path =
  let rec wait n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Thread.delay 0.01;
      wait (n - 1)
    end
  in
  wait 500

(* A lifecycle-aware harness: serves until [f] returns (or drains
   earlier), then joins the accept loop and hands back its
   drain_report. *)
let with_server ?config f =
  let t = Server.create ?config () in
  let path = fresh_sock_path () in
  let report = ref None in
  let th =
    Thread.create
      (fun () ->
        report := Some (Server.serve_unix t ~path ~stop:(fun () -> false) ()))
      ()
  in
  wait_for_file path;
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain t;
      Thread.join th;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f t path);
  match !report with
  | Some r -> r
  | None -> Alcotest.fail "serve_unix died without a drain report"

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let close_conn (sock, _ic, oc) =
  (try flush oc with Sys_error _ -> ());
  try Unix.close sock with Unix.Unix_error _ -> ()

let request path cmd =
  let ((_, ic, oc) as conn) = connect path in
  Fun.protect
    ~finally:(fun () -> close_conn conn)
    (fun () ->
      Protocol.write_command oc cmd;
      Protocol.read_response ic)

(* PING on an already-open connection: proves the accept loop has
   picked it up (a connection still parked in the listen backlog when
   the listener closes is silently dropped). *)
let ack_conn (_, ic, oc) =
  Protocol.write_command oc Protocol.Ping;
  match Protocol.read_response ic with
  | Protocol.Payload "pong" -> ()
  | _ -> Alcotest.fail "connection not acknowledged"

let stat_of_text stats key =
  String.split_on_char '\n' stats
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] when k = key -> int_of_string_opt v
         | _ -> None)

(* --- protocol: retry hints and frame bounds ------------------------------ *)

let test_retry_hint_roundtrip () =
  let tmp = Filename.temp_file "xq-hint" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let responses =
        [
          Protocol.Error
            {
              code = "XQENG0007";
              exit = 4;
              message = "admission rejected: draining";
              retry_after_ms = Some 1234;
            };
          Protocol.Error
            {
              code = "XQENG0004";
              exit = 4;
              message = "cancelled";
              retry_after_ms = None;
            };
          Protocol.Payload "2\n";
        ]
      in
      let oc = open_out_bin tmp in
      List.iter (Protocol.write_response oc) responses;
      close_out oc;
      let ic = open_in_bin tmp in
      let got = List.map (fun _ -> Protocol.read_response ic) responses in
      close_in ic;
      Alcotest.(check bool) "hinted, bare and OK frames round-trip" true
        (got = responses))

let test_oversized_request_bounded () =
  let config =
    { Server.default_config with Server.c_max_request_bytes = 1024 }
  in
  let check_raw raw label =
    ignore
      (with_server ~config (fun _t path ->
           let ((_, ic, oc) as conn) = connect path in
           Fun.protect
             ~finally:(fun () -> close_conn conn)
             (fun () ->
               output_string oc raw;
               flush oc;
               (* the cap fires on the declared length, before any body
                  bytes arrive: the server answers although the payload
                  was never sent *)
               match Protocol.read_response ic with
               | Protocol.Error { code; exit; retry_after_ms; _ } ->
                 Alcotest.(check string) (label ^ " code") "USAGE" code;
                 Alcotest.(check int) (label ^ " exit family") 1 exit;
                 Alcotest.(check bool) (label ^ " no hint") true
                   (retry_after_ms = None)
               | Protocol.Payload _ ->
                 Alcotest.failf "%s: oversized frame was served" label);
           match request path Protocol.Ping with
           | Protocol.Payload p ->
             Alcotest.(check string) (label ^ " still serving") "pong" p
           | Protocol.Error { message; _ } ->
             Alcotest.failf "%s: wedged after oversize: %s" label message))
  in
  check_raw "QUERY 9999999\n" "oversized QUERY";
  check_raw "QUERY 5\n1 + 1\nDOCINLINE 9999999\n" "oversized DOCINLINE"

let test_client_bounds_response_frames () =
  ignore
    (with_server (fun _t path ->
         (* a client with a tiny response cap must reject the daemon's
            (much larger) STATS frame as garbled rather than allocate *)
         let c =
           Client.create ~attempts:2 ~base_backoff_ms:1
             ~max_response_bytes:16 ~seed:3 ~socket:path ()
         in
         Fun.protect
           ~finally:(fun () -> Client.close c)
           (fun () ->
             match Client.request c Protocol.Stats with
             | Ok _ -> Alcotest.fail "over-cap response was accepted"
             | Error (Client.Server_error _) ->
               Alcotest.fail "frame cap must surface as a transport failure"
             | Error (Client.Unreachable m) ->
               Alcotest.(check bool) "names the frame cap" true
                 (contains m "frame cap"))))

(* --- the connection cap -------------------------------------------------- *)

let test_connection_cap () =
  let config =
    {
      Server.default_config with
      Server.c_max_connections = 2;
      c_retry_after_ms = 77;
    }
  in
  ignore
    (with_server ~config (fun _t path ->
         (* two parked, idle connections fill the cap *)
         let idle1 = connect path in
         let idle2 = connect path in
         Fun.protect
           ~finally:(fun () ->
             close_conn idle1;
             close_conn idle2)
           (fun () ->
             ack_conn idle1;
             ack_conn idle2;
             let ((_, ic, _) as over) = connect path in
             Fun.protect
               ~finally:(fun () -> close_conn over)
               (fun () ->
                 match Protocol.read_response ic with
                 | Protocol.Error { code; exit; retry_after_ms; _ } ->
                   Alcotest.(check string) "refused XQENG0007" "XQENG0007"
                     code;
                   Alcotest.(check int) "resource exit family" 4 exit;
                   Alcotest.(check (option int)) "carries the backoff hint"
                     (Some 77) retry_after_ms
                 | Protocol.Payload _ ->
                   Alcotest.fail "third connection admitted over the cap"));
         (* the idle pair released: the server admits again and the
            refusal is on the books *)
         let rec settle n =
           if n = 0 then Alcotest.fail "connection slots never released";
           match request path Protocol.Stats with
           | Protocol.Payload stats -> stats
           | Protocol.Error _ ->
             (* still at the cap: the idle threads have not noticed the
                close yet *)
             Thread.delay 0.02;
             settle (n - 1)
           | exception _ ->
             Thread.delay 0.02;
             settle (n - 1)
         in
         let stats = settle 200 in
         (match stat_of_text stats "conn_rejected" with
          | Some n ->
            Alcotest.(check bool) "conn_rejected counted" true (n >= 1)
          | None -> Alcotest.fail "conn_rejected missing from STATS");
         match stat_of_text stats "conn_active" with
         | Some _ -> ()
         | None -> Alcotest.fail "conn_active missing from STATS"))

(* --- graceful drain ------------------------------------------------------ *)

let wait_active t =
  let rec wait k =
    if k = 0 then Alcotest.fail "slow query never started";
    if Server.active t = 0 then begin
      Thread.delay 0.01;
      wait (k - 1)
    end
  in
  wait 1000

let test_drain_completes_inflight () =
  let n = 90 in
  let doc = Protocol.Doc_inline (slow_doc n) in
  let config =
    { Server.default_config with Server.c_drain_timeout_ms = 30_000 }
  in
  let report =
    with_server ~config (fun t path ->
        let ((_, slow_ic, slow_oc) as slow_conn) = connect path in
        Fun.protect
          ~finally:(fun () -> close_conn slow_conn)
          (fun () ->
            (* open (and acknowledge) the late connection before the
               drain closes the listener *)
            let ((_, late_ic, late_oc) as late_conn) = connect path in
            Fun.protect
              ~finally:(fun () -> close_conn late_conn)
              (fun () ->
                ack_conn late_conn;
                Protocol.write_command slow_oc (run_cmd ~doc slow_query);
                wait_active t;
                Server.request_drain t;
                Protocol.write_command late_oc (run_cmd "1 + 1");
                (match Protocol.read_response late_ic with
                 | Protocol.Error { code; exit; retry_after_ms; _ } ->
                   Alcotest.(check string) "draining refuses new RUNs"
                     "XQENG0007" code;
                   Alcotest.(check int) "resource exit family" 4 exit;
                   Alcotest.(check (option int)) "hints the drain window"
                     (Some 30_000) retry_after_ms
                 | Protocol.Payload _ ->
                   Alcotest.fail "RUN admitted while draining");
                (* the in-flight query still completes, byte-identical *)
                match Protocol.read_response slow_ic with
                | Protocol.Payload got ->
                  Alcotest.(check string) "in-flight completes intact"
                    (slow_expected n) got
                | Protocol.Error { message; _ } ->
                  Alcotest.failf "in-flight query broken by drain: %s"
                    message)))
  in
  Alcotest.(check int) "one query was in flight at the signal" 1
    report.Server.dr_inflight_at_drain;
  Alcotest.(check int) "nothing needed cancelling" 0 report.Server.dr_cancelled

let test_drain_cancels_stragglers () =
  let n = 110 in
  let doc = Protocol.Doc_inline (slow_doc n) in
  let config =
    { Server.default_config with Server.c_drain_timeout_ms = 100 }
  in
  let report =
    with_server ~config (fun t path ->
        let ((_, slow_ic, slow_oc) as slow_conn) = connect path in
        Fun.protect
          ~finally:(fun () -> close_conn slow_conn)
          (fun () ->
            Protocol.write_command slow_oc (run_cmd ~doc slow_query);
            wait_active t;
            Server.request_drain t;
            (* past the 100 ms window the governor is cancelled: the
               client gets a clean XQENG0004 ERR, never partial bytes *)
            match Protocol.read_response slow_ic with
            | Protocol.Error { code; exit; _ } ->
              Alcotest.(check string) "straggler cancelled cooperatively"
                "XQENG0004" code;
              Alcotest.(check int) "resource exit family" 4 exit
            | Protocol.Payload _ ->
              Alcotest.fail "straggler outlived the drain deadline"))
  in
  Alcotest.(check int) "the straggler was cancelled" 1
    report.Server.dr_cancelled

let test_drain_cancels_queued () =
  (* every pool worker is busy with a slow query and one more admitted
     request waits in the pool queue when the 100 ms drain deadline
     passes: the queued one gets the same clean XQENG0004 ERR as the
     executing ones, never output, and counts in drain_cancelled *)
  let workers = Domain.recommended_domain_count () in
  let doc = Protocol.Doc_inline (slow_doc 150) in
  let config =
    {
      Server.default_config with
      Server.c_drain_timeout_ms = 100;
      c_max_concurrent = workers + 1;
    }
  in
  let degree_one =
    Protocol.Run
      {
        Protocol.rq_source = slow_query;
        rq_doc = doc;
        rq_knobs = { Pipeline.default_knobs with Pipeline.k_parallel = Some 1 };
        rq_indent = false;
      }
  in
  let drained_stats = ref "" in
  let report =
    with_server ~config (fun t path ->
        let conns = List.init (workers + 1) (fun _ -> connect path) in
        Fun.protect
          ~finally:(fun () -> List.iter close_conn conns)
          (fun () ->
            List.iter
              (fun (_, _, oc) -> Protocol.write_command oc degree_one)
              conns;
            let rec settle k =
              if k = 0 then
                Alcotest.fail "no request ever waited in the pool queue";
              if
                not
                  (Server.active t = workers + 1
                  && Xq_par.Par.pool_queued () = 1)
              then begin
                Thread.delay 0.01;
                settle (k - 1)
              end
            in
            settle 1000;
            Server.request_drain t;
            List.iteri
              (fun i (_, ic, _) ->
                match Protocol.read_response ic with
                | Protocol.Error { code; exit; message; _ } ->
                  Alcotest.(check string)
                    (Printf.sprintf "request %d cancelled cooperatively" i)
                    "XQENG0004" code;
                  Alcotest.(check int) "resource exit family" 4 exit;
                  Alcotest.(check bool) "the governor's own message" true
                    (contains message "query cancelled")
                | Protocol.Payload _ ->
                  Alcotest.failf "request %d outlived the drain deadline" i)
              conns;
            drained_stats := Server.stats_text t))
  in
  Alcotest.(check int) "every admitted request was cancelled" (workers + 1)
    report.Server.dr_cancelled;
  Alcotest.(check (option int)) "STATS drain_cancelled" (Some (workers + 1))
    (stat_of_text !drained_stats "drain_cancelled")

let test_inprocess_socket_guard () =
  ignore
    (with_server (fun _t path ->
         let other = Server.create () in
         (match Server.serve_unix other ~path ~stop:(fun () -> true) () with
          | _ -> Alcotest.fail "second server bound over a live socket"
          | exception Server.Socket_in_use msg ->
            Alcotest.(check bool) "names the socket path" true
              (contains msg path));
         (* and the probe did not disturb the live server *)
         match request path Protocol.Ping with
         | Protocol.Payload p ->
           Alcotest.(check string) "original still serving" "pong" p
         | Protocol.Error { message; _ } ->
           Alcotest.failf "original server upset by the probe: %s" message))

(* --- the retrying client ------------------------------------------------- *)

let test_client_honors_retry_hints () =
  let config =
    {
      Server.default_config with
      Server.c_admission_watermark_mb = Some 64;
      c_retry_after_ms = 60;
    }
  in
  ignore
    (with_server ~config (fun t path ->
         let hot = 512 * 1024 * 1024 in
         Governor.charge_on (Server.house t) hot;
         (* pressure lifts while the client is backing off on hints *)
         let lifter =
           Thread.create
             (fun () ->
               Thread.delay 0.35;
               Governor.uncharge_on (Server.house t) hot)
             ()
         in
         let c =
           Client.create ~attempts:12 ~base_backoff_ms:20 ~seed:7
             ~socket:path ()
         in
         Fun.protect
           ~finally:(fun () ->
             Client.close c;
             Thread.join lifter)
           (fun () ->
             (match Client.request c (run_cmd "1 + 1") with
              | Ok p ->
                Alcotest.(check string) "served once pressure lifted" "2\n" p
              | Error f ->
                Alcotest.failf "client gave up: %s" (Client.failure_message f));
             let s = Client.stats c in
             Alcotest.(check bool) "retried at least once" true
               (s.Client.s_retries >= 1);
             Alcotest.(check bool) "honoured a RETRY-AFTER-MS hint" true
               (s.Client.s_honored_hints >= 1))))

(* with_server picks its own socket path, so the late-server test runs
   its own small harness bound to the client's path. *)
let test_client_reconnects_to_late_server () =
  let path = fresh_sock_path () in
  let c =
    Client.create ~attempts:30 ~base_backoff_ms:40 ~seed:9 ~socket:path ()
  in
  let result = ref (Error (Client.Unreachable "not attempted")) in
  let requester =
    Thread.create (fun () -> result := Client.request c Protocol.Ping) ()
  in
  (* let the first attempts fail against the absent socket *)
  Thread.delay 0.3;
  let t = Server.create () in
  let th =
    Thread.create
      (fun () ->
        ignore (Server.serve_unix t ~path ~stop:(fun () -> false) ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain t;
      Thread.join th;
      Client.close c;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Thread.join requester;
      (match !result with
       | Ok p -> Alcotest.(check string) "pong after reconnect" "pong" p
       | Error f ->
         Alcotest.failf "client never reached the late server: %s"
           (Client.failure_message f));
      let s = Client.stats c in
      Alcotest.(check bool) "reconnects were counted" true
        (s.Client.s_reconnects >= 1))

(* --- the real binary ----------------------------------------------------- *)

let server_exe =
  Filename.concat ".." (Filename.concat "bin" "xq_server_main.exe")

let spawn_daemon ?(env = []) args ~stderr_file =
  let err_fd =
    Unix.openfile stderr_file
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o600
  in
  let argv = Array.of_list (server_exe :: args) in
  let pid =
    if env = [] then
      Unix.create_process server_exe argv Unix.stdin Unix.stdout err_fd
    else
      Unix.create_process_env server_exe argv
        (Array.append (Unix.environment ()) (Array.of_list env))
        Unix.stdin Unix.stdout err_fd
  in
  Unix.close err_fd;
  pid

(* Reap [pid] within [timeout_ms]; SIGKILL and fail if it overstays. *)
let reap pid ~timeout_ms ~what =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.0) in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s did not exit within %d ms" what timeout_ms
      end
      else begin
        Thread.delay 0.02;
        wait ()
      end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let status_name = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n

let ping_daemon ?(attempts = 60) path =
  let c =
    Client.create ~attempts ~base_backoff_ms:25 ~max_backoff_ms:200 ~seed:1
      ~socket:path ()
  in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> Client.request c Protocol.Ping)

let wait_ready pid path ~what =
  match ping_daemon path with
  | Ok "pong" -> ()
  | Ok other -> Alcotest.failf "%s: odd ping reply %S" what other
  | Error f ->
    kill_quietly pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Alcotest.failf "%s never became ready: %s" what (Client.failure_message f)

(* Spawn the real daemon, run [f pid path] (which must reap the daemon
   and return its status), and hand back (status, stderr bytes). *)
let with_daemon ?env args f =
  let path = fresh_sock_path () in
  let stderr_file = Filename.temp_file "xq-daemon" ".err" in
  let pid = spawn_daemon ?env ([ "serve"; "-s"; path ] @ args) ~stderr_file in
  let status =
    Fun.protect
      ~finally:(fun () ->
        (* belt and braces: nothing survives a failing test *)
        kill_quietly pid Sys.sigkill;
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
         with Unix.Unix_error _ -> ());
        try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        wait_ready pid path ~what:"daemon";
        f pid path)
  in
  let err = read_file stderr_file in
  (try Sys.remove stderr_file with Sys_error _ -> ());
  (status, err)

let test_daemon_survives_signals () =
  let status, err =
    with_daemon [] (fun pid path ->
        (* a handled signal lands in select(2)/accept(2) as EINTR; the
           pre-fix daemon died here with an uncaught Unix_error *)
        for _ = 1 to 5 do
          kill_quietly pid Sys.sigusr1;
          Thread.delay 0.03
        done;
        (match ping_daemon path with
         | Ok p -> Alcotest.(check string) "answers after signals" "pong" p
         | Error f ->
           Alcotest.failf "daemon lost to SIGUSR1: %s"
             (Client.failure_message f));
        kill_quietly pid Sys.sigusr1;
        (match ping_daemon path with
         | Ok p -> Alcotest.(check string) "still answering" "pong" p
         | Error f -> Alcotest.failf "lost: %s" (Client.failure_message f));
        kill_quietly pid Sys.sigterm;
        reap pid ~timeout_ms:10_000 ~what:"daemon")
  in
  (match status with
   | Unix.WEXITED 0 -> ()
   | s ->
     Alcotest.failf "SIGTERM must drain to exit 0, got %s" (status_name s));
  Alcotest.(check bool) "final drain note flushed" true
    (contains err "drained")

let test_daemon_refuses_live_socket () =
  let status, _ =
    with_daemon [] (fun pid path ->
        let stderr2 = Filename.temp_file "xq-steal" ".err" in
        let pid2 = spawn_daemon [ "serve"; "-s"; path ] ~stderr_file:stderr2 in
        let status2 = reap pid2 ~timeout_ms:15_000 ~what:"second daemon" in
        let err2 = read_file stderr2 in
        (try Sys.remove stderr2 with Sys_error _ -> ());
        (match status2 with
         | Unix.WEXITED 1 -> ()
         | s ->
           Alcotest.failf "socket steal must be a usage error (exit 1), got %s"
             (status_name s));
        Alcotest.(check bool) "refusal names the path" true
          (contains err2 path);
        Alcotest.(check bool) "refusal names the owning pid" true
          (contains err2 (Printf.sprintf "pid %d" pid));
        Alcotest.(check bool) "refusal is explicit" true
          (contains err2 "refusing to steal");
        (* the probe and refusal left the original daemon untouched *)
        (match ping_daemon path with
         | Ok p -> Alcotest.(check string) "original unharmed" "pong" p
         | Error f ->
           Alcotest.failf "original daemon lost: %s"
             (Client.failure_message f));
        kill_quietly pid Sys.sigterm;
        reap pid ~timeout_ms:10_000 ~what:"daemon")
  in
  match status with
  | Unix.WEXITED 0 -> ()
  | s ->
    Alcotest.failf "original daemon failed to drain cleanly: %s"
      (status_name s)

let test_daemon_drains_under_load () =
  let n = 90 in
  let doc = Protocol.Doc_inline (slow_doc n) in
  let status, err =
    with_daemon [ "--drain-timeout"; "30000" ] (fun pid path ->
        let ((_, slow_ic, slow_oc) as slow_conn) = connect path in
        let ((_, late_ic, late_oc) as late_conn) = connect path in
        Fun.protect
          ~finally:(fun () ->
            close_conn slow_conn;
            close_conn late_conn)
          (fun () ->
            ack_conn late_conn;
            Protocol.write_command slow_oc (run_cmd ~doc slow_query);
            (* wait until STATS shows the query admitted *)
            let rec wait k =
              if k = 0 then Alcotest.fail "query never showed in STATS";
              match request path Protocol.Stats with
              | Protocol.Payload stats
                when stat_of_text stats "active" = Some 1 ->
                ()
              | _ ->
                Thread.delay 0.01;
                wait (k - 1)
              | exception _ ->
                Thread.delay 0.01;
                wait (k - 1)
            in
            wait 500;
            kill_quietly pid Sys.sigterm;
            Thread.delay 0.05;
            (* new work on a surviving connection: refused with the
               drain-window hint *)
            Protocol.write_command late_oc (run_cmd "1 + 1");
            (match Protocol.read_response late_ic with
             | Protocol.Error { code; retry_after_ms; _ } ->
               Alcotest.(check string) "draining refusal" "XQENG0007" code;
               Alcotest.(check (option int)) "hints the drain window"
                 (Some 30_000) retry_after_ms
             | Protocol.Payload _ -> Alcotest.fail "admitted while draining");
            (* the in-flight query's bytes arrive whole *)
            (match Protocol.read_response slow_ic with
             | Protocol.Payload got ->
               Alcotest.(check string) "in-flight byte-identical"
                 (slow_expected n) got
             | Protocol.Error { message; _ } ->
               Alcotest.failf "in-flight query lost to drain: %s" message);
            reap pid ~timeout_ms:30_000 ~what:"draining daemon"))
  in
  (match status with
   | Unix.WEXITED 0 -> ()
   | s -> Alcotest.failf "drain under load must exit 0, got %s" (status_name s));
  Alcotest.(check bool) "drain report on stderr" true (contains err "drained")

(* --- supervised chaos ----------------------------------------------------- *)

let corpus_dir =
  let beside =
    Filename.concat (Filename.dirname Sys.executable_name) "corpus"
  in
  if Sys.file_exists beside && Sys.is_directory beside then beside
  else "corpus"

let corpus_entries =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.map Filename.remove_extension
    |> List.sort compare
  else []

(* The chaos invariant, per request: a full byte-identical payload, a
   clean well-formed ERR, or a connection failure the client retried —
   never partial output. Injected faults in the daemon (connection
   kills, worker crashes, allocation/spawn trips) make all three
   outcomes common; the supervisor keeps the daemon resurrectable
   throughout. *)
let test_supervised_chaos () =
  Alcotest.(check bool) "corpus present" true (corpus_entries <> []);
  (* Rates are deliberately split: the shared XQ_FAULTS rate stays low
     (the alloc stream draws dozens of times per query, so even 0.05
     would turn almost every query into a resource trip) while the
     crash stream runs hot enough to kill the worker many times over
     the storm. The restart window is short so the supervisor's
     crash-count stays small and its backoff stays near the base. *)
  let args =
    [
      "--supervise"; "--chaos-crash=0.08"; "--backoff-ms"; "30";
      "--max-restarts"; "25"; "--restart-window"; "5"; "--max-concurrent";
      "1"; "--drain-timeout"; "10000";
    ]
  in
  let status, err =
    with_daemon ~env:[ "XQ_FAULTS=11:0.01" ] args (fun pid path ->
        let violations = ref [] in
        let clean_errs = ref 0 and unreachable = ref 0 and ok = ref 0 in
        let honored = ref 0 and reconnects = ref 0 in
        let tally = Mutex.create () in
        let note r =
          Mutex.lock tally;
          r ();
          Mutex.unlock tally
        in
        let worker tid =
          let c =
            Client.create ~attempts:10 ~base_backoff_ms:30 ~max_backoff_ms:1000
              ~deadline_ms:20_000 ~seed:(100 + tid) ~socket:path ()
          in
          Fun.protect
            ~finally:(fun () ->
              let s = Client.stats c in
              note (fun () ->
                  honored := !honored + s.Client.s_honored_hints;
                  reconnects := !reconnects + s.Client.s_reconnects);
              Client.close c)
            (fun () ->
              let nent = List.length corpus_entries in
              for round = 0 to 1 do
                List.iteri
                  (fun i _ ->
                    let name =
                      List.nth corpus_entries ((i + tid + round) mod nent)
                    in
                    let base = Filename.concat corpus_dir name in
                    let expected = read_file (base ^ ".expected") in
                    let doc =
                      Protocol.Doc_inline (read_file (base ^ ".xml"))
                    in
                    match
                      Client.request c
                        (run_cmd ~doc (read_file (base ^ ".xq")))
                    with
                    | Ok got when got = expected -> note (fun () -> incr ok)
                    | Ok got ->
                      note (fun () ->
                          violations :=
                            Printf.sprintf "%s: partial/corrupt %S" name got
                            :: !violations)
                    | Error (Client.Server_error { code; _ })
                      when String.length code >= 5
                           && String.sub code 0 5 = "XQENG" ->
                      (* injected resource/cancellation trips: clean,
                         well-formed, attributable *)
                      note (fun () -> incr clean_errs)
                    | Error (Client.Server_error { code; message; _ }) ->
                      note (fun () ->
                          violations :=
                            Printf.sprintf "%s: unclean ERR %s %s" name code
                              message
                            :: !violations)
                    | Error (Client.Unreachable _) ->
                      (* retries exhausted while the supervisor was
                         restarting the worker; allowed as long as the
                         daemon comes back (checked below) *)
                      note (fun () -> incr unreachable))
                  corpus_entries
              done)
        in
        let threads = List.init 3 (fun tid -> Thread.create worker tid) in
        List.iter Thread.join threads;
        (match !violations with
         | [] -> ()
         | v :: _ ->
           Alcotest.failf "%d invariant violation(s), first: %s"
             (List.length !violations)
             v);
        Alcotest.(check bool) "some requests served byte-identically" true
          (!ok > 0);
        (* never a wedged daemon: whatever the storm did, it answers *)
        (match ping_daemon ~attempts:80 path with
         | Ok p -> Alcotest.(check string) "resurrectable daemon" "pong" p
         | Error f ->
           Alcotest.failf "daemon wedged after chaos: %s"
             (Client.failure_message f));
        (* Backstop for the hint assertion: the storm makes admission
           collisions (and so honoured hints) overwhelmingly likely but
           not certain, so if none happened, force one — park a slow
           query in the single admission slot, then ask a retrying
           client for new work; its first attempt draws XQENG0007 with
           a RETRY-AFTER-MS hint and it backs off accordingly. *)
        let tries = ref 0 in
        while !honored = 0 && !tries < 5 do
          incr tries;
          let ((_, _, slow_oc) as slow_conn) = connect path in
          ack_conn slow_conn;
          Protocol.write_command slow_oc
            (run_cmd ~doc:(Protocol.Doc_inline (slow_doc 90)) slow_query);
          let c =
            Client.create ~attempts:6 ~base_backoff_ms:50 ~deadline_ms:5000
              ~seed:(!tries * 7) ~socket:path ()
          in
          (match Client.request c (run_cmd "1 + 1") with
           | Ok _ | Error _ -> ());
          let s = Client.stats c in
          honored := !honored + s.Client.s_honored_hints;
          Client.close c;
          close_conn slow_conn
        done;
        Alcotest.(check bool) "at least one RETRY-AFTER-MS hint honoured" true
          (!honored >= 1);
        ignore (!reconnects, !clean_errs, !unreachable);
        kill_quietly pid Sys.sigterm;
        reap pid ~timeout_ms:30_000 ~what:"supervised daemon")
  in
  (match status with
   | Unix.WEXITED 0 -> ()
   | s ->
     Alcotest.failf "supervised drain must exit 0, got %s" (status_name s));
  (* the crash stream fired and the supervisor brought the worker back *)
  Alcotest.(check bool) "at least one supervisor restart" true
    (contains err "xq-supervisor: worker")

let suites =
  [
    ( "lifecycle-protocol",
      [
        Alcotest.test_case "RETRY-AFTER-MS hint round trip" `Quick
          test_retry_hint_roundtrip;
        Alcotest.test_case "oversized counted fields answered USAGE" `Quick
          test_oversized_request_bounded;
        Alcotest.test_case "client bounds response frames" `Quick
          test_client_bounds_response_frames;
      ] );
    ( "lifecycle-connections",
      [
        Alcotest.test_case "connection cap refuses with hint" `Quick
          test_connection_cap;
        Alcotest.test_case "live socket is not stolen (in-process)" `Quick
          test_inprocess_socket_guard;
      ] );
    ( "lifecycle-drain",
      [
        Alcotest.test_case "drain completes in-flight, refuses new" `Quick
          test_drain_completes_inflight;
        Alcotest.test_case "drain deadline cancels stragglers" `Quick
          test_drain_cancels_stragglers;
        Alcotest.test_case "drain deadline cancels queued requests" `Quick
          test_drain_cancels_queued;
      ] );
    ( "lifecycle-client",
      [
        Alcotest.test_case "backoff honours RETRY-AFTER-MS" `Quick
          test_client_honors_retry_hints;
        Alcotest.test_case "reconnects to a late server" `Quick
          test_client_reconnects_to_late_server;
      ] );
    ( "lifecycle-daemon",
      [
        Alcotest.test_case "handled signals never kill the accept loop" `Quick
          test_daemon_survives_signals;
        Alcotest.test_case "refuses to steal a live socket" `Quick
          test_daemon_refuses_live_socket;
        Alcotest.test_case "SIGTERM drains under load, exit 0" `Quick
          test_daemon_drains_under_load;
      ] );
    ( "server-chaos",
      [
        Alcotest.test_case "supervised corpus run under kill faults" `Quick
          test_supervised_chaos;
      ] );
  ]
