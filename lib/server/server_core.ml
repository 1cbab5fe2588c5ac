module Governor = Xq_governor.Governor
module Pipeline = Xq_pipeline.Pipeline
module Xerror = Xq_xdm.Xerror

type config = {
  c_plan_capacity : int;
  c_doc_capacity_bytes : int;
  c_max_concurrent : int;
  c_admission_watermark_mb : int option;
  c_max_request_bytes : int;
  c_max_connections : int;
  c_drain_timeout_ms : int;
  c_retry_after_ms : int;
  c_knobs : Pipeline.knobs;
}

let default_config =
  {
    c_plan_capacity = 64;
    c_doc_capacity_bytes = 256 * 1024 * 1024;
    c_max_concurrent = 8;
    c_admission_watermark_mb = Some 1024;
    c_max_request_bytes = 8 * 1024 * 1024;
    c_max_connections = 64;
    c_drain_timeout_ms = 5000;
    c_retry_after_ms = 200;
    c_knobs = Pipeline.default_knobs;
  }

type counters = {
  mutable n_ok : int;
  mutable n_err_usage : int;
  mutable n_err_static : int;
  mutable n_err_dynamic : int;
  mutable n_err_resource : int;
  mutable n_rejected : int;
  mutable n_conn_drops : int;
  mutable n_active : int;
  mutable n_conn_active : int;
  mutable n_conn_rejected : int;
  mutable n_drain_cancelled : int;
}

(* One admitted request, from admission to its response. [gov] is its
   governor once the query has created it; [cancelled] reaches a
   request still waiting in the pool queue, which has no governor yet. *)
type ticket = { mutable gov : Governor.t option; mutable cancelled : bool }

type t = {
  cfg : config;
  house : Governor.t;
  plan_cache : Plan_cache.t;
  doc_store : Doc_store.t;
  lock : Mutex.t;  (* guards counters (admission decisions included)
                      and the in-flight table *)
  counters : counters;
  inline_lock : Mutex.t;  (* serializes the no-pool-worker fallback *)
  draining : bool Atomic.t;  (* flipped from signal handlers: Atomic.set
                                is async-signal-safe, Mutex.lock is not *)
  mutable inflight : ticket list;
}

let create ?(config = default_config) () =
  (* The house governor is a gauge, never installed: its watermark is
     the admission threshold, its charged bytes are the caches'
     resident estimates, and its Gc baseline is the freshly started
     server so heap growth counts too. No watermark = max_int keeps
     pressure_on constantly false. *)
  let house =
    Governor.create
      ?spill_watermark_bytes:
        (Option.map
           (fun mb -> mb * 1024 * 1024)
           config.c_admission_watermark_mb)
      ()
  in
  {
    cfg = config;
    house;
    plan_cache =
      Plan_cache.create ~capacity:config.c_plan_capacity ~account:house ();
    doc_store =
      Doc_store.create ~capacity_bytes:config.c_doc_capacity_bytes
        ~account:house ();
    lock = Mutex.create ();
    counters =
      {
        n_ok = 0;
        n_err_usage = 0;
        n_err_static = 0;
        n_err_dynamic = 0;
        n_err_resource = 0;
        n_rejected = 0;
        n_conn_drops = 0;
        n_active = 0;
        n_conn_active = 0;
        n_conn_rejected = 0;
        n_drain_cancelled = 0;
      };
    inline_lock = Mutex.create ();
    draining = Atomic.make false;
    inflight = [];
  }

let house t = t.house
let plans t = t.plan_cache
let docs t = t.doc_store

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let active t = locked t (fun () -> t.counters.n_active)

(* --- drain state --------------------------------------------------------- *)

let request_drain t = Atomic.set t.draining true
let draining t = Atomic.get t.draining

(* The in-flight table: a ticket per admitted request, queued or
   executing, so the drain deadline can reach all of them with
   cooperative cancellation. *)
let register_inflight t =
  let k = { gov = None; cancelled = false } in
  locked t (fun () -> t.inflight <- k :: t.inflight);
  k

let unregister_inflight t k =
  locked t (fun () -> t.inflight <- List.filter (( != ) k) t.inflight)

(* The request's governor exists: record it, and cancel it at once if
   the drain got to the ticket first. *)
let attach_governor t k g =
  locked t (fun () ->
      k.gov <- Some g;
      if k.cancelled then Governor.cancel g)

(* The first thing a request does on its worker: a request cancelled
   while it waited in the pool queue fails exactly like an executing
   one its governor cancelled, before producing anything. *)
let check_cancelled t k =
  if locked t (fun () -> k.cancelled) then
    Xerror.fail Xerror.XQENG0004 "query cancelled"

(* Cancel every in-flight query, queued or executing (each raises
   XQENG0004 — at its start or within one governor stride — and answers
   its client with a clean ERR). Returns how many were cancelled. *)
let cancel_inflight t =
  locked t (fun () ->
      List.iter
        (fun k ->
          k.cancelled <- true;
          Option.iter Governor.cancel k.gov)
        t.inflight;
      let n = List.length t.inflight in
      t.counters.n_drain_cancelled <- t.counters.n_drain_cancelled + n;
      n)

(* --- request knobs over server defaults -------------------------------- *)

(* The server's own configuration: its [c_knobs] over the environment,
   resolved afresh for each use so a changed environment reaches the
   next request. Request headers override it field-wise. *)
let base_config t = Pipeline.resolve t.cfg.c_knobs

(* --- error taxonomy ----------------------------------------------------- *)

(* The server's ERR responses carry the CLI's exit-code families so a
   client scripting against either front end sees one taxonomy. *)
let response_of_exn e : Protocol.response =
  match e with
  | Xerror.Error (code, msg) ->
    Protocol.Error
      {
        code = Xerror.code_to_string code;
        exit = Xerror.exit_code code;
        message = Xerror.to_message code msg;
        retry_after_ms = None;
      }
  | Protocol.Protocol_error m ->
    Protocol.Error { code = "USAGE"; exit = 1; message = m; retry_after_ms = None }
  | Sys_error m ->
    Protocol.Error { code = "IOERR"; exit = 3; message = m; retry_after_ms = None }
  | e -> begin
    match Xq_xml.Xml_parse.error_to_string e with
    | Some m ->
      Protocol.Error
        { code = "XMLPARSE"; exit = 3; message = m; retry_after_ms = None }
    | None ->
      Protocol.Error
        {
          code = "INTERNAL";
          exit = 3;
          message = Printexc.to_string e;
          retry_after_ms = None;
        }
  end

let count_response t (r : Protocol.response) =
  locked t (fun () ->
      let c = t.counters in
      match r with
      | Protocol.Payload _ -> c.n_ok <- c.n_ok + 1
      | Protocol.Error { exit; _ } -> begin
        match exit with
        | 1 -> c.n_err_usage <- c.n_err_usage + 1
        | 2 -> c.n_err_static <- c.n_err_static + 1
        | 4 -> c.n_err_resource <- c.n_err_resource + 1
        | _ -> c.n_err_dynamic <- c.n_err_dynamic + 1
      end)

(* --- admission ---------------------------------------------------------- *)

(* An XQENG0007 refusal carrying the backoff hint a retrying client
   should honour. *)
let rejection ~why ~retry_after_ms =
  let e = Xerror.Error (Xerror.XQENG0007, "admission rejected: " ^ why) in
  match response_of_exn e with
  | Protocol.Error { code; exit; message; _ } ->
    Protocol.Error
      { code; exit; message; retry_after_ms = Some retry_after_ms }
  | Protocol.Payload _ -> assert false

(* Admit-or-reject must be atomic with the active-count bump, or two
   racing requests both squeeze under the cap. The draining check comes
   first: a draining server refuses everything, hinting clients to come
   back once the drain window has passed (by then either this process
   is gone and a supervisor brought a fresh one up, or the retry fails
   to connect — also retryable). *)
let try_admit t =
  if Atomic.get t.draining then begin
    locked t (fun () -> t.counters.n_rejected <- t.counters.n_rejected + 1);
    Error ("server draining", t.cfg.c_drain_timeout_ms)
  end
  else
    locked t (fun () ->
        let c = t.counters in
        if c.n_active >= t.cfg.c_max_concurrent then begin
          c.n_rejected <- c.n_rejected + 1;
          Error
            ( Printf.sprintf "server at concurrency cap (%d active)" c.n_active,
              t.cfg.c_retry_after_ms )
        end
        else if Governor.pressure_on t.house then begin
          c.n_rejected <- c.n_rejected + 1;
          Error
            ( Printf.sprintf "server memory watermark hot (%d resident bytes)"
                (Governor.charged_on t.house),
              t.cfg.c_retry_after_ms )
        end
        else begin
          c.n_active <- c.n_active + 1;
          Ok ()
        end)

let release t = locked t (fun () -> t.counters.n_active <- t.counters.n_active - 1)

(* --- injected worker crashes --------------------------------------------- *)

(* A drawn crash fault kills the serving process abruptly — SIGKILL to
   self, no cleanup, no flushes — exactly what a segfault or OOM kill
   would look like from outside. Only survivable under the supervisor;
   the stream is double-gated in [Governor] so it never fires unless
   the daemon explicitly armed it. *)
let crash_point what =
  match Governor.crash_fault () with
  | Some seed ->
    Printf.eprintf "xq-server: injected worker crash at %s (seed %d)\n%!" what
      seed;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | None -> ()

(* --- query execution ---------------------------------------------------- *)

let run_request t (rq : Protocol.run_request) =
  let config = Pipeline.resolve ~base:(base_config t) rq.rq_knobs in
  let key = Pipeline.cache_key ~config rq.rq_source in
  (* Everything below runs on a pool worker: compilation (so a parse
     error costs the client, not the accept loop), document loading
     (resident store for paths, per-query parse for inline XML) and
     evaluation under the query's own governor, installed on the
     worker's domain. *)
  let ticket = register_inflight t in
  let work () =
    check_cancelled t ticket;
    crash_point "query start";
    let compiled =
      Plan_cache.find_or_add t.plan_cache key (fun () ->
          Pipeline.compile ~rewrite:config.Xq_governor.Config.rewrite
            rq.rq_source)
    in
    (* A STREAM request bypasses the resident document store: the point
       of streaming a one-shot document is precisely not to materialize
       (or cache) it. Without the explicit header, a path goes through
       the store, which keeps whole trees. An inline document is a
       per-query load either way, so the pipeline's one load decision
       streams, projects or parses it whole. *)
    let streaming = rq.rq_knobs.Pipeline.k_stream = Some true in
    let load_doc, stream_source =
      match rq.rq_doc with
      | Protocol.Doc_none -> (None, None)
      | Protocol.Doc_path p ->
        if streaming then (None, Some (`File p))
        else (Some (fun () -> Doc_store.load t.doc_store p), None)
      | Protocol.Doc_inline xml -> (None, Some (`String xml))
    in
    (* every server query is governed (unlimited if no knob set a
       limit), so a drain deadline can cancel it cooperatively *)
    let report =
      Pipeline.run ~force_governor:true
        ~on_governor:(attach_governor t ticket) ~config ~indent:rq.rq_indent
        ~compiled ?load_doc ?stream_source ()
    in
    crash_point "before response";
    (* match the CLI byte for byte: [xq run] prints the rendering with
       print_endline, so the payload carries the trailing newline *)
    report.Pipeline.r_output ^ "\n"
  in
  Fun.protect
    ~finally:(fun () -> unregister_inflight t ticket)
    (fun () ->
      match Xq_par.Par.on_pool work with
      | Some payload -> payload
      | None ->
        (* no pool worker can be spawned: run on this thread,
           serialized so two inline queries never share the calling
           domain's governor install *)
        Mutex.protect t.inline_lock work)

(* --- stats -------------------------------------------------------------- *)

let stats_text t =
  let c, active =
    locked t (fun () ->
        ( { t.counters with n_ok = t.counters.n_ok },
          t.counters.n_active ))
  in
  let p = Plan_cache.stats t.plan_cache in
  let d = Doc_store.stats t.doc_store in
  let b = Buffer.create 512 in
  let line k v = Buffer.add_string b (Printf.sprintf "%s %d\n" k v) in
  line "pid" (Unix.getpid ());
  line "draining" (if Atomic.get t.draining then 1 else 0);
  line "active" active;
  line "conn_active" c.n_conn_active;
  line "conn_rejected" c.n_conn_rejected;
  line "served_ok" c.n_ok;
  line "err_usage" c.n_err_usage;
  line "err_static" c.n_err_static;
  line "err_dynamic" c.n_err_dynamic;
  line "err_resource" c.n_err_resource;
  line "admission_rejects" c.n_rejected;
  line "drain_cancelled" c.n_drain_cancelled;
  line "pool_workers" (Xq_par.Par.pool_workers ());
  line "pool_queued" (Xq_par.Par.pool_queued ());
  line "conn_drops" c.n_conn_drops;
  line "plan_hits" p.Plan_cache.p_hits;
  line "plan_misses" p.Plan_cache.p_misses;
  line "plan_evictions" p.Plan_cache.p_evictions;
  line "plan_entries" p.Plan_cache.p_entries;
  line "doc_hits" d.Doc_store.d_hits;
  line "doc_misses" d.Doc_store.d_misses;
  line "doc_evictions" d.Doc_store.d_evictions;
  line "doc_invalidations" d.Doc_store.d_invalidations;
  line "doc_entries" d.Doc_store.d_entries;
  line "resident_bytes" (Governor.charged_on t.house);
  (* batched-execution counters: dictionary size/interns are process-wide
     (the intern table is shared by all resident queries) *)
  line "dict_entries" (Xq_engine.Key.dict_size ());
  line "dict_interns" (Xq_engine.Key.intern_count ());
  line "batch_size" (base_config t).Xq_governor.Config.batch;
  Buffer.contents b

(* --- command dispatch --------------------------------------------------- *)

let handle t (cmd : Protocol.command) : Protocol.response =
  match cmd with
  | Protocol.Ping -> Protocol.Payload "pong"
  | Protocol.Stats -> Protocol.Payload (stats_text t)
  | Protocol.Quit -> Protocol.Payload "bye"
  | Protocol.Run rq -> begin
    match try_admit t with
    | Error (why, retry_after_ms) ->
      let r = rejection ~why ~retry_after_ms in
      count_response t r;
      r
    | Ok () ->
      let r =
        Fun.protect
          ~finally:(fun () -> release t)
          (fun () ->
            match run_request t rq with
            | payload -> Protocol.Payload payload
            | exception e -> response_of_exn e)
      in
      count_response t r;
      r
  end

(* --- connections -------------------------------------------------------- *)

exception Connection_lost of string
exception Socket_in_use of string

let note_drop t = locked t (fun () ->
    t.counters.n_conn_drops <- t.counters.n_conn_drops + 1)

(* The seeded connection-fault stream makes "client vanished here"
   deterministic: a drawn fault at a read or write boundary behaves
   exactly like the peer closing mid-exchange. *)
let conn_point what =
  match Governor.conn_fault () with
  | Some seed ->
    raise
      (Connection_lost (Printf.sprintf "injected connection fault at %s (seed %d)" what seed))
  | None -> ()

let serve_connection t ic oc =
  let rec loop () =
    conn_point "read";
    match Protocol.read_command ~max_field_bytes:t.cfg.c_max_request_bytes ic with
    | None -> ()
    | exception (Protocol.Protocol_error _ as e) ->
      (* malformed framing: answer USAGE and keep the connection — each
         bad line costs one response, and EOF ends the loop *)
      let r = response_of_exn e in
      count_response t r;
      conn_point "write";
      Protocol.write_response oc r;
      loop ()
    | Some cmd -> begin
      let resp = handle t cmd in
      conn_point "write";
      Protocol.write_response oc resp;
      match cmd with Protocol.Quit -> () | _ -> loop ()
    end
  in
  try loop () with
  | Connection_lost _ | End_of_file -> note_drop t
  | Sys_error _ ->
    (* EPIPE from a vanished client (SIGPIPE is ignored) *)
    note_drop t

(* --- the accept loop ----------------------------------------------------- *)

(* Signals interrupt slow syscalls: any OCaml-handled signal landing
   while the accept loop sits in select(2) or accept(2) surfaces as
   EINTR, which is routine, not an error — retry and let the loop
   re-check its stop/drain flags. (Before this wrapper existed, a
   single stray SIGUSR1 crashed the daemon out of its accept loop.) *)
let select_intr readers timeout =
  match Unix.select readers [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Is a live server already answering on [path]? Distinguishes a stale
   socket file (previous daemon died without unlinking — safe to
   replace) from a running daemon whose socket we must not steal. *)
let live_server_at path =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | sock ->
    let finish r =
      (try Unix.close sock with Unix.Unix_error _ -> ());
      r
    in
    (try
       (* bounded probe: a wedged server that accepts but never answers
          should not hang startup forever *)
       Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
       Unix.setsockopt_float sock Unix.SO_SNDTIMEO 2.0;
       Unix.connect sock (Unix.ADDR_UNIX path);
       let ic = Unix.in_channel_of_descr sock in
       let oc = Unix.out_channel_of_descr sock in
       Protocol.write_command oc Protocol.Stats;
       match Protocol.read_response ic with
       | Protocol.Payload stats ->
         let pid =
           String.split_on_char '\n' stats
           |> List.find_map (fun line ->
                  match String.split_on_char ' ' line with
                  | [ "pid"; v ] -> int_of_string_opt v
                  | _ -> None)
         in
         finish (Some pid)
       | Protocol.Error _ -> finish (Some None)
     with
     | Unix.Unix_error _ | Sys_error _ | End_of_file
     | Protocol.Protocol_error _ ->
       finish None)

let prepare_socket_path path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> begin
    match live_server_at path with
    | Some pid ->
      raise
        (Socket_in_use
           (Printf.sprintf
              "a live xq-server%s is already serving on %s; refusing to \
               steal its socket"
              (match pid with
               | Some p -> Printf.sprintf " (pid %d)" p
               | None -> "")
              path))
    | None -> Unix.unlink path  (* stale: previous daemon died uncleanly *)
  end
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Per-connection bookkeeping for the thread cap. Admission control
   bounds executing queries; this bounds parked file descriptors and
   their threads — idle connections used to pile up unbounded. *)
let try_conn_admit t =
  locked t (fun () ->
      let c = t.counters in
      if c.n_conn_active >= t.cfg.c_max_connections then begin
        c.n_conn_rejected <- c.n_conn_rejected + 1;
        false
      end
      else begin
        c.n_conn_active <- c.n_conn_active + 1;
        true
      end)

let conn_release t =
  locked t (fun () ->
      t.counters.n_conn_active <- t.counters.n_conn_active - 1)

type drain_report = {
  dr_inflight_at_drain : int;
  dr_cancelled : int;
  dr_elapsed_ms : int;
}

(* Wait for in-flight queries to finish, up to the drain window; past
   it, cancel the stragglers' governors and wait (briefly) for the
   cancellations to land so worker domains are joined before exit. *)
let drain t =
  let deadline =
    Unix.gettimeofday () +. (float_of_int t.cfg.c_drain_timeout_ms /. 1000.0)
  in
  let started = Unix.gettimeofday () in
  let inflight_at_drain = active t in
  let rec wait_until until =
    if active t > 0 && Unix.gettimeofday () < until then begin
      Thread.delay 0.01;
      wait_until until
    end
  in
  wait_until deadline;
  let cancelled = if active t > 0 then cancel_inflight t else 0 in
  if cancelled > 0 then
    (* a cancelled query trips within one governor stride; a second,
       fixed grace window lets the trip propagate and the ERR flush *)
    wait_until (Unix.gettimeofday () +. 2.0);
  {
    dr_inflight_at_drain = inflight_at_drain;
    dr_cancelled = cancelled;
    dr_elapsed_ms =
      int_of_float ((Unix.gettimeofday () -. started) *. 1000.0);
  }

let serve_unix t ~path ~stop () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  prepare_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let listener_open = ref true in
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
    end
  in
  Fun.protect ~finally:close_listener (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      while not (stop ()) && not (Atomic.get t.draining) do
        (* poll the listener so [stop] and the drain flag are honoured
           within a beat even with no clients arriving *)
        match select_intr [ sock ] 0.2 with
        | [] -> ()
        | _ -> begin
          match Unix.accept sock with
          | exception Unix.Unix_error _ ->
            (* EINTR (a handled signal landed here instead of in
               select), ECONNABORTED, fd pressure: all retryable *)
            ()
          | fd, _ ->
            if not (try_conn_admit t) then begin
              (* over the connection cap: one refusal frame, then
                 close — the client's retry layer backs off *)
              let oc = Unix.out_channel_of_descr fd in
              (try
                 Protocol.write_response oc
                   (rejection ~why:"server at connection cap"
                      ~retry_after_ms:t.cfg.c_retry_after_ms)
               with Sys_error _ -> ());
              (try flush oc with Sys_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
            else begin
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              ignore
                (Thread.create
                   (fun () ->
                     Fun.protect
                       ~finally:(fun () ->
                         conn_release t;
                         (* both channels share [fd]: flush, then close
                            the descriptor exactly once — a second
                            close(2) could race a concurrent accept that
                            reused the number and kill its connection *)
                         (try flush oc with Sys_error _ -> ());
                         try Unix.close fd with Unix.Unix_error _ -> ())
                       (fun () -> serve_connection t ic oc))
                   ())
            end
        end
      done;
      (* drain: stop accepting at once — connects from here on are
         refused by the kernel, which the client retry layer treats
         like any other connection failure — then see the in-flight
         queries out *)
      close_listener ();
      drain t)
