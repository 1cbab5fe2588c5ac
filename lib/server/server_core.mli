(** The query server's engine room: one resident process multiplexing
    concurrent queries over shared caches.

    Three pieces from the rest of the tree meet here:

    - {!Plan_cache} and {!Doc_store} hold compiled plans and parsed
      documents across requests, charging their resident bytes to a
      long-lived {e house} governor that is never installed — it is a
      plain gauge, not a tripwire.
    - Admission control consults that gauge before each query: when the
      house estimate (resident bytes + process heap growth) is past its
      watermark, or the concurrency cap is reached, the request is
      refused up front with [XQENG0007] (exit family 4) and a
      [RETRY-AFTER-MS] backoff hint instead of being started and
      starved. Refusal is cheap and retryable; the PR 4 spill machinery
      already makes admitted queries degrade rather than die.
    - Each admitted query runs on a worker of the process's one
      long-lived domain pool ({!Xq_par.Par.on_pool}; at most one worker
      per core, spawned lazily and reused), under its own governor,
      installed on that worker's domain
      ({!Xq_governor.Governor.with_governor}), so per-query deadlines, budgets and cancellation never touch a
      neighbour. Admitted queries beyond the worker count wait in the
      pool's queue. Execution goes through {!Xq_pipeline.Pipeline} — the
      identical compile-and-run path the CLI, REPL and fuzzer use, so
      server output is byte-identical to [xq run].

    {b Lifecycle.} {!request_drain} (wired to SIGTERM/SIGINT by the
    daemon, async-signal-safe) flips the server into draining mode: the
    accept loop closes the listener at once, new [RUN]s on surviving
    connections are refused with [XQENG0007] plus a [RETRY-AFTER-MS]
    hint of the drain window, in-flight queries get
    [c_drain_timeout_ms] to finish, and any stragglers — executing, or
    still waiting in the pool queue — are then cooperatively cancelled
    ([XQENG0004] — a clean ERR to their clients, never partial
    output). {!serve_unix} returns a {!drain_report} once drained.

    Connection handling injects faults from the seeded [XQ_FAULTS]
    connection stream ({!Xq_governor.Governor.conn_fault}): a drawn
    fault behaves exactly like a client vanishing mid-exchange, and the
    server must shrug — drop the connection, keep every shared
    structure consistent, keep serving. The fifth (worker-crash)
    stream, when the daemon arms it, kills the whole serving process at
    a crash point mid-query; surviving that is the supervisor's job. *)

type config = {
  c_plan_capacity : int;  (** plan-cache entries (default 64) *)
  c_doc_capacity_bytes : int;  (** doc-store resident bound (default 256 MB) *)
  c_max_concurrent : int;  (** admission concurrency cap (default 8) *)
  c_admission_watermark_mb : int option;
      (** house-governor soft watermark; [None] disables the memory
          gate (the concurrency cap still applies). Default 1024. *)
  c_max_request_bytes : int;
      (** counted-field cap on request frames — a longer [QUERY]/
          [DOCINLINE] length is answered [USAGE] before any
          allocation (default 8 MiB) *)
  c_max_connections : int;
      (** connection-thread cap, separate from query admission: idle
          connections park a thread and an fd each (default 64).
          Over-cap connects get one [XQENG0007] refusal frame and are
          closed. *)
  c_drain_timeout_ms : int;
      (** how long in-flight queries may keep running after
          {!request_drain} before cooperative cancellation
          (default 5000) *)
  c_retry_after_ms : int;
      (** the [RETRY-AFTER-MS] hint on load-based refusals
          (default 200); drain-mode refusals hint the drain window
          instead *)
  c_knobs : Xq_pipeline.Pipeline.knobs;
      (** the server's own configuration over the [XQ_*] environment
          ([Pipeline.resolve]); request headers override it field-wise *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

(** The house governor — tests saturate the admission gauge by charging
    bytes on it directly. *)
val house : t -> Xq_governor.Governor.t

val plans : t -> Plan_cache.t
val docs : t -> Doc_store.t

(** Queries currently executing (admitted, not yet finished). *)
val active : t -> int

(** Flip the server into draining mode. Async-signal-safe (one atomic
    store): the daemon calls it straight from its SIGTERM/SIGINT
    handlers. Idempotent. *)
val request_drain : t -> unit

val draining : t -> bool

(** Cancel every admitted query: an executing one through its
    governor (it trips [XQENG0004] within a stride), one still queued
    for a pool worker before it starts (it fails with the same
    [XQENG0004]). Each answers its client with a clean ERR. Returns how
    many were cancelled. The drain path calls this
    when the timeout expires; exposed for tests. *)
val cancel_inflight : t -> int

(** Handle one command synchronously; [Run] blocks until the query
    finishes (on a pool worker). Never raises — every failure
    is an [Error] response carrying the CLI exit-code family. *)
val handle : t -> Protocol.command -> Protocol.response

(** The [STATS] payload: one [key value] per line — pid, drain state,
    served/error counters by exit family, admission and connection
    rejects, drain cancellations, the domain pool's spawned workers and
    queued jobs ([pool_workers], [pool_queued]), connection drops, both
    caches' hit/miss/eviction counters, the key dictionary's size, and the
    batch size of the server's own configuration ([batch_size]). *)
val stats_text : t -> string

(** [serve_connection t ic oc] — read commands until [QUIT], EOF or a
    (possibly injected) connection fault, answering each on [oc].
    Request frames are bounded by [c_max_request_bytes]. Never raises;
    returns when the connection is done. *)
val serve_connection : t -> in_channel -> out_channel -> unit

(** Raised by {!serve_unix} instead of binding when a live server
    already answers on the socket path — stealing a serving daemon's
    socket would silently black-hole its clients. The message names
    the path and (when its STATS disclose one) the owning pid. *)
exception Socket_in_use of string

(** What the drain phase did: queries in flight when draining began,
    how many had to be cancelled at the deadline, and how long the
    drain took. *)
type drain_report = {
  dr_inflight_at_drain : int;
  dr_cancelled : int;
  dr_elapsed_ms : int;
}

(** [serve_unix t ~path ~stop ()] — bind a Unix-domain socket at
    [path] (replacing a {e stale} socket file only: if a live server
    answers there, raises {!Socket_in_use}), accept in a loop until
    [stop ()] becomes true or {!request_drain} is called, and serve
    each connection on its own thread (bounded by
    [c_max_connections]). Installs [Signal_ignore] for SIGPIPE so
    vanishing clients surface as [EPIPE] and are handled, not fatal;
    EINTR from handled signals restarts the accept loop. On
    stop/drain, closes the listener immediately, waits out in-flight
    queries per [c_drain_timeout_ms], cancels stragglers and returns
    the {!drain_report}. *)
val serve_unix :
  t -> path:string -> stop:(unit -> bool) -> unit -> drain_report
