(** Per-query resource governor: wall-clock deadlines, cardinality and
    memory budgets, cooperative cancellation, and the seeded
    fault-injection hook used by the robustness test suites.

    The engine's hot loops call {!tick}, which is a domain-local load
    when no governor is installed. Install one with {!with_governor}
    (or build one from CLI flags / environment with {!of_limits});
    while installed, each tick bumps the calling domain's install
    counter, and every 64th tick reads the cancellation flags and runs
    the expensive checks (deadline, fault draw, and — less often — the
    Gc memory estimate), so a crossed limit is detected within one
    stride of ticks without any shared read-modify-write on the hot
    path. Trips raise [Xerror.Error] with the [XQENG*] codes:
    [XQENG0001] timeout, [XQENG0002] memory, [XQENG0003] group
    cardinality, [XQENG0004] cancelled, [XQENG0005] input limit,
    [XQENG0006] spill I/O, [XQENG0008] streamed-read I/O. *)

type t

type trip_kind =
  | Timeout
  | Memory
  | Groups
  | Cancelled
  | Input
  | SpillIo
  | ReadIo

val kind_name : trip_kind -> string

(** [create ?timeout_ms ?max_groups ?max_mem_mb ?spill_watermark_bytes
    ?max_input_bytes ?max_depth ?config ()] builds a governor. Omitted
    limits are unlimited. The memory budget combines a [Gc.quick_stat]
    heap delta from the governor's creation point with bytes explicitly
    counted via {!charge_bytes}. [spill_watermark_bytes] is the soft
    threshold on counted bytes above which pressure callbacks fire;
    when omitted, spilling stays off (only {!of_config} defaults it,
    to half the memory budget). [config] (default: the environment)
    gives the spill directory and switch. *)
val create :
  ?timeout_ms:int ->
  ?max_groups:int ->
  ?max_mem_mb:int ->
  ?spill_watermark_bytes:int ->
  ?max_input_bytes:int ->
  ?max_depth:int ->
  ?config:Config.t ->
  unit ->
  t

(** The governor of a query configured as [c]. Returns [None] when no
    limit is set and fault injection is off — i.e. when running
    governed would be pure overhead — unless [force] is set; [Some] of
    an unlimited governor when only faults are configured, so tick
    points are armed for injection. The spill watermark is
    [spill_watermark_bytes], else [c.spill_at_mb], else half the memory
    budget (degrade before dying; [--no-spill] / [XQ_NO_SPILL=1] give
    pure hard-trip behaviour). *)
val of_config : ?force:bool -> ?spill_watermark_bytes:int -> Config.t -> t option

(** {!of_config} of the environment under these explicit limits. *)
val of_limits :
  ?timeout_ms:int ->
  ?max_groups:int ->
  ?max_mem_mb:int ->
  ?spill_watermark_bytes:int ->
  unit ->
  t option

(** The configuration the governor was created with. *)
val config : t -> Config.t

(** Reset the Gc-delta memory baseline to the current heap. The CLI
    calls this after parsing the input document so [--max-mem] budgets
    the query's own materializations rather than the document (which
    [XQ_MAX_INPUT] governs separately). *)
val rebaseline : t -> unit

(** {1 Installation} *)

(** [with_governor g f] installs [g] on the {e calling domain} for the
    duration of [f], restoring the previous install on exit (normal or
    exceptional). An install is this domain's part of the query: [g]
    itself, a tick count starting at 0, and a stack of pressure
    callbacks. [Par.run_tasks] carries it across a fork: a task that
    runs on the forking domain keeps that domain's install, a task on
    another domain gets a fresh install of the same [g], so the query's
    whole fork-join tree ticks, charges and cancels against one
    governor. Installs are per-domain, not per-thread: sys-threads
    sharing a domain share its install, so concurrent queries each need
    a domain of their own (the server runs each on a pool worker) or
    must serialize. *)
val with_governor : t -> (unit -> 'a) -> 'a

(** The same as {!with_governor}; kept for existing callers. *)
val with_scoped_governor : t -> (unit -> 'a) -> 'a

(** The governor installed on the calling domain, if any. *)
val current : unit -> t option

(** {1 Tick points} *)

(** The cheap check called from hot loops: a domain-local load and,
    when a governor is installed, a counter increment. May raise
    [Xerror.Error] with an [XQENG*] code. *)
val tick : unit -> unit

(** [count_groups n] records [n] newly created groups against the
    installed governor's cardinality budget; raises [XQENG0003] when
    the budget is exceeded. No-op when no governor is installed. *)
val count_groups : int -> unit

(** [charge_bytes n] counts [n] materialized bytes (canonical keys,
    group cells) against the memory budget, checking it immediately;
    raises [XQENG0002] on exhaustion. When the running total crosses
    the soft spill watermark, the calling domain's innermost pressure
    callback (see {!with_pressure_callback}) runs first, and the hard budget is
    re-checked against whatever the callback left charged. No-op when
    uninstalled. *)
val charge_bytes : int -> unit

(** [uncharge_bytes n] returns [n] previously charged bytes to the
    budget — called after a spill writes state out of memory. No-op
    when uninstalled. *)
val uncharge_bytes : int -> unit

(** {1 Resident-byte accounting (query server)}

    The server's shared caches charge their resident bytes against an
    explicit long-lived "house" governor that is never installed:
    plain counters feeding the admission gauge — no pressure callbacks,
    no hard trip (admission rejects new work instead of killing the
    cache). *)

(** Count [n] resident bytes on [g] (peak tracked, nothing raised). *)
val charge_on : t -> int -> unit

val uncharge_on : t -> int -> unit
val charged_on : t -> int

(** [pressure_on g]: is [g]'s memory estimate (counted bytes + Gc-heap
    delta from its baseline) past its soft watermark? The spill
    machinery's pressure gauge applied to a whole process — the query
    server's admission signal. Always [false] when [g] has no
    watermark. *)
val pressure_on : t -> bool

(** {1 Memory pressure and spilling} *)

(** [with_pressure_callback f body] pushes [f] on the calling domain's
    install for the duration of [body]: whenever a {!charge_bytes} on
    this domain pushes the counted total past the soft watermark (or a
    slow tick finds the memory estimate near it), the innermost
    callback runs (outside any lock, re-entrancy guarded) and is
    expected to spill state and {!uncharge_bytes} it. [f] only ever
    runs on the pushing domain. With no governor installed, [body]
    simply runs: there is no watermark to cross. *)
val with_pressure_callback : (unit -> unit) -> (unit -> 'a) -> 'a

(** [true] when a governor with a finite spill watermark is installed
    — i.e. spilling can be triggered at all. *)
val spill_armed : unit -> bool

(** The installed soft watermark in bytes, [max_int] when spilling is
    off. Spill paths derive replay/repartition thresholds from it. *)
val spill_watermark : unit -> int

(** [true] while counted bytes exceed the soft watermark. *)
val under_pressure : unit -> bool

(** [note_spill ~bytes ~files ~repartitions] accumulates spill activity
    into the installed governor's stats. No-op when uninstalled. *)
val note_spill : bytes:int -> files:int -> repartitions:int -> unit

(** Record a spill-I/O trip on the installed governor (if any) and
    raise [XQENG0006] with [msg]. *)
val spill_trip : string -> 'a

(** {1 Cancellation} *)

(** [cancel g] sets the sticky cancellation flag; every domain ticking
    against [g] raises [XQENG0004] within one stride of ticks. *)
val cancel : t -> unit

val cancelled : t -> bool

(** Scoped sibling-abort marks, used by [Par.run_tasks]: while at least
    one abort mark is held, ticks raise [XQENG0004]; marks are released
    once the failing pool has joined, so the enclosing query can still
    report the original error. No-ops when no governor is installed. *)
val begin_abort : unit -> unit

val end_abort : unit -> unit
val pending_aborts : t -> int

(** {1 Input limits (XML parser)} *)

(** [(max_depth, max_input_bytes)] of the installed governor, or
    [(None, None)]. *)
val input_limits : unit -> int option * int option

(** Record an input-limit trip on the installed governor (if any) and
    raise [XQENG0005]. *)
val input_trip : string -> 'a

(** Record a read-I/O trip on the installed governor (if any) and raise
    [XQENG0008] with [msg] — the streaming XML reader's analogue of
    {!spill_trip}, for real read errors and injected faults alike. *)
val read_trip : string -> 'a

(** {1 Fault injection} *)

(** [set_faults ~seed ~rate] arms the deterministic fault streams, as
    does [XQ_FAULTS=<seed>:<rate>] (read once per process). [rate] is
    a probability in [0,1] applied independently to each draw. *)
val set_faults : seed:int -> rate:float -> unit

val clear_faults : unit -> unit
val faults_enabled : unit -> bool

(** Drawn by [Par] before queueing each fork-join sibling on the pool;
    [true] means "pretend no worker could be spawned" and run it
    inline on the caller (the sequential fallback). Always [false]
    when faults are off. *)
val spawn_fault : unit -> bool

(** Drawn by [Spill] before file opens and frame writes; [Some seed]
    means "pretend this I/O operation failed" (the seed goes into the
    error message). A distinct splitmix64 stream from {!spawn_fault}
    and the allocation-pressure stream, so arming it does not perturb
    their draws. Always [None] when faults are off. *)
val io_fault : unit -> int option

(** Drawn by the query server around connection reads and response
    writes; [Some seed] means "pretend the client vanished here" — the
    server must drop the connection without corrupting any shared
    state. A fourth distinct splitmix64 stream; always [None] when
    faults are off. *)
val conn_fault : unit -> int option

(** Opt the process into worker-crash faults. A drawn crash fault makes
    the serving process kill itself abruptly mid-query — survivable
    only under a supervisor — so the fifth stream is doubly gated:
    [XQ_FAULTS] must be armed {e and} this switch thrown ([xq-server
    serve] throws it under [--chaos-crash]). In-process
    suites that arm [XQ_FAULTS] for the other streams never draw
    one. [rate] overrides the shared [XQ_FAULTS] rate for the crash
    stream only, so a chaos harness can crash often while keeping
    alloc/conn noise rare. *)
val arm_crash_faults : ?rate:float -> unit -> unit

val disarm_crash_faults : unit -> unit

(** Drawn by the query server at worker crash points; [Some seed] means
    "the worker process dies right here". A fifth distinct splitmix64
    stream; always [None] unless both gates are open. *)
val crash_fault : unit -> int option

(** Drawn by the streaming XML reader before each chunk refill; [Some
    seed] means "this read goes wrong here" — the reader cycles
    deterministically through short reads, EIO, truncation and torn
    reads so a seed sweep exercises every mode. A sixth distinct
    splitmix64 stream; always [None] when faults are off. *)
val read_fault : unit -> int option

(** {1 Stats} *)

type stats = {
  s_ticks : int;
      (** ticks observed so far, counted in stride batches (a domain's
          partial stride is not flushed), so a lower bound *)
  s_groups : int;
  s_charged_bytes : int;
  s_peak_mem_bytes : int;
  s_trips : (trip_kind * int) list;  (** only kinds with [n > 0] *)
  s_injected_allocs : int;
  s_spilled_bytes : int;
  s_spill_files : int;
  s_repartitions : int;
}

val stats : t -> stats

(** One-line rendering used by EXPLAIN ANALYZE and [profile]. *)
val summary : t -> string
