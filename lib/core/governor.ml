(* Per-query resource governor.

   A [t] carries a wall-clock deadline, a group-cardinality budget, an
   approximate memory budget and a cooperative cancellation flag. Hot
   loops everywhere in the engine call the zero-argument [tick], which
   is a domain-local load (plus a branch) when no governor is
   installed, so the default configuration pays essentially nothing.
   When a governor is installed, a tick bumps the calling domain's
   install counter, and every [stride]-th tick reads the cancellation
   flags and runs the expensive checks (clock read, fault draw; the
   [Gc.quick_stat] memory estimate every [mem_stride]-th time) — a
   limit is therefore detected within one stride of ticks of being
   crossed.

   A governor's budgets and flags are atomics shared by every domain
   its query runs on, which is what makes cancellation reach sibling
   tasks; each of those domains reaches it through an install of its
   own (tick count, pressure callbacks), see [with_governor].

   Fault injection ([XQ_FAULTS=<seed>:<rate>], or [set_faults]) drives
   two deterministic splitmix64 streams: one consulted by [Par] before
   queueing each fork-join sibling on its domain pool (an injected
   failure makes that task fall back to the sequential path), one
   consulted at governor tick points (an injected trip raises the same
   [XQENG0002] a real allocation-pressure trip would). Both are
   designed so an injected run either completes byte-identically to the
   clean run or fails closed with a structured [XQENG*] error. *)

module Xerror = Xq_xdm.Xerror

type trip_kind = Timeout | Memory | Groups | Cancelled | Input | SpillIo | ReadIo

let kind_index = function
  | Timeout -> 0
  | Memory -> 1
  | Groups -> 2
  | Cancelled -> 3
  | Input -> 4
  | SpillIo -> 5
  | ReadIo -> 6

let kind_name = function
  | Timeout -> "timeout"
  | Memory -> "memory"
  | Groups -> "groups"
  | Cancelled -> "cancelled"
  | Input -> "input"
  | SpillIo -> "spill-io"
  | ReadIo -> "read-io"

let n_kinds = 7

type t = {
  deadline : float;  (* absolute wall-clock seconds; [infinity] = none *)
  max_groups : int;  (* [max_int] = none *)
  max_mem_bytes : int;  (* [max_int] = none *)
  spill_watermark : int;  (* soft pressure threshold on charged bytes;
                             [max_int] = spilling off *)
  max_input_bytes : int option;
  max_depth : int option;
  config : Config.t;  (* the query's; [Spill] reads its spill settings *)
  baseline_heap_words : int Atomic.t;  (* reset by [rebaseline] *)
  ticks : int Atomic.t;
  groups : int Atomic.t;
  charged : int Atomic.t;  (* counted materialization bytes (Key/Group) *)
  peak_mem : int Atomic.t;
  cancelled : bool Atomic.t;
  aborts : int Atomic.t;  (* sibling-failure aborts held by Par.run_tasks *)
  trips : int Atomic.t array;  (* per trip_kind *)
  injected_allocs : int Atomic.t;
  spilled_bytes : int Atomic.t;
  spill_files : int Atomic.t;
  repartitions : int Atomic.t;
}

(* How many ticks between expensive checks (clock, fault draw). *)
let stride = 64

(* [Gc.quick_stat] aggregates across domains and costs ~1µs, so the
   Gc-delta memory estimate runs only every [mem_stride]-th slow check
   (every [stride * mem_stride] = 4096 ticks, which amortizes to well
   under a nanosecond per tick). Counted [charge_bytes] are still
   checked immediately. *)
let mem_stride = 64

(* seconds on the monotonic clock: a deadline survives wall-clock steps *)
let now () = float_of_int (Clock.now_ns ()) *. 1e-9

let word_bytes = Sys.word_size / 8

(* [Gc.quick_stat]'s [heap_words] is refreshed by major-GC slices and
   reads 0 until the first one runs, so a baseline sampled early in the
   process would charge the runtime's whole startup heap (a few MB)
   against the query budget. Fall back to [Gc.stat] — which computes an
   accurate sample and refreshes the cached one — only on the stale-zero
   reading, keeping the common case at quick_stat cost. *)
let heap_words_now () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > 0 then h else (Gc.stat ()).Gc.heap_words

let create ?timeout_ms ?max_groups ?max_mem_mb ?spill_watermark_bytes
    ?max_input_bytes ?max_depth ?config () =
  let max_mem_bytes =
    match max_mem_mb with
    | Some n when n >= 0 -> n * 1024 * 1024
    | Some _ | None -> max_int
  in
  {
    deadline =
      (match timeout_ms with
       | Some ms when ms > 0 -> now () +. (float_of_int ms /. 1000.0)
       | Some _ | None -> infinity);
    max_groups =
      (match max_groups with Some n when n >= 0 -> n | Some _ | None -> max_int);
    max_mem_bytes;
    spill_watermark =
      (match spill_watermark_bytes with
       | Some n when n >= 0 -> n
       | Some _ | None -> max_int);
    max_input_bytes;
    max_depth;
    config =
      (match config with Some c -> c | None -> Config.resolve ());
    baseline_heap_words = Atomic.make (heap_words_now ());
    ticks = Atomic.make 0;
    groups = Atomic.make 0;
    charged = Atomic.make 0;
    peak_mem = Atomic.make 0;
    cancelled = Atomic.make false;
    aborts = Atomic.make 0;
    trips = Array.init n_kinds (fun _ -> Atomic.make 0);
    injected_allocs = Atomic.make 0;
    spilled_bytes = Atomic.make 0;
    spill_files = Atomic.make 0;
    repartitions = Atomic.make 0;
  }

(* Reset the Gc-delta baseline to the current heap: the CLI calls this
   after loading the input document, so --max-mem budgets the query's own
   materializations (the input is governed separately by XQ_MAX_INPUT). *)
let rebaseline g = Atomic.set g.baseline_heap_words (heap_words_now ())

(* --- fault injection ----------------------------------------------------- *)

type faults = {
  f_rate : float;
  f_seed : int;
  f_spawn : int64 Atomic.t;
  f_alloc : int64 Atomic.t;
  f_io : int64 Atomic.t;
  f_conn : int64 Atomic.t;
  f_crash : int64 Atomic.t;
  f_read : int64 Atomic.t;
}

let parse_faults s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let seed = String.sub s 0 i
    and rate = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt (String.trim seed),
           float_of_string_opt (String.trim rate))
    with
    | Some seed, Some rate when rate >= 0.0 && rate <= 1.0 ->
      Some
        {
          f_rate = rate;
          f_seed = seed;
          f_spawn = Atomic.make (Int64.of_int seed);
          f_alloc = Atomic.make (Int64.of_int (seed + 0x51ed));
          (* distinct offset keeps the spawn/alloc streams — and so the
             outcomes of every pre-spill fault test — unchanged *)
          f_io = Atomic.make (Int64.of_int (seed + 0x10f0));
          f_conn = Atomic.make (Int64.of_int (seed + 0x701c));
          f_crash = Atomic.make (Int64.of_int (seed + 0xc4a5));
          f_read = Atomic.make (Int64.of_int (seed + 0x5ead));
        }
    | _ -> None)

let faults_config : faults option Atomic.t = Atomic.make None
let faults_initialized = Atomic.make false

let faults () =
  if not (Atomic.get faults_initialized) then begin
    (match (Config.resolve ()).Config.faults with
     | Some s -> Atomic.set faults_config (parse_faults s)
     | None -> ());
    Atomic.set faults_initialized true
  end;
  Atomic.get faults_config

let set_faults ~seed ~rate =
  Atomic.set faults_config (parse_faults (Printf.sprintf "%d:%f" seed rate));
  Atomic.set faults_initialized true

let clear_faults () =
  Atomic.set faults_config None;
  Atomic.set faults_initialized true

let faults_enabled () = faults () <> None

(* splitmix64: advance the stream state with a CAS so concurrent domains
   never observe the same draw twice. *)
let splitmix_next st =
  let open Int64 in
  let rec advance () =
    let old = Atomic.get st in
    let z = add old 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set st old z then z else advance ()
  in
  let z = advance () in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A uniform draw in [0,1) from the top 53 bits. *)
let draw st =
  Int64.to_float (Int64.shift_right_logical (splitmix_next st) 11)
  /. 9007199254740992.0

let spawn_fault () =
  match faults () with
  | None -> false
  | Some f -> draw f.f_spawn < f.f_rate

(* Drawn by [Spill] before each file open and each frame write; [Some
   seed] means "pretend the I/O operation failed". *)
let io_fault () =
  match faults () with
  | None -> None
  | Some f -> if draw f.f_io < f.f_rate then Some f.f_seed else None

(* Drawn by the query server around connection reads and response
   writes; [Some seed] means "pretend the peer vanished here". A
   distinct splitmix64 stream so arming it perturbs neither the
   spawn/alloc draws nor the spill I/O stream. *)
let conn_fault () =
  match faults () with
  | None -> None
  | Some f -> if draw f.f_conn < f.f_rate then Some f.f_seed else None

(* Drawn by the streaming XML reader before each chunk refill; [Some
   seed] means "this read goes wrong here" (the reader decides how:
   short read, EIO, truncation or a torn read, cycling deterministically
   so every mode is exercised). A sixth distinct splitmix64 stream, so
   arming it perturbs none of the established streams' draws. *)
let read_fault () =
  match faults () with
  | None -> None
  | Some f -> if draw f.f_read < f.f_rate then Some f.f_seed else None

(* The worker-crash stream is doubly gated: XQ_FAULTS must be armed
   *and* the process must have opted in with [arm_crash_faults] (the
   daemon does, under XQ_CRASH=1 or --chaos-crash). A crash fault makes
   the serving process kill itself abruptly mid-query, which is only
   survivable under a supervisor — an in-process test suite that merely
   arms XQ_FAULTS for the connection stream must never draw one. *)
let crash_armed = Atomic.make false

(* The crash stream may run at its own rate: chaos harnesses want rare
   alloc/conn noise (the alloc stream draws dozens of times per query)
   but frequent worker crashes, which a single shared rate cannot
   express. [None] falls back to the shared XQ_FAULTS rate. *)
let crash_rate : float option Atomic.t = Atomic.make None

let arm_crash_faults ?rate () =
  Atomic.set crash_rate rate;
  Atomic.set crash_armed true

let disarm_crash_faults () =
  Atomic.set crash_armed false;
  Atomic.set crash_rate None

let crash_fault () =
  if not (Atomic.get crash_armed) then None
  else
    match faults () with
    | None -> None
    | Some f ->
      let rate =
        match Atomic.get crash_rate with Some r -> r | None -> f.f_rate
      in
      if draw f.f_crash < rate then Some f.f_seed else None

(* --- the installed governor --------------------------------------------- *)

(* One installation: a domain-local slot holding this domain's part of
   the installed query — the governor (whose atomics every domain of
   the query shares, which is what makes cancellation and sibling
   aborts reach every task), this domain's tick count since the
   install, and its stack of pressure callbacks. [with_governor] pushes
   a fresh record and restores the previous one, so a new install
   starts its stride phase at 0 and fault draws are deterministic per
   single-domain run. [Par.run_tasks] gives every task that runs on
   another domain a fresh install of the forking domain's governor.

   The slot is per-domain, not per-thread: sys-threads of one domain
   share it, so concurrent queries each need a domain of their own for
   their duration — the server runs each on a pool worker — or must
   serialize. *)
type install = {
  gov : t;
  mutable count : int;  (* ticks since the last memory check *)
  mutable pressure : (unit -> unit) list;  (* innermost first *)
  mutable relieving : bool;  (* a pressure callback is running *)
}

let key : install option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get key with Some i -> Some i.gov | None -> None

let with_governor g f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key
    (Some { gov = g; count = 0; pressure = []; relieving = false });
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let with_scoped_governor = with_governor

(* --- trips --------------------------------------------------------------- *)

let trip g kind code msg =
  Atomic.incr g.trips.(kind_index kind);
  Xerror.fail code msg

let cancel g = Atomic.set g.cancelled true
let cancelled g = Atomic.get g.cancelled

let begin_abort () =
  match Domain.DLS.get key with None -> () | Some i -> Atomic.incr i.gov.aborts

let end_abort () =
  match Domain.DLS.get key with None -> () | Some i -> Atomic.decr i.gov.aborts

let pending_aborts g = Atomic.get g.aborts

(* --- memory pressure ------------------------------------------------------ *)

(* A grouping operator pushes a pressure callback on its domain's
   install for the duration of its build; when the query's charges —
   or its memory estimate, checked on the slow tick path — cross the
   soft watermark, the innermost callback runs (it spills and
   uncharges) before the hard budget is checked. A callback mutates
   its owner's hash tables and spill files, so it only ever runs on the
   domain that pushed it: other domains of the query have installs of
   their own. [relieving] stops a callback's own charges from
   re-entering it. *)
let with_pressure_callback f body =
  match Domain.DLS.get key with
  | None -> body ()
  | Some i ->
    let prev = i.pressure in
    i.pressure <- f :: prev;
    Fun.protect ~finally:(fun () -> i.pressure <- prev) body

(* Run the innermost callback (the caller has already established
   pressure). *)
let fire_pressure i =
  match i.pressure with
  | f :: _ when not i.relieving ->
    i.relieving <- true;
    Fun.protect ~finally:(fun () -> i.relieving <- false) f
  | _ -> ()

(* --- the check itself ---------------------------------------------------- *)

let mem_estimate g =
  let heap = (Gc.quick_stat ()).Gc.heap_words in
  let gc_bytes = (heap - Atomic.get g.baseline_heap_words) * word_bytes in
  max 0 gc_bytes + Atomic.get g.charged

let rec raise_peak g est =
  let peak = Atomic.get g.peak_mem in
  if est > peak && not (Atomic.compare_and_set g.peak_mem peak est) then
    raise_peak g est

let slow_check i ~mem =
  let g = i.gov in
  if g.deadline < infinity && now () > g.deadline then
    trip g Timeout Xerror.XQENG0001 "wall-clock deadline exceeded";
  if mem && (g.max_mem_bytes < max_int || g.spill_watermark < max_int) then begin
    let est = mem_estimate g in
    (* Gc growth counts toward pressure, not just charged bytes: a flush
       frees keys and group cells so the heap is reused instead of
       growing, which is what actually averts the hard trip when the
       estimate is Gc-dominated. Pressure fires with headroom (7/8 of
       the watermark) so relief — a flush plus a collection — runs
       before the watermark itself is crossed, and both the budget check
       and the peak statistic read the post-relief estimate: pressure
       exists to shed reusable memory before the check, and a recorded
       peak above a budget that never tripped would contradict the
       report. *)
    let est =
      if est > g.spill_watermark - (g.spill_watermark / 8) then begin
        fire_pressure i;
        mem_estimate g
      end
      else est
    in
    raise_peak g est;
    if est > g.max_mem_bytes then
      trip g Memory Xerror.XQENG0002
        (Printf.sprintf "memory budget exceeded (~%d bytes used, budget %d)"
           est g.max_mem_bytes)
  end;
  match faults () with
  | Some f when draw f.f_alloc < f.f_rate ->
    Atomic.incr g.injected_allocs;
    trip g Memory Xerror.XQENG0002
      (Printf.sprintf "injected allocation-pressure fault (XQ_FAULTS seed %d)"
         f.f_seed)
  | Some _ | None -> ()

let check i =
  let c = i.count + 1 in
  i.count <- c;
  if c land (stride - 1) = 0 then begin
    let g = i.gov in
    if Atomic.get g.cancelled then
      trip g Cancelled Xerror.XQENG0004 "query cancelled";
    if Atomic.get g.aborts > 0 then
      trip g Cancelled Xerror.XQENG0004
        "cancelled: a sibling parallel task failed";
    let mem = c >= stride * mem_stride in
    if mem then i.count <- 0;
    ignore (Atomic.fetch_and_add g.ticks stride);
    slow_check i ~mem
  end

let tick () = match Domain.DLS.get key with None -> () | Some i -> check i

(* --- budget feeds -------------------------------------------------------- *)

let note_groups g n =
  let total = Atomic.fetch_and_add g.groups n + n in
  if total > g.max_groups then
    trip g Groups Xerror.XQENG0003
      (Printf.sprintf "group cardinality cap exceeded (%d > %d)" total
         g.max_groups)

let count_groups n =
  match Domain.DLS.get key with None -> () | Some i -> note_groups i.gov n

(* --- budget feeds (memory) ------------------------------------------------ *)

let note_charge i n =
  let g = i.gov in
  let c = Atomic.fetch_and_add g.charged n + n in
  if c > g.spill_watermark then fire_pressure i;
  (* re-read: a pressure callback uncharges what it spilled *)
  let c = if c > g.spill_watermark then Atomic.get g.charged else c in
  if c > g.max_mem_bytes then
    trip g Memory Xerror.XQENG0002
      (Printf.sprintf
         "memory budget exceeded (%d materialized bytes, budget %d)" c
         g.max_mem_bytes)

let charge_bytes n =
  match Domain.DLS.get key with None -> () | Some i -> note_charge i n

let uncharge_bytes n =
  match current () with
  | None -> ()
  | Some g -> ignore (Atomic.fetch_and_add g.charged (-n))

(* --- resident-byte accounting (query server) ------------------------------ *)

(* The server's shared caches (resident documents, compiled plans)
   account their bytes against a long-lived "house" governor that is
   never installed anywhere: plain counters feeding the admission
   gauge, with no pressure callbacks (nothing to spill — residents are
   evicted, not flushed) and no hard trip (admission control rejects
   new work instead of killing the cache). *)

let charge_on g n =
  let c = Atomic.fetch_and_add g.charged n + n in
  let peak = Atomic.get g.peak_mem in
  if c > peak then ignore (Atomic.compare_and_set g.peak_mem peak c)

let uncharge_on g n = ignore (Atomic.fetch_and_add g.charged (-n))

let charged_on g = Atomic.get g.charged

(* The admission gauge: is [g]'s memory estimate (counted resident
   bytes plus the Gc-heap delta from its baseline) past its soft
   watermark? Same estimate and same watermark semantics as the spill
   pressure machinery, applied to a process instead of a query. *)
let pressure_on g =
  g.spill_watermark < max_int && mem_estimate g > g.spill_watermark

let spill_armed () =
  match current () with
  | None -> false
  | Some g -> g.spill_watermark < max_int

(* The installed soft watermark in bytes ([max_int] when off); spill
   paths size their replay/repartition thresholds from it. *)
let spill_watermark () =
  match current () with None -> max_int | Some g -> g.spill_watermark

let under_pressure () =
  match current () with
  | None -> false
  | Some g -> Atomic.get g.charged > g.spill_watermark

let note_spill ~bytes ~files ~repartitions =
  match current () with
  | None -> ()
  | Some g ->
    if bytes <> 0 then ignore (Atomic.fetch_and_add g.spilled_bytes bytes);
    if files <> 0 then ignore (Atomic.fetch_and_add g.spill_files files);
    if repartitions <> 0 then
      ignore (Atomic.fetch_and_add g.repartitions repartitions)

(* Record a spill-I/O trip on the installed governor (if any) and raise
   XQENG0006. Used by [Spill] for real I/O errors and injected faults
   alike, so both fail closed through the same path. *)
let spill_trip msg =
  (match current () with
   | Some g -> Atomic.incr g.trips.(kind_index SpillIo)
   | None -> ());
  Xerror.fail Xerror.XQENG0006 msg

(* --- input limits (XML parser) ------------------------------------------- *)

let input_limits () =
  match current () with
  | None -> (None, None)
  | Some g -> (g.max_depth, g.max_input_bytes)

let input_trip msg =
  (match current () with
   | Some g -> Atomic.incr g.trips.(kind_index Input)
   | None -> ());
  Xerror.fail Xerror.XQENG0005 msg

(* Record a read-I/O trip on the installed governor (if any) and raise
   XQENG0008. Used by the streaming XML reader for real read errors and
   injected faults alike, mirroring [spill_trip]. *)
let read_trip msg =
  (match current () with
   | Some g -> Atomic.incr g.trips.(kind_index ReadIo)
   | None -> ());
  Xerror.fail Xerror.XQENG0008 msg

(* --- stats ---------------------------------------------------------------- *)

type stats = {
  s_ticks : int;
  s_groups : int;
  s_charged_bytes : int;
  s_peak_mem_bytes : int;
  s_trips : (trip_kind * int) list;
  s_injected_allocs : int;
  s_spilled_bytes : int;
  s_spill_files : int;
  s_repartitions : int;
}

let stats g =
  {
    s_ticks = Atomic.get g.ticks;
    s_groups = Atomic.get g.groups;
    s_charged_bytes = Atomic.get g.charged;
    s_peak_mem_bytes = Atomic.get g.peak_mem;
    s_trips =
      List.filter_map
        (fun k ->
          let n = Atomic.get g.trips.(kind_index k) in
          if n > 0 then Some (k, n) else None)
        [ Timeout; Memory; Groups; Cancelled; Input; SpillIo; ReadIo ];
    s_injected_allocs = Atomic.get g.injected_allocs;
    s_spilled_bytes = Atomic.get g.spilled_bytes;
    s_spill_files = Atomic.get g.spill_files;
    s_repartitions = Atomic.get g.repartitions;
  }

let summary g =
  let s = stats g in
  let trips =
    if s.s_trips = [] then "none"
    else
      String.concat ","
        (List.map (fun (k, n) -> Printf.sprintf "%s=%d" (kind_name k) n)
           s.s_trips)
  in
  Printf.sprintf
    "governor: ticks=%d groups=%d charged=%dB peak-mem=%dB trips=%s%s%s"
    s.s_ticks s.s_groups s.s_charged_bytes s.s_peak_mem_bytes trips
    (if s.s_injected_allocs > 0 then
       Printf.sprintf " injected-allocs=%d" s.s_injected_allocs
     else "")
    (if s.s_spill_files > 0 then
       Printf.sprintf " spilled=%dB spill-files=%d repartitions=%d"
         s.s_spilled_bytes s.s_spill_files s.s_repartitions
     else "")

(* --- building a governor from a query's configuration -------------------- *)

let of_config ?(force = false) ?spill_watermark_bytes (c : Config.t) =
  let mb n = n * 1024 * 1024 in
  (* CLI semantics: a hard memory budget arms spilling at half the trip
     point, so governed queries degrade before they die. In-process
     callers of [create] get no such default — existing budget tests
     keep their exact hard-trip behaviour. *)
  let spill_watermark_bytes =
    match (spill_watermark_bytes, c.spill_at_mb, c.max_mem_mb) with
    | (Some _ as w), _, _ -> w
    | None, Some at, _ -> Some (mb at)
    | None, None, Some budget -> Some (mb budget / 2)
    | None, None, None -> None
  in
  if
    (not force) && c.timeout_ms = None && c.max_groups = None
    && c.max_mem_mb = None && spill_watermark_bytes = None
    && c.max_input_bytes = None && c.max_depth = None
    && not (faults_enabled ())
  then None
  else
    Some
      (create ?timeout_ms:c.timeout_ms ?max_groups:c.max_groups
         ?max_mem_mb:c.max_mem_mb ?spill_watermark_bytes
         ?max_input_bytes:c.max_input_bytes ?max_depth:c.max_depth ~config:c
         ())

let of_limits ?timeout_ms ?max_groups ?max_mem_mb ?spill_watermark_bytes () =
  of_config ?spill_watermark_bytes
    (Config.resolve ?timeout_ms ?max_groups ?max_mem_mb ())

let config g = g.config
