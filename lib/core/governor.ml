(* Per-query resource governor.

   A [t] carries a wall-clock deadline, a group-cardinality budget, an
   approximate memory budget and a cooperative cancellation flag. Hot
   loops everywhere in the engine call the zero-argument [tick], which
   is a single atomic load (plus a branch) when no governor is
   installed, so the default configuration pays essentially nothing.
   When a governor is installed, a tick bumps a per-domain counter, and
   every [stride]-th tick reads the cancellation flags and runs the
   expensive checks (clock read, fault draw; the [Gc.quick_stat] memory
   estimate every [mem_stride]-th time) — a limit is therefore detected
   within one stride of ticks of being crossed.

   All state is atomics: the installed governor is shared by every
   domain of the [Par] pool, which is what makes cancellation reach
   sibling tasks.

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

(* Two installation scopes. [active] is the historical process-wide
   slot: one query at a time, shared by every domain, which is what the
   CLI and the tests use. [scoped_key] is a per-domain overlay for the
   query server, where several queries run concurrently on pool
   worker domains and each must tick against its own budgets; a scoped
   governor shadows the process-wide one on its domain only, and
   [Par.run_tasks] re-installs the caller's scoped governor on every
   task it runs so a query's whole fork-join tree shares one budget.
   [scoped_installs] gates the DLS lookup: when no scoped governor
   exists anywhere (every non-server process), the hot path stays the
   single atomic load it has always been.

   Scoped installation is per-*domain*, not per-thread: sys-threads of
   one domain share its DLS slot, so a server must run each scoped
   query on a domain of its own for the query's duration — a pool
   worker — or serialize. *)
let active : t option Atomic.t = Atomic.make None

let scoped_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let scoped_installs = Atomic.make 0

let scoped_current () =
  if Atomic.get scoped_installs > 0 then Domain.DLS.get scoped_key else None

(* The governor the calling domain executes under: its scoped overlay
   if it has one, else the process-wide slot. *)
let current_gov () =
  match scoped_current () with
  | Some _ as s -> s
  | None -> Atomic.get active

(* Per-domain tick counters. The hot path must not do an atomic RMW on
   a shared cache line (sorts tick from inside their comparators, and
   under [Par] several domains tick at once), so each domain counts in
   its own cache-line-padded slot and only reads the shared flags — and
   runs the expensive checks — once per [stride]. Slots are indexed by
   domain id modulo the table size; a collision between two live domains
   merely skews the stride phase, it cannot corrupt anything. The
   calling domain's counter is reset whenever a governor is installed so
   that fault draws are deterministic per single-domain run. *)
let n_slots = 128
let slot_pad = 8 (* ints: one 64-byte cache line per slot *)
let counters = Array.make (n_slots * slot_pad) 0
let slot () = ((Domain.self () :> int) land (n_slots - 1)) * slot_pad
let reset_local_ticks () = Array.unsafe_set counters (slot ()) 0

let install g =
  Atomic.set active (Some g);
  reset_local_ticks ()

let uninstall () = Atomic.set active None
let current () = current_gov ()

let with_governor g f =
  let prev = Atomic.get active in
  Atomic.set active (Some g);
  reset_local_ticks ();
  Fun.protect ~finally:(fun () -> Atomic.set active prev) f

let with_scoped_governor g f =
  let prev = Domain.DLS.get scoped_key in
  Domain.DLS.set scoped_key (Some g);
  Atomic.incr scoped_installs;
  reset_local_ticks ();
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr scoped_installs;
      Domain.DLS.set scoped_key prev)
    f

let with_scoped_opt g f =
  match g with None -> f () | Some g -> with_scoped_governor g f

(* --- trips --------------------------------------------------------------- *)

let trip g kind code msg =
  Atomic.incr g.trips.(kind_index kind);
  Xerror.fail code msg

let cancel g = Atomic.set g.cancelled true
let cancelled g = Atomic.get g.cancelled

let begin_abort () =
  match current_gov () with
  | None -> ()
  | Some g -> Atomic.incr g.aborts

let end_abort () =
  match current_gov () with
  | None -> ()
  | Some g -> Atomic.decr g.aborts

let pending_aborts g = Atomic.get g.aborts

(* --- memory pressure ------------------------------------------------------ *)

(* Per-domain pressure callbacks. A grouping operator registers a
   callback for the duration of its build; when this domain's charges —
   or the whole-process memory estimate, checked on the slow tick path —
   cross the soft watermark the callback runs (it spills and uncharges)
   before the hard budget is checked. Slots are indexed like the tick
   counters, but each slot stores the registering domain's id next to
   the callback and [fire_pressure] runs it only on that very domain: a
   callback mutates its owner's hash tables and spill files, so running
   it from a colliding domain (ids equal mod [n_slots]) would be an
   unsynchronized cross-domain race. A collision instead makes the
   dispossessed domain skip its pressure events — always safe, the hard
   budget check still runs. The [in_pressure] guard stops a callback's
   own charges from re-entering it. *)
let pressure_cbs : (int * (unit -> unit)) option Atomic.t array =
  Array.init n_slots (fun _ -> Atomic.make None)

let in_pressure = Array.init n_slots (fun _ -> Atomic.make false)
let cb_slot () = (Domain.self () :> int) land (n_slots - 1)

let with_pressure_callback f body =
  let i = cb_slot () in
  let me = (Domain.self () :> int) in
  let prev = Atomic.get pressure_cbs.(i) in
  (* Only this domain's own shadowed registration is ever restored:
     re-installing a colliding domain's entry after that domain's scope
     may have exited would resurrect a dead callback. *)
  let restore =
    match prev with Some (id, _) when id = me -> prev | Some _ | None -> None
  in
  Atomic.set pressure_cbs.(i) (Some (me, f));
  Fun.protect
    ~finally:(fun () ->
      (* restore only while we still own the slot; a colliding domain
         that registered after us keeps its callback *)
      match Atomic.get pressure_cbs.(i) with
      | Some (id, _) when id = me -> Atomic.set pressure_cbs.(i) restore
      | Some _ | None -> ())
    body

(* Run the current domain's callback, if it still owns its slot (the
   caller has already established pressure). *)
let fire_pressure () =
  let i = cb_slot () in
  let me = (Domain.self () :> int) in
  match Atomic.get pressure_cbs.(i) with
  | Some (id, f) when id = me ->
    if not (Atomic.get in_pressure.(i)) then begin
      Atomic.set in_pressure.(i) true;
      Fun.protect ~finally:(fun () -> Atomic.set in_pressure.(i) false) f
    end
  | Some _ | None -> ()

let maybe_pressure g =
  if Atomic.get g.charged > g.spill_watermark then fire_pressure ()

(* --- the check itself ---------------------------------------------------- *)

let mem_estimate g =
  let heap = (Gc.quick_stat ()).Gc.heap_words in
  let gc_bytes = (heap - Atomic.get g.baseline_heap_words) * word_bytes in
  max 0 gc_bytes + Atomic.get g.charged

let rec raise_peak g est =
  let peak = Atomic.get g.peak_mem in
  if est > peak && not (Atomic.compare_and_set g.peak_mem peak est) then
    raise_peak g est

let slow_check g ~mem =
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
        fire_pressure ();
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

let check g =
  let i = slot () in
  let c = Array.unsafe_get counters i + 1 in
  Array.unsafe_set counters i c;
  if c land (stride - 1) = 0 then begin
    if Atomic.get g.cancelled then
      trip g Cancelled Xerror.XQENG0004 "query cancelled";
    if Atomic.get g.aborts > 0 then
      trip g Cancelled Xerror.XQENG0004
        "cancelled: a sibling parallel task failed";
    let mem = c >= stride * mem_stride in
    if mem then Array.unsafe_set counters i 0;
    ignore (Atomic.fetch_and_add g.ticks stride);
    slow_check g ~mem
  end

let tick () =
  match current_gov () with None -> () | Some g -> check g

(* --- budget feeds -------------------------------------------------------- *)

let note_groups g n =
  let total = Atomic.fetch_and_add g.groups n + n in
  if total > g.max_groups then
    trip g Groups Xerror.XQENG0003
      (Printf.sprintf "group cardinality cap exceeded (%d > %d)" total
         g.max_groups)

let count_groups n =
  match current_gov () with None -> () | Some g -> note_groups g n

(* --- budget feeds (memory) ------------------------------------------------ *)

let note_charge g n =
  let c = Atomic.fetch_and_add g.charged n + n in
  if c > g.spill_watermark then maybe_pressure g;
  (* re-read: a pressure callback uncharges what it spilled *)
  let c = if c > g.spill_watermark then Atomic.get g.charged else c in
  if c > g.max_mem_bytes then
    trip g Memory Xerror.XQENG0002
      (Printf.sprintf
         "memory budget exceeded (%d materialized bytes, budget %d)" c
         g.max_mem_bytes)

let charge_bytes n =
  match current_gov () with None -> () | Some g -> note_charge g n

let uncharge_bytes n =
  match current_gov () with
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
  match current_gov () with
  | None -> false
  | Some g -> g.spill_watermark < max_int

(* The installed soft watermark in bytes ([max_int] when off); spill
   paths size their replay/repartition thresholds from it. *)
let spill_watermark () =
  match current_gov () with None -> max_int | Some g -> g.spill_watermark

let under_pressure () =
  match current_gov () with
  | None -> false
  | Some g -> Atomic.get g.charged > g.spill_watermark

let note_spill ~bytes ~files ~repartitions =
  match current_gov () with
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
  (match current_gov () with
   | Some g -> Atomic.incr g.trips.(kind_index SpillIo)
   | None -> ());
  Xerror.fail Xerror.XQENG0006 msg

(* --- input limits (XML parser) ------------------------------------------- *)

let input_limits () =
  match current_gov () with
  | None -> (None, None)
  | Some g -> (g.max_depth, g.max_input_bytes)

let input_trip msg =
  (match current_gov () with
   | Some g -> Atomic.incr g.trips.(kind_index Input)
   | None -> ());
  Xerror.fail Xerror.XQENG0005 msg

(* Record a read-I/O trip on the installed governor (if any) and raise
   XQENG0008. Used by the streaming XML reader for real read errors and
   injected faults alike, mirroring [spill_trip]. *)
let read_trip msg =
  (match current_gov () with
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
