(* A minimal fork-join pool over stdlib domains (no domainslib). Degree 1
   always takes the caller's thread and touches no Domain API, so the
   default configuration is byte-for-byte the sequential code path. *)

let degree_cap = Xq_governor.Config.max_parallel

module Governor = Xq_governor.Governor

(* One warning per process when spawning fails and we degrade to the
   sequential path — output stays byte-identical, only the warning on
   stderr tells the two paths apart. *)
let warned_fallback = Atomic.make false

let warn_fallback reason =
  if not (Atomic.exchange warned_fallback true) then
    Printf.eprintf
      "xq: warning: Domain.spawn unavailable (%s); falling back to \
       sequential execution\n%!"
      reason

let is_cancel = function
  | Xq_xdm.Xerror.Error (Xq_xdm.Xerror.XQENG0004, _) -> true
  | _ -> false

(* --- the worker pool ------------------------------------------------- *)

(* One process-wide pool of long-lived worker domains: never more than
   the core count, each spawned only when queued work outnumbers the
   parked workers, so a degree-1 run or an idle daemon spawns nothing.
   Reusing domains instead of spawning one per request or per parallel
   region saves the stop-the-world each spawn and termination costs,
   and the heap growth from the pools each terminated domain hands
   back. *)
let pool_capacity = Domain.recommended_domain_count ()

(* Counts down the jobs one submitter queued; the submitter blocks in
   [await] until every one of them has finished, wherever it ran. *)
type latch = { lm : Mutex.t; lc : Condition.t; mutable left : int }

let latch n = { lm = Mutex.create (); lc = Condition.create (); left = n }

let count_down l =
  Mutex.lock l.lm;
  l.left <- l.left - 1;
  if l.left = 0 then Condition.broadcast l.lc;
  Mutex.unlock l.lm

let await l =
  Mutex.lock l.lm;
  while l.left > 0 do
    Condition.wait l.lc l.lm
  done;
  Mutex.unlock l.lm

(* A job never raises: it records its own outcome. It runs exactly once,
   on whichever side takes it out of the queue under [lock] — a worker
   popping it, or its submitter reclaiming it to run inline. *)
type job = { run : unit -> unit; done_ : latch }

let lock = Mutex.create ()
let nonempty = Condition.create ()
let queue : job Queue.t = Queue.create ()
let workers = ref 0 (* spawned, under [lock] *)
let idle = ref 0 (* parked in [worker], under [lock] *)

let locked f = Mutex.protect lock f

let finish j =
  j.run ();
  count_down j.done_

let rec worker () =
  Mutex.lock lock;
  while Queue.is_empty queue do
    incr idle;
    Condition.wait nonempty lock;
    decr idle
  done;
  let j = Queue.pop queue in
  Mutex.unlock lock;
  finish j;
  worker ()

(* Queue [jobs], then spawn as many workers as the queue outnumbers the
   parked ones, up to capacity. Slots are reserved under the lock and
   the spawns made outside it; a failed spawn gives its slot back and
   leaves the job queued for its submitter to reclaim. *)
let submit jobs =
  let spawn =
    locked (fun () ->
        List.iter
          (fun j ->
            Queue.push j queue;
            Condition.signal nonempty)
          jobs;
        let n =
          max 0 (min (pool_capacity - !workers) (Queue.length queue - !idle))
        in
        workers := !workers + n;
        n)
  in
  for _ = 1 to spawn do
    match Domain.spawn worker with
    | _ -> ()
    | exception e ->
      locked (fun () -> decr workers);
      warn_fallback (Printexc.to_string e)
  done

(* Take back every job of [l] no worker has started yet. *)
let reclaim l =
  locked (fun () ->
      let mine, rest =
        List.partition
          (fun j -> j.done_ == l)
          (List.of_seq (Queue.to_seq queue))
      in
      Queue.clear queue;
      List.iter (fun j -> Queue.push j queue) rest;
      mine)

let pool_workers () = locked (fun () -> !workers)
let pool_queued () = locked (fun () -> Queue.length queue)

let on_pool f =
  let out = ref None and l = latch 1 in
  let j =
    {
      run =
        (fun () ->
          out := Some (match f () with v -> Ok v | exception e -> Error e));
      done_ = l;
    }
  in
  submit [ j ];
  (* no worker exists and none could be spawned: hand [f] back *)
  if pool_workers () = 0 && reclaim l <> [] then None
  else begin
    await l;
    match !out with
    | Some (Ok v) -> Some v
    | Some (Error e) -> raise e
    | None -> assert false
  end

(* --- fork-join ---------------------------------------------------------- *)

(* Run every task to completion: task 0 on the calling domain, the rest
   queued on the pool. The join first reclaims and runs inline every
   sibling no worker has started, then waits for the ones that were —
   so a fork-join nested inside a pooled job never waits on a worker
   that is not already running its task, and cannot deadlock however
   deep it nests. A spawn failure (real, or injected via XQ_FAULTS)
   downgrades a task to the caller's domain — same output, no
   parallelism. A failing task marks an abort on the installed governor
   so siblings that tick cancel early instead of running to completion;
   the marks are released once every task has finished. If several
   tasks raise, re-raise the lowest-indexed *real* exception — for
   chunked maps this is exactly the exception sequential left-to-right
   evaluation would have raised first; sibling cancellations (XQENG0004)
   provoked by the abort only win when nothing else failed. *)
let run_tasks (tasks : (unit -> unit) array) =
  let nt = Array.length tasks in
  if nt = 0 then ()
  else if nt = 1 then tasks.(0) ()
  else begin
    let errs = Array.make nt None in
    (* The caller's governor travels with its tasks: one that runs on
       this domain (task 0, an inline fallback, a reclaimed sibling)
       keeps this domain's install — its tick phase and pressure
       callbacks — while one on a pool worker gets a fresh install of
       the same governor for its duration, so every task ticks,
       charges and aborts against one budget and the worker is left
       as it was found. *)
    let gov = Governor.current () in
    let guarded i () =
      let run () =
        try tasks.(i) ()
        with e ->
          errs.(i) <- Some e;
          Governor.begin_abort ()
      in
      match (gov, Governor.current ()) with
      | Some g, Some here when g == here -> run ()
      | Some g, _ -> Governor.with_governor g run
      | None, _ -> run ()
    in
    let inline, pooled =
      List.partition
        (fun _ ->
          Governor.spawn_fault ()
          && begin
            warn_fallback "injected fault";
            true
          end)
        (List.init (nt - 1) succ)
    in
    let l = latch (List.length pooled) in
    submit (List.map (fun i -> { run = guarded i; done_ = l }) pooled);
    guarded 0 ();
    List.iter (fun i -> guarded i ()) inline;
    List.iter finish (reclaim l);
    await l;
    let first_real = ref None and first_any = ref None in
    Array.iter
      (function
        | None -> ()
        | Some e ->
          Governor.end_abort ();
          if Option.is_none !first_any then first_any := Some e;
          if Option.is_none !first_real && not (is_cancel e) then
            first_real := Some e)
      errs;
    match (!first_real, !first_any) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

(* How many chunks to actually use for [n] elements: never more than the
   requested degree, never chunks smaller than [min_chunk]. *)
let pieces ~degree ~min_chunk n =
  let d = max 1 (min degree degree_cap) in
  max 1 (min d (n / max 1 min_chunk))

let map ?(degree = 1) ?(min_chunk = 16) f src =
  let n = Array.length src in
  if n = 0 then [||]
  else begin
    let p = pieces ~degree ~min_chunk n in
    if p <= 1 then Array.map f src
    else begin
      (* Seed the result with element 0 computed on the caller — it both
         avoids a dummy value and preserves fail-first semantics for an
         exception at index 0. The remaining n-1 elements are chunked. *)
      let dst = Array.make n (f src.(0)) in
      let m = n - 1 in
      run_tasks
        (Array.init p (fun c ->
             let lo = 1 + (c * m / p) and hi = 1 + ((c + 1) * m / p) in
             fun () ->
               for i = lo to hi - 1 do
                 dst.(i) <- f src.(i)
               done));
      dst
    end
  end

(* In-place stable parallel merge sort: sort chunks concurrently, then
   merge adjacent runs pairwise (left run wins ties, preserving input
   order) until one run remains. Falls back to Array.stable_sort when
   the array is too small to be worth splitting. *)
let sort ?(degree = 1) ?(min_chunk = 512) cmp a =
  let n = Array.length a in
  let p = pieces ~degree ~min_chunk n in
  if p <= 1 then Array.stable_sort cmp a
  else begin
    let bounds = Array.init (p + 1) (fun i -> i * n / p) in
    run_tasks
      (Array.init p (fun c ->
           let lo = bounds.(c) and hi = bounds.(c + 1) in
           fun () ->
             let sub = Array.sub a lo (hi - lo) in
             Array.stable_sort cmp sub;
             Array.blit sub 0 a lo (hi - lo)));
    let buf = Array.copy a in
    let merge src dst lo mid hi =
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || cmp src.(!i) src.(!j) <= 0) then begin
          dst.(k) <- src.(!i);
          incr i
        end
        else begin
          dst.(k) <- src.(!j);
          incr j
        end
      done
    in
    let rec rounds src dst (bs : int array) =
      let runs = Array.length bs - 1 in
      if runs <= 1 then begin
        if src != a then Array.blit src 0 a 0 n
      end
      else begin
        let tasks = ref [] and next = ref [ bs.(0) ] in
        let r = ref 0 in
        while !r < runs do
          if !r + 1 < runs then begin
            let lo = bs.(!r) and mid = bs.(!r + 1) and hi = bs.(!r + 2) in
            tasks := (fun () -> merge src dst lo mid hi) :: !tasks;
            next := hi :: !next;
            r := !r + 2
          end
          else begin
            (* odd run out: carry it to the next round unchanged *)
            let lo = bs.(!r) and hi = bs.(!r + 1) in
            tasks := (fun () -> Array.blit src lo dst lo (hi - lo)) :: !tasks;
            next := hi :: !next;
            incr r
          end
        done;
        run_tasks (Array.of_list (List.rev !tasks));
        rounds dst src (Array.of_list (List.rev !next))
      end
    in
    rounds a buf bounds
  end
