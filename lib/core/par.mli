(** Fork-join and request execution over one process-wide pool of
    long-lived worker domains.

    The pool holds at most [Domain.recommended_domain_count ()] workers.
    Each is spawned lazily, when queued work outnumbers the parked
    workers, and then reused for the life of the process: a degree-1
    CLI run or an idle daemon spawns none. [Par.run_tasks] and the
    query server ({!on_pool}) share it, so [Domain.spawn] is called
    nowhere else in the library.

    Fork-join degrades to the plain sequential code path at degree 1:
    nothing is queued and the pool is never touched, so callers can
    thread a degree unconditionally and pay nothing when parallelism is
    off. The degree is always the caller's (a query's
    [Config.parallel]); degrees above {!degree_cap} are clamped. *)

val degree_cap : int

(** Run all thunks to completion, task 0 on the calling domain and the
    rest queued on the pool. The join first takes back and runs inline
    every sibling no worker has started, then waits for the rest, so a
    fork-join nested inside a pooled job completes at any depth and
    never deadlocks, however busy the pool is. If a spawn fault is
    injected via [Governor.set_faults] / [XQ_FAULTS] (or no worker can
    be spawned at all), the affected tasks run sequentially on the
    caller instead — one warning on stderr per process, identical
    output. A running task sees the caller's governor: on the
    calling domain through the caller's own install (tick phase and
    pressure callbacks), on a worker through a fresh install of the
    same governor that is removed when the task ends. A failing task marks
    an abort on the installed governor, cancelling siblings at their
    next [Governor.tick]; once all tasks have finished the marks are
    released and the lowest-indexed real exception is re-raised
    (sibling [XQENG0004] cancellations only win when nothing else
    failed). *)
val run_tasks : (unit -> unit) array -> unit

(** [map ~degree f src] is [Array.map f src], computed in up to [degree]
    chunks (each at least [min_chunk] elements, default 16). The
    exception raised, if any, is the one sequential left-to-right
    evaluation would have raised first. *)
val map : ?degree:int -> ?min_chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** In-place stable sort ([Array.stable_sort] semantics and output,
    byte-identical at any degree): chunks sort concurrently, then merge
    pairwise with ties taken from the left run. [min_chunk] defaults to
    512 — below [2 * min_chunk] elements this is exactly
    [Array.stable_sort]. *)
val sort : ?degree:int -> ?min_chunk:int -> ('a -> 'a -> int) -> 'a array -> unit

(** [on_pool f] runs [f] on a pool worker and blocks the calling thread
    until it returns, re-raising what it raised. Jobs beyond the worker
    count wait in the pool's FIFO queue. [None] — [f] has not run — when
    the pool has no worker and none can be spawned. *)
val on_pool : (unit -> 'a) -> 'a option

(** Workers spawned so far; never more than
    [Domain.recommended_domain_count ()]. *)
val pool_workers : unit -> int

(** Jobs queued that no worker has started yet. *)
val pool_queued : unit -> int
