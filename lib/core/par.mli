(** A minimal fork-join pool over stdlib [Domain]s.

    Everything here degrades to the plain sequential code path at degree
    1: no domain is ever spawned, so callers can thread a degree
    unconditionally and pay nothing when parallelism is off. The degree
    is always the caller's (a query's [Config.parallel]); degrees above
    {!degree_cap} are clamped. *)

val degree_cap : int

(** Run all thunks to completion, task 0 on the calling domain and the
    rest on fresh domains. If [Domain.spawn] fails (or a spawn fault is
    injected via [Governor.set_faults] / [XQ_FAULTS]), the affected
    tasks run sequentially on the caller instead — one warning on
    stderr per process, identical output. A failing task marks an abort
    on the installed governor, cancelling siblings at their next
    [Governor.tick]; once all domains have joined the marks are
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
