(** A minimal fork-join pool over stdlib [Domain]s.

    Everything here degrades to the plain sequential code path at degree
    1 (the default): no domain is ever spawned, so callers can thread a
    degree unconditionally and pay nothing when parallelism is off.
    Degrees above {!degree_cap} are clamped. *)

val degree_cap : int

(** The process-wide default parallelism degree: an explicit
    {!set_default_degree} override if one was made, else the
    [XQ_PARALLEL] environment variable, else 1. *)
val default_degree : unit -> int

(** Override the default degree for this process (the CLI's
    [--parallel N]). Clamped to [1 .. degree_cap]. *)
val set_default_degree : int -> unit

(** The current {!set_default_degree} override, if any — save/restore
    this around a scoped override. *)
val get_override : unit -> int option

(** [set_override None] drops the override (back to [XQ_PARALLEL] or
    1); [set_override (Some n)] is [set_default_degree n]. *)
val set_override : int option -> unit

(** Parse a degree string as [XQ_PARALLEL] would ([None] when invalid or
    < 1). *)
val parse_degree : string -> int option

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
