(** The engine's one clock: monotonic nanoseconds, read through
    [bechamel.monotonic_clock] without allocating. It measures elapsed
    wall-clock time, so time spent on other domains of a parallel
    operator is not summed. Only differences between two readings are
    meaningful. *)

val now_ns : unit -> int
