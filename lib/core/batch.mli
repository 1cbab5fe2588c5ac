(** Batch-size knob for the vectorized executor.

    The executor moves tuples in vectors of the query's batch size
    ([Config.batch]) between operators; governor ticks, domain-pool
    task grain and key-dictionary interning all key off that value. A
    batch size of 1 is the degenerate item-at-a-time mode: the batched
    fast paths (fused path scan, key interning, table presizing) disable
    themselves and execution matches the pre-batching engine operation
    for operation. *)

val default_size : int

(** The batch size a query with no [--batch] runs at: [XQ_BATCH], else
    {!default_size}. *)
val size : unit -> int
