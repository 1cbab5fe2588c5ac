(** LRU cache of compiled query plans for the query server.

    Entries are keyed on {!Xq_pipeline.Pipeline.cache_key} — query text
    × rewrite flag, the only inputs compilation reads — so two requests
    share a plan exactly when they would compile to the same thing.
    Execution settings stay out of the key: requests that differ only
    in strategy, degree, batch size or limits share one entry, and each
    runs it under its own settings. Capacity is a bounded entry
    count with least-recently-used eviction; resident bytes (an
    estimate — the AST is roughly proportional to the source) are
    charged against an optional accounting governor so the server's
    admission gauge sees them. All operations are thread-safe. *)

type t

(** [create ?capacity ?account ()] — [capacity] is the maximum entry
    count (default 64, must be ≥ 1); [account] is the governor charged
    with resident bytes via {!Xq_governor.Governor.charge_on} (never
    installed, never trips). *)
val create : ?capacity:int -> ?account:Xq_governor.Governor.t -> unit -> t

val capacity : t -> int

(** [find_or_add t key compile] returns the cached plan for [key],
    bumping its recency, or runs [compile ()] (outside the lock) and
    caches the result. A compile failure propagates and caches
    nothing — it still counts as a miss. If two threads miss on the
    same key concurrently, the first insertion wins and both callers
    get the shared plan. *)
val find_or_add :
  t -> string -> (unit -> Xq_pipeline.Pipeline.compiled) ->
  Xq_pipeline.Pipeline.compiled

(** [find t key] — lookup without inserting; bumps recency on hit and
    counts a hit/miss. *)
val find : t -> string -> Xq_pipeline.Pipeline.compiled option

(** Evict everything (uncharging the account). Counters survive. *)
val clear : t -> unit

type stats = {
  p_hits : int;
  p_misses : int;
  p_evictions : int;
  p_entries : int;
  p_bytes : int;  (** resident-byte estimate currently charged *)
}

val stats : t -> stats
