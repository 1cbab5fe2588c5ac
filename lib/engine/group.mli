(** The grouping operator underlying the [group by] clause.

    Three strategies, the first two matching Section 3.3 of the paper:
    - {!group_hash}: used when every key compares with the default
      [fn:deep-equal] — one pass, hash on the key sequences, deep-equal
      within buckets;
    - {!group_scan}: used when any key has a [using] function — compares
      each tuple against the representatives of the existing groups with
      the per-key equality (user functions are opaque, so no hashing is
      possible);
    - {!group_sort}: an alternative to {!group_hash} — identical groups
      in identical order, but able to emit groups in key order so a
      downstream sort on the keys can be elided.

    Every strategy first canonicalizes each tuple's key list exactly once
    ({!Key.canonicalize}): key node subtrees are walked a single time,
    after which all equality tests and sort comparisons run on canonical
    keys (hash fast-reject + string compare) — no strategy re-walks a
    subtree or re-stringifies a node per comparison.

    With [parallel] > 1 the strategies use the {!Par} domain pool:
    canonicalization is chunked, the hash build is hash-partitioned with
    a deterministic first-encounter-order merge, and the sorted-output
    sort is a parallel stable merge sort. Output is byte-identical at
    any degree; [parallel_keys] additionally evaluates [keys_of] on the
    pool and must only be set when the caller knows the key expressions
    are thread-safe (no node construction).

    All strategies preserve first-occurrence order of groups and the
    input order of members within each group (which is what the [nest]
    clause concatenates, per Section 3.4.1); {!group_sort} can instead
    emit groups in key order for fusion with a downstream sort.

    When the caller passes a tuple codec via [spill] and the governor
    arms a soft memory watermark, {!group_hash} and {!group_sort}
    degrade to an external build instead of hard-tripping: partitions
    under pressure serialize their tables to crash-safe spill files and
    return the bytes to the budget; hash grouping replays the files with
    bounded recursive repartitioning (depth-salted hash, sorted-run
    fallback at the cap), sort grouping merges sorted runs with a loser
    tree. Output stays byte-identical to the in-memory path at any
    watermark and parallel degree; under spilling the group-cardinality
    budget is checked once per partition merge rather than per insert,
    and [tally] counts the external probes/comparisons actually made
    (not the in-memory path's). If no spill directory is usable, a
    one-line warning is printed once and the in-memory hard-trip path
    runs. {!group_scan} never spills (user equality functions cannot be
    replayed). *)

open Xq_xdm

(** Serialize/deserialize one tuple for spill frames. Node items must
    go through the registry (see {!Binio}) so identity survives. *)
type 'a codec = {
  enc : Binio.node_registry -> Buffer.t -> 'a -> unit;
  dec : Binio.node_registry -> Binio.reader -> 'a;
}

type 'a group = {
  keys : Xseq.t list;  (** representative key values (first tuple's) *)
  members : 'a list;   (** in input order *)
}

(** The bucket hash used by {!group_hash}: consistent with deep-equal
    (deep-equal key lists hash equally). Per-key hashes are combined
    with {!Key.mix}, so wide key lists don't collapse through a single
    bounded [Hashtbl.hash] pass. Exposed so tests can force
    collisions. *)
val hash_keys : Xseq.t list -> int

(** {1 Incremental builder}

    The batched executor's interface: one accumulator per group
    operator, fed tuple vectors as upstream operators produce them.
    [mode] picks the strategy ([`Sort b] is sort with [sorted_output:b];
    [`Scan eq] is the user-equality scan). [presize] is a cardinality
    estimate: in-memory hash tables are created with roughly that many
    slots (clamped) instead of growing by rehash from 64.

    [cost] estimates the live-heap bytes a retained member pins beyond
    the builder's own bookkeeping (default: a small constant). The
    external build's flush accounting is only as honest as this
    estimate: members that own large detached structures (streamed scan
    tuples) must report their real size or partitions never look big
    enough to flush and the heap outruns the budget unrecorded.
    [detach] (default [false]; a streamed run's) makes spill frames
    encode detached subtrees by value ({!Binio.registry}), so flushing
    actually releases them.

    Feeding is where key canonicalization happens; once the running
    input size reaches an internal floor (and [config] is batched with
    the dictionary on), node keys intern into the process key
    dictionary so probes hash/compare int codes. Interned and raw keys agree on
    hash/equality, so results are independent of where the switch lands.

    {!finish} returns the groups exactly as the one-shot entry points
    below would for the concatenated feeds — byte-identical at any
    batch size, parallel degree, strategy and spill watermark.

    [reduce] switches the builder to eager-aggregation mode: every
    group retains exactly one member — a running accumulator — and each
    insertion folds the new tuple into it with [reduce earlier later]
    (earlier argument on the left, preserving input order). Spill
    frames then carry one encoded accumulator per group, so the
    external build's disk and live-heap footprint is O(groups), not
    O(members), and parallel partial merges combine accumulators. The
    caller's [reduce] must be associative over input order splits for
    {!finish} to be independent of spill watermark and parallel
    degree. [config] (default: the environment) gives the batch size
    and the dictionary switch; [parallel] (default 1) the degree. *)

type 'a builder

val builder :
  ?hash:(Xseq.t list -> int) ->
  ?tally:int ref ->
  ?spill:'a codec ->
  ?presize:int ->
  ?cost:('a -> int) ->
  ?reduce:('a -> 'a -> 'a) ->
  ?parallel:int ->
  ?parallel_keys:bool ->
  ?detach:bool ->
  ?config:Xq_governor.Config.t ->
  mode:
    [ `Hash
    | `Sort of bool
    | `Scan of int -> Key.single -> Key.single -> bool ] ->
  keys_of:('a -> Xseq.t list) ->
  unit ->
  'a builder

(** Feed one vector of tuples (in input order). The array is not
    retained. On a spill-path exception the builder's files are closed
    before the exception propagates. *)
val feed : 'a builder -> 'a array -> unit

(** Under memory pressure, flush any external partition holding enough
    to be worth a frame (and collect, so the freed cells are reusable
    before the next hard-budget check). Safe to call at any point
    between {!feed}s — a streamed scan's pressure callback uses it,
    since governor ticks during parsing land outside the feed windows
    where the builder's own callbacks are registered. No-op during a
    feed and for in-memory builds. *)
val relieve : 'a builder -> unit

(** Merge and return the groups. Call at most once. *)
val finish : 'a builder -> 'a group list

(** [tally], on every strategy, counts comparator work: one increment
    per equality test / comparator invocation (identical at any
    [parallel] degree). [hash] overrides the bucket hash (tests use a
    constant to force collisions). *)
val group_hash :
  ?hash:(Xseq.t list -> int) ->
  ?tally:int ref ->
  ?spill:'a codec ->
  ?presize:int ->
  ?parallel:int ->
  ?parallel_keys:bool ->
  ?config:Xq_governor.Config.t ->
  keys_of:('a -> Xseq.t list) ->
  'a list ->
  'a group list

(** [equal i] compares canonicalized values of the [i]-th key (their
    original sequences are in [Key.orig]). *)
val group_scan :
  ?tally:int ref ->
  ?parallel:int ->
  ?parallel_keys:bool ->
  ?config:Xq_governor.Config.t ->
  keys_of:('a -> Xseq.t list) ->
  equal:(int -> Key.single -> Key.single -> bool) ->
  'a list ->
  'a group list

(** Sort-based grouping. With [sorted_output:false] (the default) the
    result is identical to {!group_hash} — groups in first-occurrence
    order; with [sorted_output:true] groups stay in ascending key order,
    which lets a downstream sort on the same keys be elided. Only the
    group representatives are sorted (g·log g canonical comparisons),
    not the n tuples. *)
val group_sort :
  ?tally:int ref ->
  ?sorted_output:bool ->
  ?spill:'a codec ->
  ?presize:int ->
  ?parallel:int ->
  ?parallel_keys:bool ->
  ?config:Xq_governor.Config.t ->
  keys_of:('a -> Xseq.t list) ->
  'a list ->
  'a group list

(** The total preorder the sort strategy orders groups by — deep-equal
    key lists always compare 0. Exposed for tests. *)
val compare_key_lists : Xseq.t list -> Xseq.t list -> int
