(** Canonical grouping keys.

    A canonical key is built from a tuple's key list exactly once:
    node items are atomized into a deep-equal-exact fingerprint plus a
    memoized string value, and a deep-equal-consistent hash and sort
    atom are precomputed. After canonicalization no grouping strategy
    re-walks a key subtree — equality is a hash fast-reject plus string
    compare, ordering is a string/float compare.

    Invariants (checked by [test/test_key.ml] qcheck properties):
    - {!equal} coincides exactly with [Deep_equal.sequences] over the
      original key lists;
    - deep-equal keys have equal {!hash};
    - {!compare} is a total preorder in which deep-equal keys compare 0,
      identical to PR 1's [Group.compare_key_lists] order. *)

open Xq_xdm

(** One canonicalized item. *)
type canon =
  | CAtom of Atomic.t
  | CNode of { fp : string; sv : string }
      (** [fp]: injective encoding of the node's deep-equal class;
          [sv]: its string value (the sort key for nodes). *)
  | CCode of int
      (** Dictionary code: an interned [CNode]. Hash, equality and sort
          atom resolve through the process key dictionary and agree
          exactly with the raw [CNode] they intern (including when one
          side is interned and the other is not). *)

(** One canonicalized key sequence (the value of one [group by] key). *)
type single = { orig : Xseq.t; items : canon array; h : int }

(** A canonicalized key list (all keys of one tuple). *)
type t = { singles : single array; hash : int }

(** [intern] (default [false]) emits [CCode] items for node keys, interned
    into the key dictionary (see below); the group builder decides it
    per build. *)
val canonicalize : ?intern:bool -> Xseq.t list -> t

(** The original key sequences, unchanged (representative values for the
    grouping variables). *)
val originals : t -> Xseq.t list

val hash : t -> int
val equal : t -> t -> bool
val equal_single : single -> single -> bool

(** Total preorder consistent with deep-equal (see module doc). *)
val compare : t -> t -> int

val compare_single : single -> single -> int

(** Order on raw atoms underlying {!compare} — exposed for the executor's
    reuse and for tests. *)
val compare_atoms : Atomic.t -> Atomic.t -> int

(** {1 Hash mixing}

    FNV-1a-style fold, used to combine per-key hashes so wide key lists
    don't collapse through a single bounded [Hashtbl.hash] pass. *)

val hash_seed : int
val mix : int -> int -> int

(** {1 Spill support} *)

(** Exactly the bytes {!canonicalize} charged to the governor for this
    key (node fingerprint + string-value lengths) — what a spill
    returns to the budget when the in-memory key is dropped. *)
val charged_bytes : t -> int

(** Per-depth repartition salt: level [d] of a recursive spill re-splits
    on [mix (salt d) (hash k)], so keys that collided modulo the fanout
    at one level spread at the next. *)
val salt : int -> int

(** Binary codec (spill frames). Stored hashes are written, not
    recomputed, so replay sees exactly the values the build saw even
    under a custom bucket hash; node items in [orig] encode by registry
    reference. [decode] raises [Binio.Corrupt] on malformed input. *)

val encode : Binio.node_registry -> Buffer.t -> t -> unit
val decode : Binio.node_registry -> Binio.reader -> t

(** {1 Instrumentation}

    A process-wide counter of node-subtree materializations (fingerprint
    walks). EXPLAIN ANALYZE reports the per-operator delta; tests assert
    grouping walks each key node exactly once. *)

val walk_count : unit -> int
val reset_walk_count : unit -> unit

(** {1 Key dictionary}

    A process-wide, append-only intern table keyed on node fingerprints.
    [canonicalize ~intern:true] emits [CCode] items for node keys
    instead of raw fingerprint strings, so grouping hashes and compares
    small int codes. Group builds intern when their query's
    configuration allows it ([Config.dict], [XQ_DICT]) and the build is
    batched and large. Spill frames carry the codes (the
    dictionary is the side table replay resolves against); the codec
    rejects codes outside the published dictionary as [Binio.Corrupt]. *)

(** Monotonic count of node keys interned to a code (EXPLAIN's [dict=]
    counter is conditional on its per-operator delta). *)
val intern_count : unit -> int

(** Number of distinct entries in the dictionary. *)
val dict_size : unit -> int

(** [(fingerprint, string-value)] for a code, or [None] if stale. *)
val dict_lookup : int -> (string * string) option

(** Drop all entries and codes. Test-only: live [CCode] keys or spill
    frames from before a reset are invalidated by it. *)
val reset_dict : unit -> unit
