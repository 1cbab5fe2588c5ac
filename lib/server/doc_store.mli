(** Shared resident document store for the query server.

    Parsed documents are immutable (the XDM tree is purely functional),
    so one resident copy can serve any number of concurrent queries:
    two loads of the same file return the {e physically identical}
    node. Entries are keyed on path and validated against the file's
    (mtime, size, inode) on every load — re-statted under the store
    lock, so both in-place rewrites and rename-swaps that preserve
    mtime and size are caught — and a changed file is reparsed in
    place with the stale tree dropped. Capacity is a resident-byte bound with
    least-recently-used eviction; each tree's bytes, measured once when
    it is parsed, are charged against an optional accounting governor
    feeding the server's admission gauge. All operations are
    thread-safe. *)

type t

(** [create ?capacity_bytes ?account ()] — [capacity_bytes] bounds the
    resident-byte estimate (default 256 MB); [account] is charged via
    {!Xq_governor.Governor.charge_on} (never installed, never trips). *)
val create :
  ?capacity_bytes:int -> ?account:Xq_governor.Governor.t -> unit -> t

(** The heap bytes of a parsed tree, as {!load} charges them:
    {!Xq_xdm.Node.heap_words} in bytes, headers included — exposed so
    tests can predict eviction. *)
val tree_bytes : Xq_xdm.Node.t -> int

(** [load t path] returns the resident document for [path], parsing it
    on first use or when its (mtime, size, inode) changed since it was
    cached.
    Raises [Sys_error] when the file cannot be read and the XML
    parser's errors when it cannot be parsed; neither leaves a cache
    entry behind. *)
val load : t -> string -> Xq_xdm.Node.t

(** Evict everything (uncharging the account). Counters survive. *)
val clear : t -> unit

type stats = {
  d_hits : int;
  d_misses : int;  (** includes invalidations — each implies a reparse *)
  d_evictions : int;  (** capacity evictions only *)
  d_invalidations : int;  (** (mtime, size, inode) mismatches *)
  d_entries : int;
  d_resident_bytes : int;
}

val stats : t -> stats
