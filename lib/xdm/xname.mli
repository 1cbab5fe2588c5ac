(** Qualified names.

    Namespace prefixes are compared literally (no URI resolution); this is
    a documented simplification — the paper's queries only use the
    [local:], [fn:] and [xs:] prefixes, which are significant as spelled. *)

type t = {
  prefix : string option;  (** [None] for unprefixed names *)
  local : string;
}

val make : ?prefix:string -> string -> t

(** Parse a lexical QName, splitting on the first [':']. *)
val of_string : string -> t

(** [prefix:local] or [local]. *)
val to_string : t -> string

(** Physically equal names (e.g. two names from one {!intern} table)
    compare equal without looking at their strings. *)
val equal : t -> t -> bool
val compare : t -> t -> int

(** True when [t] has no prefix (or the [fn:] prefix, which is the default
    function namespace) — used to look up built-in functions. *)
val is_default_fn : t -> bool

(** {1 Per-parse interning}

    An XML reader keeps one table per parse, so every occurrence of a
    spelling in that document shares one physically equal name: the
    tree holds one record per distinct name instead of one per element,
    and {!equal} on two names from one table is a pointer compare. *)

type table

val table : unit -> table

(** [intern tbl s pos len] is the name spelled by the [len] bytes of [s]
    at [pos], split as {!of_string} splits it. The first call with a
    spelling allocates the name; later calls on [tbl] return the same
    value and allocate nothing. [s] is only read during the call, never
    retained. *)
val intern : table -> string -> int -> int -> t
