(** Streaming and projected XML ingestion.

    One automaton ({!compile}) and {!Xml_reader}'s one projecting walk
    serve both. A projected load ({!load}) builds one tree holding only
    the paths of a query's path set. A streamed scan ({!scan}) is the
    projected read of [[(path, Whole)]] whose matches go to a sink: it
    builds XDM subtrees {e only} for them, never the elements above, so
    memory is bounded by the matched subtrees in flight rather than
    the document size.

    An element that is not built is validated without interning (name
    tests and end tags compare raw bytes), without buffering its text
    and without allocating. It still gets its governor tick and raises
    exactly the errors and positions the building path raises:
    entities, attribute syntax, duplicate attributes ([XQDY0025]),
    comment/CDATA/PI terminators, the depth limit and byte caps
    (explicit or inherited from an installed governor). A query run
    over the streamed subtrees produces output byte-identical to the
    materializing path.

    When [XQ_FAULTS] is active, the read-I/O fault stream injects
    short reads (benign), EIO and torn reads (both [XQENG0008]) and
    truncations (a clean parse error) at a scan's chunk refills —
    failures always surface as structured errors, never partial data. *)

open Xq_xdm

type source = [ `String of string | `File of string ]

(** An element name test of a projection step. *)
type test = Any | Name of Xname.t | Prefix of string

(** One projection step: [desc] marks a descendant ([//]) step, i.e.
    the match may sit any number of levels below, not just one. *)
type step = { desc : bool; test : test }

(** A root-anchored projection path, outermost step first. *)
type path = step list

(** Render a path in XPath notation, e.g. ["/orders//item"]. *)
val path_to_string : path -> string

(** [scan ~path ~emit src] parses [src] front to back and calls
    [emit ~bytes node] for every element matching [path], in document
    order. [bytes] is a heap-cost estimate for the subtree, carried by
    the first match of each top-level capture (nested matches within it
    report [0]); callers charge it against the governor to keep streamed
    execution accountable. Matches are emitted as soon as their
    outermost enclosing match closes, while parsing continues.

    Raises [Invalid_argument] when [path] is empty or [[(path, Whole)]]
    does not {!compile}, {!Xml_parse.Parse_error} on malformed input,
    [Xerror.Error (XQENG0005, _)] on tripped governed limits and
    [Xerror.Error (XQENG0008, _)] on (injected) read-I/O failures.
    Raises [Sys_error] if a [`File] source cannot be opened. *)
val scan :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  path:path ->
  emit:(bytes:int -> Node.t -> unit) ->
  source ->
  unit

(** {1 Projected loads} *)

(** How a query uses the nodes at a path: it only navigates them
    (counts them, tests them, compares their identity), or it reads
    their whole subtree (atomizes, compares, copies or serializes
    them). *)
type mark = Navigate | Whole

(** The root-anchored paths a query navigates, each with its mark. The
    empty path is the document node itself. *)
type path_set = (path * mark) list

(** E.g. ["//order/lineitem, //order/lineitem/shipmode (whole)"]. *)
val path_set_to_string : path_set -> string

(** A compiled path set. *)
type automaton

(** [compile paths] is the trie automaton of [paths]: one state bit per
    trie node, one more per node with a descendant step below it. It
    fails, with the reason, when the root is [Whole] or the bits do not
    fit in an [int]; a query with such a path set reads the whole
    document. A streamed scan of [path] runs [compile [(path, Whole)]],
    so a path it compiles is a path that scans. *)
val compile : path_set -> (automaton, string) result

(** [load ~paths src] reads [src] into a [Document] node that holds
    only what a query navigating [paths] can see: every element at a
    path (a prefix of one included) with its attributes, the whole
    subtree of every element at a [Whole] path, and the ancestors of
    both, in document order. Everything else is validated and
    dropped, with the errors and positions {!Xml_parse.parse_file}
    raises; like it, the load draws no read faults. A path set that
    does not {!compile} loads the whole document. *)
val load :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  paths:path_set ->
  source ->
  Node.t

(** [load] of an already compiled path set. *)
val load_compiled :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  automaton ->
  source ->
  Node.t

(** [load] over an already opened reader. *)
val load_reader :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  paths:path_set ->
  Xml_reader.t ->
  Node.t

(** [collect ~path src] gathers all matches in document order —
    a convenience for tests. *)
val collect :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  path:path ->
  source ->
  Node.t list

(** [scan] over an already opened reader — the entry tests use to place
    refill seams anywhere ({!Xml_reader.of_fill}). *)
val scan_reader :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  path:path ->
  emit:(bytes:int -> Node.t -> unit) ->
  Xml_reader.t ->
  unit
