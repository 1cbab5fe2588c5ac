(** The one XML reader behind {!Xml_parse} and {!Xml_stream}.

    It reads a source through a window: a string in place, a file or a
    fill function through a compacting 64 KB window with refill. Text
    runs are scanned in a tight loop up to the next [<] or [&], names
    are interned straight from the window and only for nodes that are
    built, and line and column are computed only when an error is
    raised. One projecting walk runs a path automaton ({!plan}). An
    element it does not build is validated with no interning, no text
    buffering and no allocation, raising exactly the errors and
    positions building it would. *)

exception Parse_error of { line : int; column : int; message : string }

(** Default element-nesting cap (512). *)
val default_max_depth : int

(** A window over one source. *)
type t

(** [of_string s] reads [s] in place, the window advancing a chunk per
    refill. With [~faults:true] (a streamed scan) each refill draws an
    [XQ_FAULTS] read fault. *)
val of_string : ?faults:bool -> string -> t

(** [of_fill ~size fill] reads through [fill buf off len], which stores
    up to [len] bytes at [buf.[off]] and returns how many, 0 at the end.
    [size] is the source's length, checked against byte caps up front.
    This is also the test entry that places refill seams anywhere. *)
val of_fill :
  ?faults:bool ->
  ?source_name:string ->
  size:int ->
  (Bytes.t -> int -> int -> int) ->
  t

(** [with_file path f] runs [f] on a reader of the file and closes it.
    A read error raises [Xerror.Error XQENG0008]; a file that cannot be
    opened raises [Sys_error]. *)
val with_file : ?faults:bool -> string -> (t -> 'a) -> 'a

(** Parse a complete document into a [Document] node. *)
val document :
  ?keep_whitespace:bool -> ?max_depth:int -> ?max_bytes:int -> t -> Xq_xdm.Node.t

(** Parse a single element (no XML declaration required). *)
val fragment :
  ?keep_whitespace:bool -> ?max_depth:int -> ?max_bytes:int -> t -> Xq_xdm.Node.t

(** The path automaton of a projecting read. [step state stack off len]
    is the state of an element spelled [stack.[off .. off+len)] whose
    parent has the nonzero [state]; the document node holds state 1.
    State 0 is dead: the element is validated and dropped. An element
    with a bit of [whole] is built with its whole subtree. One with a
    bit of [keep] is built with its attributes, and its content is
    projected in turn: text, comments and PIs are validated and
    dropped. Any other live element is built, without attributes, only
    when an element below it is. *)
type plan = {
  step : int -> Bytes.t -> int -> int -> int;
  keep : int;
  whole : int;
}

(** Where a scan's matches go. [on_match] gets each element with a bit
    of [whole] as it opens, the ones nested inside another included;
    when the outermost one closes, [on_capture] gets its span in source
    bytes. *)
type sink = { on_match : Xq_xdm.Node.t -> unit; on_capture : int -> unit }

(** The projecting walk over a complete document, into a [Document]
    node holding only what [plan] builds, in document order. It raises
    the errors and positions {!document} raises, as {!project} does. *)
val projected :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  t ->
  plan ->
  Xq_xdm.Node.t

(** The projecting walk, to [sink]: only the whole-marked elements and
    their subtrees are built, never the elements above them. *)
val project :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  t ->
  plan ->
  sink ->
  unit
