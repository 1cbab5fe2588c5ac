(** A non-validating XML 1.0 parser producing {!Xq_xdm.Node} trees: the
    materializing front of {!Xml_reader}, the one reader the streamed
    scan ({!Xml_stream}) also uses.

    Supported: elements, single- or double-quoted attributes, character
    data, the five predefined entities plus character references
    ([&#] digits [;] or [&#x] hex digits [;], naming an XML Char),
    CDATA sections, comments, processing instructions, an XML
    declaration and a DOCTYPE (both skipped). Not supported (out of
    scope for the paper's workloads): DTD-defined entities,
    namespaces-by-URI resolution.

    Whitespace policy: text that consists purely of whitespace between two
    element tags is dropped when [keep_whitespace] is false (the default),
    matching how data-oriented XQuery engines load data documents.

    A string is read in place; {!parse_file} reads the file through a
    64 KB window and never holds the whole file as one string.

    Untrusted-input limits: element nesting is capped ([max_depth],
    default {!default_max_depth}) so hostile documents fail with a
    positioned {!Parse_error} instead of a stack overflow, and
    [max_bytes] caps the total input size. Limits passed explicitly (or
    the built-in depth default) raise {!Parse_error}; limits inherited
    from an installed resource governor ([XQ_MAX_DEPTH],
    [XQ_MAX_INPUT]) raise [Xerror.Error XQENG0005] so the CLI can
    classify the trip as resource exhaustion. While a governor is
    installed, the parser also ticks it per element, so deadlines and
    cancellation apply during document loading. A materialized load
    never draws [XQ_FAULTS] read faults. *)

exception Parse_error of { line : int; column : int; message : string }
(** The same exception as {!Xml_reader.Parse_error}. *)

(** Default element-nesting cap (512). *)
val default_max_depth : int

(** Parse a complete document; the result is a [Document] node. *)
val parse :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  string ->
  Xq_xdm.Node.t

(** Parse a single element fragment (no XML declaration required),
    returning the element node itself. *)
val parse_fragment :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  string ->
  Xq_xdm.Node.t

val parse_file :
  ?keep_whitespace:bool ->
  ?max_depth:int ->
  ?max_bytes:int ->
  string ->
  Xq_xdm.Node.t

(** Render the error position and message. *)
val error_to_string : exn -> string option
