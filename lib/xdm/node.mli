(** XML tree nodes with identity and document order.

    Every node carries a process-wide unique [id] assigned at creation.
    Parsers and builders create nodes in preorder, so within one tree the
    ids coincide with document order; across trees the ids give an
    arbitrary but stable implementation-defined order, as the XQuery data
    model permits. Element construction in queries copies its content
    (fresh ids), matching the XQuery constructor semantics.

    The representation is abstract: one heap block per node, with child
    and attribute lists built reversed for O(1) append and put in
    document order once by {!seal}. A finished element with no
    attributes and a single text child may be stored as a one-block
    {e leaf} (see {!as_leaf}); readers see an ordinary element. Inspect
    nodes through {!kind} and the accessors. *)

type t

type kind = Document | Element | Attribute | Text | Comment | Pi

(** {1 Construction} *)

val document : unit -> t
val element : Xname.t -> t
val attribute : Xname.t -> string -> t
val text : string -> t
val comment : string -> t
val pi : target:string -> data:string -> t

(** Append a child (sets its parent); O(1) on an open node. Raises
    [Invalid_argument] when the receiver cannot have children or the
    child is an attribute or document. Appending to a sealed node
    reopens it. *)
val append_child : t -> t -> unit

(** Attach an attribute to an element (sets its parent). Raises
    [Xerror.Error (XQDY0025, _)] on a duplicate attribute name and
    [Invalid_argument] when the receiver is not an element or the
    argument not an attribute. *)
val set_attribute : t -> t -> unit

(** Close a node under construction: put its children and attributes in
    document order, once. Every builder seals each document and element
    node when it finishes it; reading a sealed node's {!children} or
    {!attributes} then returns the stored list, allocating and writing
    nothing, so sealed trees are safe to read from several domains. An
    unsealed node reads correctly but pays a reversal per read. No-op on
    sealed and childless kinds. *)
val seal : t -> unit

(** [as_leaf n] is the one-block leaf form of a detached element [n]
    that has no attributes and whose only child is a text node with id
    [id n + 1]; any other node is returned as it is. A leaf reads as
    that element: {!kind} is [Element], {!string_value} returns the
    stored string without copying, and {!children} returns a fresh
    one-item list whose text node has id [id n + 1], the leaf as parent
    and the same string, so {!same} and document order are unchanged.
    Reads never write to a leaf. A leaf is final: {!append_child} and
    {!set_attribute} on it raise [Invalid_argument]. Parsers, the spill
    codec and {!copy} call this on each element they finish; use [n]'s
    result in place of [n]. *)
val as_leaf : t -> t

(** Whether [n] is stored as a leaf, so hot paths can read its text with
    {!string_value} instead of building its child list. *)
val is_leaf : t -> bool

(** Deep copy with fresh ids assigned in preorder (used by element
    constructors); copied elements that qualify become leaves. *)
val copy : t -> t

(** {1 Explicit-id construction (spill codec only)}

    Rebuild a node carrying a given id instead of drawing a fresh one,
    so a spilled subtree decoded from disk keeps its original document
    order and identity. Only ever call these with ids previously issued
    by this process (the codec round-trips them); the global counter is
    monotone and never reissues an id, so no collision with live nodes
    is possible. *)

val element_with_id : id:int -> Xname.t -> t
val attribute_with_id : id:int -> Xname.t -> string -> t
val text_with_id : id:int -> string -> t
val comment_with_id : id:int -> string -> t
val pi_with_id : id:int -> target:string -> data:string -> t

(** {1 Accessors} *)

val id : t -> int
val kind : t -> kind
val parent : t -> t option

(** Children in document order (empty for childless kinds). *)
val children : t -> t list

(** Attribute nodes of an element (empty otherwise). *)
val attributes : t -> t list

(** Element or attribute name. *)
val name : t -> Xname.t option

(** [local-name()]: empty string for unnamed kinds. *)
val local_name : t -> string

val is_element : t -> bool
val is_attribute : t -> bool
val is_text : t -> bool

(** Content of an attribute node. Raises [Invalid_argument] otherwise. *)
val attribute_value : t -> string

(** Content of a text node. Raises [Invalid_argument] otherwise. *)
val text_content : t -> string

val comment_text : t -> string
val pi_target : t -> string
val pi_data : t -> string

(** The string-value: concatenated descendant text for documents and
    elements; the value for attributes; the content for text, comments
    and PIs. *)
val string_value : t -> string

(** The typed value of a schemaless node: [Untyped (string_value n)],
    except comments and PIs whose value is a string. *)
val typed_value : t -> Atomic.t

(** {1 Navigation} *)

val root : t -> t

(** Descendants in document order, excluding [n] and attributes. *)
val descendants : t -> t list

(** [n] followed by its descendants. *)
val descendant_or_self : t -> t list

(** Ancestors from parent to root. *)
val ancestors : t -> t list

val following_siblings : t -> t list
val preceding_siblings : t -> t list

(** Document order within a tree; across trees, a stable arbitrary order. *)
val doc_order_compare : t -> t -> int

(** Identity (the [is] operator). *)
val same : t -> t -> bool

(** Sort into document order and drop duplicate identities (the implicit
    semantics of path-expression results). *)
val sort_in_doc_order : t list -> t list

(** Heap words held by the tree at [n], headers included: its node
    blocks, list cells and strings, and each distinct name record once.
    For a document this is what [Obj.reachable_words] reports, found by a
    plain walk with no visited-block table. *)
val heap_words : t -> int

(** Reset the global id counter — test-only helper for reproducibility. *)
val reset_ids_for_testing : unit -> unit
