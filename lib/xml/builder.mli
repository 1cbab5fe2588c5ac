(** A terse combinator DSL for building XML trees programmatically — used
    by the workload generators and tests.

    {[
      let book =
        el "book"
          [ el_text "title" "Transaction Processing";
            el_text "author" "Jim Gray";
            el "price" [ txt "59.00" ] ]
    ]}

    A built tree has the form a parse of its serialization has: ids in
    preorder, one name table for the whole document, and every element
    with no attributes and exactly one text part stored as a one-block
    leaf ({!Xq_xdm.Node.as_leaf}). *)

open Xq_xdm

type part

(** An element with the given (unprefixed) name and parts. *)
val el : string -> part list -> part

(** An element whose only content is the given text. *)
val el_text : string -> string -> part

(** An element with attributes and parts. *)
val el_attrs : string -> (string * string) list -> part list -> part

val txt : string -> part
val attr : string -> string -> part
val comment_part : string -> part

(** Realize a part as a node (fresh ids, preorder). *)
val build : part -> Node.t

(** Wrap parts in a document node. *)
val build_document : part list -> Node.t

(** Convenience: realize and wrap a single root part. *)
val doc : part -> Node.t

(** [fill root f] is the document whose root element [root] receives, in
    order, each part that [f] passes to its [add] argument. Each part is
    realized as it arrives, so a generator that adds one record at a time
    never holds a part tree for the whole document. The root element
    itself is always full form, since it is attached before its parts
    arrive: when [parts] is a single text part, [doc (el root parts)]
    makes the root a leaf and [fill] does not. For any other [parts]
    (attributes come as {!attr} parts) the result equals
    [doc (el root parts)], ids included. *)
val fill : string -> ((part -> unit) -> unit) -> Node.t
