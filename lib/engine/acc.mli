(** Per-group running aggregate state for the eager-aggregation rewrite.

    When a nest variable is consumed only by [fn:sum]/[count]/[avg]/
    [min]/[max], the executor folds each member's value into one of
    these instead of materializing (or spilling) the member list. One
    accumulator serves every aggregate applied to the same variable.

    The folds replicate the builtin aggregates exactly, item by item in
    input order, including their error behaviour — except that errors
    are recorded sticky rather than raised, so the executor can deliver
    them exactly where and when the unrewritten plan would have (at the
    aggregate's call site in the return expression, or before any group
    output for a failing nest expression).

    Exactness caveat: {!merge} (spill re-encounter only) adds partial
    float sums and compares partial min/max bests in one step; error
    codes and integer results are unaffected, float results can differ
    in the last ulp for spilled groups with non-associative data. *)

open Xq_xdm

type t

val create : unit -> t

(** Fold one member's value (the nest expression's result for one
    tuple) into the accumulator, item by item in sequence order. Never
    raises. *)
val step : t -> Xseq.t -> unit

(** [step] for a slot whose only aggregate is [Count]: adds the item
    count and nothing else (no atomization, no sum or min/max fold).
    {!finish} is then only meaningful for [Count]. *)
val step_count : t -> Xseq.t -> unit

(** Record a dynamic error raised by the nest expression itself (first
    one sticks). The executor re-raises it before pushing any group
    output, matching the unrewritten materialization order. *)
val poison_nest : t -> Xerror.code -> string -> unit

val nest_err : t -> (Xerror.code * string) option

(** [merge earlier later] — combine a later partial into an earlier one
    (spilled group re-encountered). Earlier sticky errors win. Mutates
    and returns [earlier]. *)
val merge : t -> t -> t

(** Which aggregate a call site applies. *)
type kind = Count | Sum | Avg | Min | Max

val kind_name : kind -> string
val kind_of_name : string -> kind option

(** The aggregate's value for the group, or the error the builtin would
    have raised at its call site. *)
val finish : t -> kind -> (Xseq.t, Xerror.code * string) result

(** {1 Spill codec}

    Accumulators are plain atoms and strings — no node references — so
    the codec needs no registry. [decode] raises [Binio.Corrupt] on any
    out-of-range tag, negative count or torn payload. *)

val encode : Buffer.t -> t -> unit
val decode : Binio.reader -> t

(** Rough live-heap bytes one accumulator pins (the governor's charge
    per retained group, replacing the member-list bytes). *)
val charged_bytes : t -> int

(** {1 Call-site plumbing}

    The optimizer substitutes each [fn:agg($v)] call site with
    [agg-unwrap!($v!agg)]: the executor binds the mangled variable to
    the finished aggregate value — or to a poison marker carrying the
    error the builtin would have raised — and the internal unwrap
    builtin returns the value or raises the error at exactly the
    original call site. ["!"] cannot appear in an NCName, so neither
    name can collide with user-written queries. *)

(** Local name of the internal unwrap builtin (default fn namespace). *)
val unwrap_local : string

(** First item of a 3-item poison marker [(tag, code, message)] — the
    value bound when {!finish} reports the error the aggregate builtin
    would have raised; the unwrap builtin re-raises it. Real aggregate
    results are at most one item, so the marker is unambiguous. *)
val poison_tag : string

(** [mangle v kind] — the tuple variable carrying [kind]'s result for
    nest variable [v] (e.g. ["items!sum"]). *)
val mangle : string -> kind -> string
