(** One query's configuration: every [XQ_*] knob, resolved once.

    {!resolve} applies one precedence per knob: an explicit argument (a
    CLI flag or protocol header) beats the [XQ_*] environment variable,
    which beats the default. Front ends resolve once per query, never
    once per process, so a changed environment reaches the next query.
    The execution settings ride the query's evaluation context, the
    resource and spill settings its governor; no knob is a process
    global, so concurrent queries never see each other's settings. This
    is the only module that reads the environment. *)

(** Grouping strategy for a default-equality [group by]. *)
type strategy = Hash | Sort | Auto

type t = {
  strategy : strategy;  (** [XQ_GROUP_STRATEGY]; default [Hash] *)
  parallel : int;  (** domain-pool degree: [XQ_PARALLEL]; default 1 *)
  batch : int;  (** executor batch size: [XQ_BATCH]; default 4096 *)
  agg_pushdown : bool;  (** off when [XQ_NO_AGG_PUSHDOWN] is set *)
  dict : bool;  (** key dictionary; off when [XQ_DICT] is [0]/[off] *)
  stream : bool option;
      (** [None]: stream when the projection allows; [Some true]:
          requested by name; [Some false]: off. [XQ_STREAM]:
          [0]/[false]/[no] is [Some false], anything else [Some true]. *)
  no_stream : bool;  (** the [XQ_NO_STREAM=1] kill switch; beats [stream] *)
  rewrite : bool;  (** implicit-group-by rewrite at compile time *)
  timeout_ms : int option;  (** [XQ_TIMEOUT] *)
  max_groups : int option;  (** [XQ_MAX_GROUPS] *)
  max_mem_mb : int option;  (** [XQ_MAX_MEM] *)
  spill_at_mb : int option;
      (** [XQ_SPILL_AT]; the governor defaults it to half of
          [max_mem_mb] *)
  spill_dir : string;  (** [XQ_SPILL_DIR], else [TMPDIR], else /tmp *)
  spill : bool;  (** off when [XQ_NO_SPILL=1] *)
  max_input_bytes : int option;  (** [XQ_MAX_INPUT]; environment only *)
  max_depth : int option;  (** [XQ_MAX_DEPTH]; environment only *)
  faults : string option;
      (** [XQ_FAULTS], raw; the governor reads it once per process *)
}

val max_parallel : int
val default_batch : int

(** Every knob at its default, ignoring the environment. *)
val default : t

val strategy_of_string : string -> strategy option
val strategy_to_string : strategy -> string

(** Each given argument, else [base]'s field when [base] is given (a
    server's own resolved defaults, which request headers override),
    else the environment, else the default. [parallel] and [batch] are
    clamped into [1 .. max_parallel] and [1 .. max_batch]. *)
val resolve :
  ?base:t ->
  ?strategy:strategy ->
  ?parallel:int ->
  ?batch:int ->
  ?agg_pushdown:bool ->
  ?dict:bool ->
  ?stream:bool ->
  ?rewrite:bool ->
  ?timeout_ms:int ->
  ?max_groups:int ->
  ?max_mem_mb:int ->
  ?spill_at_mb:int ->
  ?spill_dir:string ->
  ?spill:bool ->
  unit ->
  t
