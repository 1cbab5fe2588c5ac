(* One query's configuration. See config.mli. *)

type strategy = Hash | Sort | Auto

type t = {
  strategy : strategy;
  parallel : int;
  batch : int;
  agg_pushdown : bool;
  dict : bool;
  stream : bool option;
  no_stream : bool;
  rewrite : bool;
  timeout_ms : int option;
  max_groups : int option;
  max_mem_mb : int option;
  spill_at_mb : int option;
  spill_dir : string;
  spill : bool;
  max_input_bytes : int option;
  max_depth : int option;
  faults : string option;
}

let max_parallel = 64
let max_batch = 1 lsl 20
let default_batch = 4096
let clamp hi n = max 1 (min n hi)

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "hash" -> Some Hash
  | "sort" -> Some Sort
  | "auto" -> Some Auto
  | _ -> None

let strategy_to_string = function
  | Hash -> "hash"
  | Sort -> "sort"
  | Auto -> "auto"

(* A positive integer, else unset: malformed values fall back silently,
   as they always have. *)
let positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Some n
  | Some _ | None -> None

(* Every knob from [env]: the environment, or none for the defaults. *)
let read env =
  let env_int name = Option.bind (env name) positive in
  {
    strategy =
      Option.value ~default:Hash
        (Option.bind (env "XQ_GROUP_STRATEGY") strategy_of_string);
    parallel =
      Option.fold ~none:1 ~some:(clamp max_parallel) (env_int "XQ_PARALLEL");
    batch =
      Option.fold ~none:default_batch ~some:(clamp max_batch)
        (env_int "XQ_BATCH");
    agg_pushdown = env "XQ_NO_AGG_PUSHDOWN" = None;
    dict =
      (match env "XQ_DICT" with Some ("0" | "off" | "OFF") -> false | _ -> true);
    stream =
      (match env "XQ_STREAM" with
       | Some ("0" | "false" | "no") -> Some false
       | Some _ -> Some true
       | None -> None);
    no_stream =
      (match env "XQ_NO_STREAM" with
       | Some ("1" | "true" | "yes") -> true
       | _ -> false);
    rewrite = false;
    timeout_ms = env_int "XQ_TIMEOUT";
    max_groups = env_int "XQ_MAX_GROUPS";
    max_mem_mb = env_int "XQ_MAX_MEM";
    spill_at_mb = env_int "XQ_SPILL_AT";
    spill_dir =
      (match env "XQ_SPILL_DIR" with
       | Some d when d <> "" -> d
       | Some _ | None -> Filename.get_temp_dir_name ());
    spill = env "XQ_NO_SPILL" <> Some "1";
    max_input_bytes = env_int "XQ_MAX_INPUT";
    max_depth = env_int "XQ_MAX_DEPTH";
    faults = env "XQ_FAULTS";
  }

let default = read (fun _ -> None)

let resolve ?base ?strategy ?parallel ?batch ?agg_pushdown ?dict ?stream
    ?rewrite ?timeout_ms ?max_groups ?max_mem_mb ?spill_at_mb ?spill_dir
    ?spill () =
  let b = match base with Some b -> b | None -> read Sys.getenv_opt in
  let ( |? ) given fallback = Option.value given ~default:fallback in
  let ( |?? ) given fallback = if Option.is_some given then given else fallback in
  {
    b with
    strategy = strategy |? b.strategy;
    parallel = Option.fold ~none:b.parallel ~some:(clamp max_parallel) parallel;
    batch = Option.fold ~none:b.batch ~some:(clamp max_batch) batch;
    agg_pushdown = agg_pushdown |? b.agg_pushdown;
    dict = dict |? b.dict;
    stream = stream |?? b.stream;
    rewrite = rewrite |? b.rewrite;
    timeout_ms = timeout_ms |?? b.timeout_ms;
    max_groups = max_groups |?? b.max_groups;
    max_mem_mb = max_mem_mb |?? b.max_mem_mb;
    spill_at_mb = spill_at_mb |?? b.spill_at_mb;
    spill_dir = spill_dir |? b.spill_dir;
    spill = spill |? b.spill;
  }
