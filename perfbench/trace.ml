(* In-memory span recorder for the traced run.

   A span is a timed call into one layer's public function: name,
   start and end on the monotonic clock, the enclosing span and the
   operation it belongs to, plus counters taken at the same boundary.
   Spans stay in memory until [write] dumps them as JSON lines at the
   end of the run. Single-threaded: the traced run drives one call at
   a time. *)

let now_ns () = Monotonic_clock.now ()

type span = {
  id : int;
  name : string;
  op : int;
  label : string;  (** the operation's query label *)
  parent : int;  (** [-1] for an operation's root span *)
  t0 : int64;
  t1 : int64;
  attrs : (string * float) list;
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_op = ref 0
let current_label = ref ""

(* Start a new operation: later spans carry its id and [label]. *)
let new_op label =
  incr current_op;
  current_label := label

let with_span ?(attrs = fun _ -> []) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now_ns () in
  let close attrs =
    let t1 = now_ns () in
    open_spans := List.tl !open_spans;
    spans :=
      { id; name; op = !current_op; label = !current_label; parent; t0; t1; attrs }
      :: !spans
  in
  match f () with
  | r ->
    close (attrs r);
    r
  | exception e ->
    close [];
    raise e

let ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6
let named name = List.filter (fun s -> s.name = name) !spans
let attr s key = List.assoc_opt key s.attrs

(* Duration minus the time covered by direct children. Children of one
   span run one after another, so their durations add up. *)
let self_ms s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. ms c else acc)
    (ms s) !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"name":"%s","op":%d,"label":"%s","parent":%d,"start_ns":%Ld,"end_ns":%Ld%s}|}
        s.id s.name s.op s.label s.parent s.t0 s.t1
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf {|,"%s":%.17g|} k v) s.attrs));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc
