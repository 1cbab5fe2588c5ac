module Pipeline = Xq_pipeline.Pipeline
module Optimizer = Xq_algebra.Optimizer

type doc_source = Doc_none | Doc_path of string | Doc_inline of string

type run_request = {
  rq_source : string;
  rq_doc : doc_source;
  rq_knobs : Pipeline.knobs;
  rq_indent : bool;
}

type command = Run of run_request | Stats | Ping | Quit

type response =
  | Payload of string
  | Error of {
      code : string;
      exit : int;
      message : string;
      retry_after_ms : int option;
    }

exception Protocol_error of string

let proto_fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* input_line keeps a trailing \r if a client talks CRLF; strip it so
   header parsing is transport-agnostic. *)
let read_line ic =
  let line = input_line ic in
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Counted fields are bounded: an unchecked length would let a one-line
   [QUERY 999999999999] header force a giant allocation in
   [really_input_string] before a single query byte arrives. The server
   passes its --max-request-bytes here; the client bounds response
   frames the same way. *)
let parse_len ~max_bytes what s =
  match int_of_string_opt s with
  | Some n when n >= 0 && n <= max_bytes -> n
  | Some n when n > max_bytes ->
    proto_fail "%s: length %d exceeds the %d-byte frame cap" what n max_bytes
  | _ -> proto_fail "%s: bad length %S" what s

let parse_pos what s =
  match int_of_string_opt s with
  | Some n when n > 0 -> n
  | _ -> proto_fail "%s must be a positive integer, got %S" what s

(* A counted field is <n> bytes followed by the frame's terminating
   newline (not part of the field). *)
let read_counted ic n =
  let s = really_input_string ic n in
  (match input_char ic with
   | '\n' -> ()
   | c -> proto_fail "expected newline after counted field, got %C" c);
  s

let split2 line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.sub line (i + 1) (String.length line - i - 1) )

let read_command ?(max_field_bytes = max_int) ic =
  let parse_len = parse_len ~max_bytes:max_field_bytes in
  match read_line ic with
  | exception End_of_file -> None
  | first ->
    let rec headers source doc knobs indent line =
      let word, rest = split2 line in
      let continue source doc knobs indent =
        headers source doc knobs indent (read_line ic)
      in
      match word with
      | "RUN" -> begin
        match source with
        | None -> proto_fail "RUN without a QUERY header"
        | Some rq_source ->
          Run { rq_source; rq_doc = doc; rq_knobs = knobs; rq_indent = indent }
      end
      | "QUERY" ->
        let q = read_counted ic (parse_len "QUERY" rest) in
        continue (Some q) doc knobs indent
      | "DOC" ->
        if rest = "" then proto_fail "DOC needs a path";
        continue source (Doc_path rest) knobs indent
      | "DOCINLINE" ->
        let xml = read_counted ic (parse_len "DOCINLINE" rest) in
        continue source (Doc_inline xml) knobs indent
      | "STRATEGY" ->
        let s =
          match rest with
          | "hash" -> Optimizer.Hash
          | "sort" -> Optimizer.Sort
          | "auto" -> Optimizer.Auto
          | other -> proto_fail "STRATEGY must be hash|sort|auto, got %S" other
        in
        continue source doc { knobs with Pipeline.k_strategy = Some s } indent
      | "PARALLEL" ->
        continue source doc
          { knobs with Pipeline.k_parallel = Some (parse_pos "PARALLEL" rest) }
          indent
      | "BATCH" ->
        continue source doc
          { knobs with Pipeline.k_batch = Some (parse_pos "BATCH" rest) }
          indent
      | "TIMEOUT" ->
        continue source doc
          { knobs with Pipeline.k_timeout_ms = Some (parse_pos "TIMEOUT" rest) }
          indent
      | "MAX-GROUPS" ->
        continue source doc
          { knobs with
            Pipeline.k_max_groups = Some (parse_pos "MAX-GROUPS" rest) }
          indent
      | "MAX-MEM" ->
        continue source doc
          { knobs with
            Pipeline.k_max_mem_mb = Some (parse_pos "MAX-MEM" rest) }
          indent
      | "SPILL-AT" ->
        continue source doc
          { knobs with
            Pipeline.k_spill_at_mb = Some (parse_pos "SPILL-AT" rest) }
          indent
      | "REWRITE" ->
        continue source doc { knobs with Pipeline.k_rewrite = true } indent
      | "STREAM" ->
        (* explicit opt-in: server-side streaming changes which requests
           bypass the document store, so it never happens implicitly *)
        continue source doc { knobs with Pipeline.k_stream = Some true } indent
      | "NO-STREAM" ->
        continue source doc { knobs with Pipeline.k_stream = Some false } indent
      | "INDENT" -> continue source doc knobs true
      | "" -> continue source doc knobs indent  (* blank lines are noise *)
      | other -> proto_fail "unknown header %S" other
    in
    (match first with
     | "STATS" -> Some Stats
     | "PING" -> Some Ping
     | "QUIT" -> Some Quit
     | line ->
       Some (headers None Doc_none Pipeline.default_knobs false line))

let write_command oc cmd =
  (match cmd with
   | Stats -> output_string oc "STATS\n"
   | Ping -> output_string oc "PING\n"
   | Quit -> output_string oc "QUIT\n"
   | Run rq ->
     Printf.fprintf oc "QUERY %d\n%s\n" (String.length rq.rq_source)
       rq.rq_source;
     (match rq.rq_doc with
      | Doc_none -> ()
      | Doc_path p -> Printf.fprintf oc "DOC %s\n" p
      | Doc_inline xml ->
        Printf.fprintf oc "DOCINLINE %d\n%s\n" (String.length xml) xml);
     let k = rq.rq_knobs in
     (match k.Pipeline.k_strategy with
      | Some s ->
        Printf.fprintf oc "STRATEGY %s\n" (Optimizer.strategy_to_string s)
      | None -> ());
     let num hdr = function
       | Some n -> Printf.fprintf oc "%s %d\n" hdr n
       | None -> ()
     in
     num "PARALLEL" k.Pipeline.k_parallel;
     num "BATCH" k.Pipeline.k_batch;
     num "TIMEOUT" k.Pipeline.k_timeout_ms;
     num "MAX-GROUPS" k.Pipeline.k_max_groups;
     num "MAX-MEM" k.Pipeline.k_max_mem_mb;
     num "SPILL-AT" k.Pipeline.k_spill_at_mb;
     if k.Pipeline.k_rewrite then output_string oc "REWRITE\n";
     (match k.Pipeline.k_stream with
      | Some true -> output_string oc "STREAM\n"
      | Some false -> output_string oc "NO-STREAM\n"
      | None -> ());
     if rq.rq_indent then output_string oc "INDENT\n";
     output_string oc "RUN\n");
  flush oc

let write_response oc r =
  (match r with
   | Payload p -> Printf.fprintf oc "OK %d\n%s\n" (String.length p) p
   | Error { code; exit; message; retry_after_ms } ->
     let hint =
       match retry_after_ms with
       | Some ms -> Printf.sprintf " RETRY-AFTER-MS=%d" ms
       | None -> ""
     in
     Printf.fprintf oc "ERR %s %d %d%s\n%s\n" code exit
       (String.length message) hint message);
  flush oc

let parse_exit s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> proto_fail "ERR: bad exit code %S" s

let parse_retry_hint s =
  let prefix = "RETRY-AFTER-MS=" in
  let pn = String.length prefix in
  if String.length s > pn && String.sub s 0 pn = prefix then
    match int_of_string_opt (String.sub s pn (String.length s - pn)) with
    | Some ms when ms >= 0 -> ms
    | _ -> proto_fail "ERR: bad retry hint %S" s
  else proto_fail "ERR: unknown trailer %S" s

let read_response ?(max_field_bytes = max_int) ic =
  let parse_len = parse_len ~max_bytes:max_field_bytes in
  let line = read_line ic in
  match String.split_on_char ' ' line with
  | [ "OK"; len ] -> Payload (read_counted ic (parse_len "OK" len))
  | [ "ERR"; code; exit; len ] ->
    Error
      {
        code;
        exit = parse_exit exit;
        message = read_counted ic (parse_len "ERR" len);
        retry_after_ms = None;
      }
  | [ "ERR"; code; exit; len; hint ] ->
    (* the hint rides the status line so pre-hint readers that split on
       spaces fail loudly rather than mis-framing the payload *)
    let retry = parse_retry_hint hint in
    Error
      {
        code;
        exit = parse_exit exit;
        message = read_counted ic (parse_len "ERR" len);
        retry_after_ms = Some retry;
      }
  | _ -> proto_fail "bad response line %S" line
