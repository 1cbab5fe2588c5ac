(** The query server's wire protocol.

    A deliberately boring length-prefixed text protocol, equally usable
    over a Unix socket or a pipe pair ([--once] mode). A request is a
    block of header lines terminated by [RUN]:

    {v
    QUERY <n>\n<n bytes of query text>\n
    DOC <path>\n          | DOCINLINE <n>\n<n bytes of XML>\n
    STRATEGY hash|sort|auto\n
    PARALLEL <k>\n    TIMEOUT <ms>\n    MAX-GROUPS <n>\n
    MAX-MEM <mb>\n    SPILL-AT <mb>\n
    REWRITE\n    INDENT\n
    RUN\n
    v}

    plus the standalone commands [STATS\n], [PING\n] and [QUIT\n].
    Every variable-length field carries its byte count up front, so
    query text and documents need no quoting and embedded newlines are
    fine. Responses are:

    {v
    OK <len>\n<len bytes of payload>\n
    ERR <CODE> <exit> <len> [RETRY-AFTER-MS=<ms>]\n<len bytes of message>\n
    v}

    where [<CODE>] is an [Xerror] code (e.g. [XQENG0007]) or one of
    the transport codes [USAGE], [XMLPARSE], [IOERR], [INTERNAL], and
    [<exit>] is the CLI exit-code family the error belongs to (1
    usage, 2 static, 3 dynamic, 4 resource) — the server's taxonomy is
    the CLI's. The optional [RETRY-AFTER-MS=<ms>] trailer on an [ERR]
    line is the server's backoff hint: it rides admission rejections
    ([XQENG0007]) and tells a retrying client how long the server
    expects the refusal to last (a drain-mode hint of the remaining
    drain window, a load hint otherwise).

    Counted fields are bounded by [max_field_bytes] on the reading
    side: a length past the cap is a {!Protocol_error} (answered
    [USAGE]) {e before} any allocation, so a hostile
    [QUERY 999999999999] header cannot force a giant
    [really_input_string]. *)

type doc_source = Doc_none | Doc_path of string | Doc_inline of string

type run_request = {
  rq_source : string;
  rq_doc : doc_source;
  rq_knobs : Xq_pipeline.Pipeline.knobs;
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
          (** backoff hint for retryable refusals (admission, drain) *)
    }

(** Malformed request framing (bad header, bad length, overlong
    counted field, bad knob value). The server answers [ERR USAGE 1 …]
    and keeps the connection. *)
exception Protocol_error of string

(** [read_command ic] — [None] on clean EOF at a command boundary.
    Raises {!Protocol_error} on a malformed request (including any
    counted field past [max_field_bytes], checked before allocating)
    and [End_of_file] on EOF mid-frame. *)
val read_command : ?max_field_bytes:int -> in_channel -> command option

val write_command : out_channel -> command -> unit

(** [write_response oc r] writes and flushes one framed response. *)
val write_response : out_channel -> response -> unit

(** [read_response ic] bounds the payload frame by [max_field_bytes]
    like {!read_command} does requests. *)
val read_response : ?max_field_bytes:int -> in_channel -> response
