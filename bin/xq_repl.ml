(* xq-repl — an interactive shell for the engine.

   Lines are accumulated until they parse as a complete query (so
   multi-line FLWORs work); a trailing ";;" forces evaluation of whatever
   has been typed. Directives:

     :load FILE      load an XML document as the context item
     :gen WHICH N    generate a workload (orders|sales|bibliography|auction)
     :plan           toggle printing the compiled plan before results
     :explain        explain the last query's evaluation plan
     :quit           exit
*)

let banner =
  "xqgroup interactive shell — XQuery with the SIGMOD 2005 analytics \
   extensions.\nType a query (multi-line supported), :help for directives."

let help =
  ":load FILE | :gen orders|sales|bibliography|auction N | :plan | :explain \
   | :help | :quit"

type state = {
  mutable doc : Xq.doc;
  mutable show_plan : bool;
  mutable last_query : Xq.Lang.Ast.query option;
}

(* The session must survive any exception; backtraces are noise for
   interactive use, so they only print under XQ_DEBUG=1. *)
let debug = Sys.getenv_opt "XQ_DEBUG" = Some "1"

let print_error e =
  let bt = if debug then Printexc.get_backtrace () else "" in
  (match e with
   | Xq.Xdm.Xerror.Error (code, msg) ->
     Printf.printf "error %s\n%!" (Xq.Xdm.Xerror.to_message code msg)
   | e -> begin
     match Xq.Xml.Xml_parse.error_to_string e with
     | Some m -> Printf.printf "%s\n%!" m
     | None -> Printf.printf "error: %s\n%!" (Printexc.to_string e)
   end);
  if bt <> "" then prerr_string bt

let evaluate st source =
  match Xq.parse source with
  | exception e -> `Parse_error e
  | query -> begin
    match Xq.check query with
    | exception e -> `Static_error e
    | () ->
      st.last_query <- Some query;
      (try
         if st.show_plan then
           match query.Xq.Lang.Ast.body with
           | Xq.Lang.Ast.Flwor f ->
             print_string
               (Xq.Algebra.Plan.to_string (Xq.Algebra.Plan.of_flwor f))
           | _ -> ()
       with e -> print_error e);
      (* evaluation goes through the shared pipeline (the CLI, fuzzer
         and query server path). Resource limits from the environment
         (XQ_TIMEOUT, XQ_MAX_GROUPS, XQ_MAX_MEM, …) apply per
         evaluation — each query gets a fresh deadline and budget, and
         a trip never takes the session down. The pipeline serializes
         before we print, so an error (from evaluation or from
         serialization itself) never emits a partial result. *)
      match
        Xq.Pipeline.run
          ~indent:true
          ~compiled:(Xq.Pipeline.of_query query)
          ~load_doc:(fun () -> st.doc)
          ()
      with
      | report ->
        print_endline report.Xq.Pipeline.r_output;
        `Ok
      | exception e -> `Dynamic_error e
  end

let directive st line =
  let parts =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ ":quit" ] | [ ":q" ] -> `Quit
  | [ ":help" ] -> print_endline help; `Handled
  | [ ":plan" ] ->
    st.show_plan <- not st.show_plan;
    Printf.printf "plan printing %s\n%!" (if st.show_plan then "on" else "off");
    `Handled
  | [ ":explain" ] -> begin
    (match st.last_query with
     | Some q -> print_string (Xq.Rewrite.Explain.query q)
     | None -> print_endline "no query evaluated yet");
    `Handled
  end
  | [ ":load"; path ] -> begin
    (try
       st.doc <- Xq.load_file path;
       Printf.printf "loaded %s\n%!" path
     with e -> print_error e);
    `Handled
  end
  | [ ":gen"; which; n ] -> begin
    (match int_of_string_opt n with
     | None -> print_endline "usage: :gen orders|sales|bibliography|auction N"
     | Some size ->
       let doc =
         match which with
         | "orders" ->
           Some Xq_workload.Orders.(generate (with_lineitems size default))
         | "sales" ->
           Some Xq_workload.Sales.(generate { default with sales = size })
         | "bibliography" ->
           Some
             Xq_workload.Bibliography.(
               generate { default with books = size; with_categories = true })
         | "auction" ->
           Some Xq_workload.Auction.(generate { default with items = size })
         | _ -> None
       in
       match doc with
       | Some d ->
         st.doc <- d;
         Printf.printf "generated %s workload (%d)\n%!" which size
       | None -> print_endline "unknown workload");
    `Handled
  end
  | _ ->
    print_endline "unknown directive; :help lists them";
    `Handled

let () =
  if debug then Printexc.record_backtrace true;
  print_endline banner;
  let st =
    {
      doc = Xq.load_string "<empty/>";
      show_plan = false;
      last_query = None;
    }
  in
  let buffer = Buffer.create 256 in
  let prompt () =
    print_string (if Buffer.length buffer = 0 then "xq> " else "  > ");
    flush stdout
  in
  let rec loop () =
    prompt ();
    match input_line stdin with
    | exception End_of_file -> print_endline "bye"
    | line ->
      let line_trim = String.trim line in
      if Buffer.length buffer = 0 && String.length line_trim > 0
         && line_trim.[0] = ':'
      then begin
        match
          (try directive st line_trim
           with e ->
             print_error e;
             `Handled)
        with
        | `Quit -> print_endline "bye"
        | `Handled -> loop ()
      end
      else begin
        let forced =
          String.length line_trim >= 2
          && String.sub line_trim (String.length line_trim - 2) 2 = ";;"
        in
        let line =
          if forced then String.sub line_trim 0 (String.length line_trim - 2)
          else line
        in
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let source = Buffer.contents buffer in
        if String.trim source = "" then begin
          Buffer.clear buffer;
          loop ()
        end
        else begin
          match evaluate st source with
          | `Ok | `Static_error _ | `Dynamic_error _ as r ->
            (match r with
             | `Static_error e | `Dynamic_error e -> print_error e
             | _ -> ());
            Buffer.clear buffer;
            loop ()
          | `Parse_error e ->
            (* maybe the query just isn't finished: keep buffering unless
               the user forced evaluation *)
            if forced then begin
              print_error e;
              Buffer.clear buffer
            end;
            loop ()
        end
      end
  in
  loop ()
