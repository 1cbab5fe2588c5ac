(* Shrunk-regression corpus replay: every test/corpus/NAME.xq runs
   against its paired NAME.xml through the oracle and all three plan
   strategies, and each must serialize exactly to
   NAME.expected. Entries are minimal fuzzer finds plus hand-written
   paper idioms; re-bless after an intended output change with

     XQ_CORPUS_BLESS=$PWD/test/corpus dune exec test/test_main.exe -- test corpus *)

module Refimpl = Xq_refimpl.Refimpl
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer

let bless_dir = Sys.getenv_opt "XQ_CORPUS_BLESS"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus_dir = Filename.concat (Filename.dirname Sys.executable_name) "corpus"

let dir =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then corpus_dir
  else "corpus"

let entries =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xq")
    |> List.map Filename.remove_extension
    |> List.sort compare
  else []

let evaluators =
  ("oracle", fun ~context_node q -> Refimpl.eval_query ~context_node q)
  :: List.map
       (fun s ->
         ( "plan:" ^ Optimizer.strategy_to_string s,
           fun ~context_node q -> Exec.eval_query ~strategy:s ~context_node q ))
       [ Optimizer.Hash; Optimizer.Sort; Optimizer.Auto ]

let replay name () =
  let base = Filename.concat dir name in
  let query = Xq_lang.Parser.parse_query (read_file (base ^ ".xq")) in
  Xq_lang.Static.check_query query;
  let context_node = Xq_xml.Xml_parse.parse (read_file (base ^ ".xml")) in
  (match bless_dir with
  | Some out ->
    let got = Xq_xml.Serialize.sequence (Exec.eval_query ~context_node query) in
    let oc = open_out_bin (Filename.concat out (name ^ ".expected")) in
    output_string oc (got ^ "\n");
    close_out oc
  | None -> ());
  let expected = read_file (base ^ ".expected") in
  List.iter
    (fun (label, eval) ->
      let got = Xq_xml.Serialize.sequence (eval ~context_node query) ^ "\n" in
      Alcotest.(check string) (name ^ " via " ^ label) expected got)
    evaluators

let suites =
  [
    ( "corpus",
      List.map (fun name -> Alcotest.test_case name `Quick (replay name)) entries
      @ [
          Alcotest.test_case "corpus is non-empty" `Quick (fun () ->
              Alcotest.(check bool) "found entries" true (entries <> []));
        ] );
  ]
