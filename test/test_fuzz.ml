(* The differential fuzzing subsystem itself: generator round-trips,
   in-process differential sweeps over the base configurations, shrinker
   minimization against the injected test-only engine bug, and the
   xq_fuzz CLI's exit-code taxonomy and --help golden. *)

module Qgen = Xq_qgen.Qgen
module Fuzz = Xq_fuzzer.Fuzz

let parse q = Xq_lang.Parser.parse_query q

(* --- generator properties ---------------------------------------------- *)

let roundtrip_sweep () =
  for seed = 0 to 199 do
    let case = Qgen.generate seed in
    match Qgen.round_trips case.query with
    | Ok () -> ()
    | Error _ ->
      Alcotest.failf "seed %d does not round-trip:\n%s" seed
        (Qgen.query_text case.query)
  done

let generator_deterministic () =
  let a = Qgen.generate 42 and b = Qgen.generate 42 in
  Alcotest.(check bool) "same query" true (a.query = b.query);
  Alcotest.(check string) "same doc" a.doc b.doc

let docs_parse () =
  for seed = 0 to 199 do
    let case = Qgen.generate seed in
    ignore (Xq_xml.Xml_parse.parse case.doc)
  done

(* --- differential sweep (in-process) ------------------------------------ *)

let differential_sweep () =
  for seed = 0 to 119 do
    let case = Qgen.generate seed in
    match
      Fuzz.check_case ~configs:Fuzz.base_configs ~doc:case.doc case.query
    with
    | Fuzz.Pass n ->
      Alcotest.(check int) "all configs ran" (List.length Fuzz.base_configs) n
    | Fuzz.Oracle_unsupported what ->
      Alcotest.failf "seed %d: oracle unsupported (%s)" seed what
    | Fuzz.Roundtrip_failure -> Alcotest.failf "seed %d: round-trip" seed
    | Fuzz.Divergence { config; _ } ->
      Alcotest.failf "seed %d diverges under %s:\n%s" seed
        (Fuzz.config_label config)
        (Qgen.query_text case.query)
  done

let sampled_configs_deterministic () =
  let a = Fuzz.sampled_configs ~seed:7 and b = Fuzz.sampled_configs ~seed:7 in
  Alcotest.(check (list string)) "same matrix"
    (List.map Fuzz.config_label a)
    (List.map Fuzz.config_label b);
  Alcotest.(check int) "base + three sampled" 10 (List.length a)

(* --- order pinning and agreement ----------------------------------------- *)

let pinned_order_units () =
  let check label expected text =
    Alcotest.(check bool) label expected (Fuzz.pinned_order (parse text))
  in
  check "no group by is pinned" true "for $i in /data/item return $i";
  check "grouped without trailing order by is unpinned" false
    "for $i in /data/item group by $i/@k into $k return $k";
  check "trailing order by pins" true
    "for $i in /data/item group by $i/@k into $k order by fn:string($k) \
     return $k";
  check "order by before group by does not pin" false
    "for $i in /data/item order by $i/@k group by $i/@k into $k return $k";
  check "non-FLWOR body is pinned" true "1 + 2"

let outcomes_agree_units () =
  let out xs = Fuzz.Output xs in
  Alcotest.(check bool) "pinned: order matters" false
    (Fuzz.outcomes_agree ~pinned:true (out [ "a"; "b" ]) (out [ "b"; "a" ]));
  Alcotest.(check bool) "unpinned: multiset compare" true
    (Fuzz.outcomes_agree ~pinned:false (out [ "a"; "b" ]) (out [ "b"; "a" ]));
  Alcotest.(check bool) "unpinned: multiplicity matters" false
    (Fuzz.outcomes_agree ~pinned:false (out [ "a"; "a" ]) (out [ "a" ]));
  Alcotest.(check bool) "same error code agrees" true
    (Fuzz.outcomes_agree ~pinned:true (Fuzz.Error_code "FOAR0001")
       (Fuzz.Error_code "FOAR0001"));
  Alcotest.(check bool) "error vs output disagrees" false
    (Fuzz.outcomes_agree ~pinned:false (Fuzz.Error_code "FOAR0001") (out []))

(* --- the shrinker minimizes the injected bug ----------------------------- *)

let line_count s =
  String.split_on_char '\n' (String.trim s) |> List.length

let shrinker_minimizes () =
  (* seed 100 generates an 11-line query; with the injected drop-last-item
     defect the shrinker must bring the reproducer to <= 10 lines (the
     acceptance bar) — in practice it lands at 2. *)
  let case = Qgen.generate 100 in
  let original_lines = line_count (Qgen.query_text case.query) in
  Alcotest.(check bool) "original is big enough to be worth shrinking" true
    (original_lines > 10);
  match
    Fuzz.check_case ~inject_bug:true ~configs:Fuzz.base_configs ~doc:case.doc
      case.query
  with
  | Fuzz.Divergence { config; _ } ->
    let small_q, small_doc =
      Fuzz.shrink_divergence ~inject_bug:true config ~doc:case.doc case.query
    in
    let shrunk_lines = line_count (Qgen.query_text small_q) in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to <= 10 lines (got %d)" shrunk_lines)
      true (shrunk_lines <= 10);
    Alcotest.(check bool) "shrunk doc no bigger" true
      (String.length small_doc <= String.length case.doc);
    (* the minimized case must still reproduce the divergence *)
    let context_node = Xq_xml.Xml_parse.parse small_doc in
    let oracle = Fuzz.oracle_outcome context_node small_q in
    let engine =
      Fuzz.engine_outcome ~inject_bug:true config context_node small_q
    in
    Alcotest.(check bool) "minimized case still diverges" false
      (Fuzz.outcomes_agree ~pinned:(Fuzz.pinned_order small_q) oracle engine)
  | _ -> Alcotest.fail "injected bug was not detected on seed 100"

let injected_bug_is_caught () =
  (* the injected defect only fires on non-empty outputs, so sweep a few
     seeds and require that at least one diverges *)
  let caught = ref 0 in
  for seed = 0 to 19 do
    let case = Qgen.generate seed in
    match
      Fuzz.check_case ~inject_bug:true ~configs:Fuzz.base_configs
        ~doc:case.doc case.query
    with
    | Fuzz.Divergence _ -> incr caught
    | _ -> ()
  done;
  Alcotest.(check bool) "at least one seed catches the injected bug" true
    (!caught > 0)

(* --- the CLI ------------------------------------------------------------- *)

(* Tests run from _build/default/test; the driver sits next door. *)
let fuzz_exe = Filename.concat ".." (Filename.concat "bin" "xq_fuzz.exe")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_dir = Filename.concat (Filename.dirname Sys.executable_name) "golden"

let gdir =
  if Sys.file_exists golden_dir && Sys.is_directory golden_dir then golden_dir
  else "golden"

let cli_help_golden () =
  let ic = Unix.open_process_in (fuzz_exe ^ " --help") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "--help must exit 0");
  let expected =
    read_file (Filename.concat gdir (Filename.concat "fuzz" "help.txt"))
  in
  Alcotest.(check string) "--help output" expected (Buffer.contents buf)

let exit_of cmd =
  match Sys.command cmd with
  | n -> n

let cli_exit_codes () =
  Alcotest.(check int) "clean sweep exits 0" 0
    (exit_of (fuzz_exe ^ " --seeds 0-19 > /dev/null"));
  Alcotest.(check int) "injected bug exits 3" 3
    (exit_of (fuzz_exe ^ " --seeds 0-19 --inject-bug > /dev/null"));
  Alcotest.(check int) "unknown flag exits 1" 1
    (exit_of (fuzz_exe ^ " --badflag > /dev/null 2> /dev/null"));
  Alcotest.(check int) "missing value exits 1" 1
    (exit_of (fuzz_exe ^ " --seeds > /dev/null 2> /dev/null"));
  Alcotest.(check int) "bad range exits 1" 1
    (exit_of (fuzz_exe ^ " --seeds 9-3 > /dev/null 2> /dev/null"))

let cli_writes_reproducers () =
  let dir = Filename.temp_file "xq_fuzz_out" "" in
  Sys.remove dir;
  let code =
    exit_of
      (Printf.sprintf "%s --seeds 0-9 --inject-bug --out %s > /dev/null"
         fuzz_exe (Filename.quote dir))
  in
  Alcotest.(check int) "exits 3" 3 code;
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check bool) "wrote fail-*.xq reproducers" true
    (List.exists (fun f -> Filename.check_suffix f ".xq") files);
  Alcotest.(check bool) "wrote fail-*.xml documents" true
    (List.exists (fun f -> Filename.check_suffix f ".xml") files);
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Unix.rmdir dir

let suites =
  [
    ( "fuzz-generator",
      [
        Alcotest.test_case "pretty/parse round-trip, seeds 0-199" `Quick
          roundtrip_sweep;
        Alcotest.test_case "generation is deterministic" `Quick
          generator_deterministic;
        Alcotest.test_case "generated documents parse" `Quick docs_parse;
      ] );
    ( "fuzz-differential",
      [
        Alcotest.test_case "base configs agree with oracle, seeds 0-119"
          `Quick differential_sweep;
        Alcotest.test_case "sampled config matrix is deterministic" `Quick
          sampled_configs_deterministic;
        Alcotest.test_case "pinned_order" `Quick pinned_order_units;
        Alcotest.test_case "outcomes_agree" `Quick outcomes_agree_units;
      ] );
    ( "fuzz-shrinker",
      [
        Alcotest.test_case "injected bug is caught" `Quick
          injected_bug_is_caught;
        Alcotest.test_case "shrinks seed 100 to <= 10 lines" `Quick
          shrinker_minimizes;
      ] );
    ( "fuzz-cli",
      [
        Alcotest.test_case "--help matches golden" `Quick cli_help_golden;
        Alcotest.test_case "exit codes: 0 clean / 3 divergence / 1 usage"
          `Quick cli_exit_codes;
        Alcotest.test_case "--out writes reproducer files" `Quick
          cli_writes_reproducers;
      ] );
  ]
