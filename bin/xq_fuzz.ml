(* Differential fuzzing driver: generated queries, real engine under a
   configuration matrix, naive oracle, greedy shrinking. Argument
   parsing is hand-rolled so `--help` stays byte-stable for the golden
   test. Exit status: 0 clean sweep, 3 divergence found, 1 usage. *)

let help_text =
  "xq_fuzz - differential fuzzer: engine vs. naive reference evaluator\n\n\
   Usage: xq_fuzz [OPTIONS]\n\n\
   Generates random FLWOR/group-by queries with matching small documents\n\
   (seeded, replayable), runs each through the engine under a sampled\n\
   configuration matrix (plan executor at strategy hash/sort/auto,\n\
   parallel degree 1/2/4, spill watermark armed or off; fault injection\n\
   always off) and compares per-item serialized output\n\
   against the naive reference evaluator - as multisets of items when\n\
   group order is unpinned (paper section 3.4.2). Failing cases are\n\
   greedily shrunk to minimal reproducers.\n\n\
   Options:\n\
   \  --seeds A-B      seed range to fuzz, inclusive (default 0-99); a\n\
   \                   single number N means N-N\n\
   \  --duration SECS  stop after about SECS seconds even if seeds remain\n\
   \                   (0 = no time box; default 0)\n\
   \  --out DIR        write each failure's minimized reproducer to\n\
   \                   DIR/fail-SEED.xq / .xml / .txt\n\
   \  --inject-bug     artificially drop the engine's last result item --\n\
   \                   a test-only defect that exercises the shrinker\n\
   \  --verbose        print every case as it runs\n\
   \  --help           show this help\n\n\
   Exit status: 0 clean sweep, 3 divergence or round-trip failure found,\n\
   1 usage error.\n"

let usage_error msg =
  Printf.eprintf "xq_fuzz: %s\nTry 'xq_fuzz --help'.\n" msg;
  exit 1

let parse_seeds s =
  let int_of x =
    match int_of_string_opt x with
    | Some n when n >= 0 -> n
    | _ -> usage_error (Printf.sprintf "invalid seed %S" x)
  in
  match String.index_opt s '-' with
  | None ->
    let n = int_of s in
    (n, n)
  | Some i ->
    let a = int_of (String.sub s 0 i)
    and b = int_of (String.sub s (i + 1) (String.length s - i - 1)) in
    if a > b then usage_error (Printf.sprintf "empty seed range %S" s);
    (a, b)

type opts = {
  mutable seed_lo : int;
  mutable seed_hi : int;
  mutable duration : float;
  mutable out_dir : string option;
  mutable inject_bug : bool;
  mutable verbose : bool;
}

let parse_args () =
  let o =
    {
      seed_lo = 0;
      seed_hi = 99;
      duration = 0.;
      out_dir = None;
      inject_bug = false;
      verbose = false;
    }
  in
  let rec go = function
    | [] -> o
    | "--help" :: _ | "-h" :: _ ->
      print_string help_text;
      exit 0
    | "--seeds" :: v :: rest ->
      let lo, hi = parse_seeds v in
      o.seed_lo <- lo;
      o.seed_hi <- hi;
      go rest
    | "--duration" :: v :: rest -> begin
      match float_of_string_opt v with
      | Some d when d >= 0. ->
        o.duration <- d;
        go rest
      | _ -> usage_error (Printf.sprintf "invalid duration %S" v)
    end
    | "--out" :: v :: rest ->
      o.out_dir <- Some v;
      go rest
    | "--inject-bug" :: rest ->
      o.inject_bug <- true;
      go rest
    | "--verbose" :: rest ->
      o.verbose <- true;
      go rest
    | (("--seeds" | "--duration" | "--out") as flag) :: [] ->
      usage_error (Printf.sprintf "%s needs a value" flag)
    | arg :: _ -> usage_error (Printf.sprintf "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv))

let outcome_summary = function
  | Xq_fuzzer.Fuzz.Error_code c -> "error " ^ c
  | Xq_fuzzer.Fuzz.Output items ->
    let n = List.length items in
    let shown = List.filteri (fun i _ -> i < 3) items in
    Printf.sprintf "%d item(s): %s%s" n (String.concat " " shown)
      (if n > 3 then " ..." else "")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let report_failure o ~seed ~query ~doc ~detail =
  let module Fuzz = Xq_fuzzer.Fuzz in
  let config, oracle, engine, shrink_cfg =
    match detail with
    | `Divergence (config, oracle, engine) ->
      (Fuzz.config_label config, outcome_summary oracle,
       outcome_summary engine, Some config)
    | `Roundtrip -> ("pretty/parse round-trip", "-", "-", None)
  in
  let small_q, small_doc =
    match shrink_cfg with
    | Some cfg ->
      Fuzz.shrink_divergence ~inject_bug:o.inject_bug cfg ~doc query
    | None -> (query, doc)
  in
  let q_text = Xq_qgen.Qgen.query_text small_q in
  Printf.printf
    "FAIL seed %d [%s]\n  oracle: %s\n  engine: %s\nminimized query:\n%s\n\
     minimized document:\n%s\nreplay: xq_fuzz --seeds %d-%d%s\n%!"
    seed config oracle engine q_text small_doc seed seed
    (if o.inject_bug then " --inject-bug" else "");
  match o.out_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let base = Filename.concat dir (Printf.sprintf "fail-%d" seed) in
    write_file (base ^ ".xq") q_text;
    write_file (base ^ ".xml") small_doc;
    write_file (base ^ ".txt")
      (Printf.sprintf
         "seed: %d\nconfig: %s\noracle: %s\nengine: %s\n"
         seed config oracle engine)

let () =
  let module Fuzz = Xq_fuzzer.Fuzz in
  let o = parse_args () in
  (* a stale XQ_FAULTS would make every engine run flaky on purpose;
     differential fuzzing needs the engine deterministic *)
  Xq_governor.Governor.clear_faults ();
  let started = Unix.gettimeofday () in
  let cases = ref 0
  and config_runs = ref 0
  and failures = ref 0
  and unsupported = ref 0
  and timed_out = ref false in
  (try
     for seed = o.seed_lo to o.seed_hi do
       if o.duration > 0. && Unix.gettimeofday () -. started > o.duration
       then begin
         timed_out := true;
         raise Exit
       end;
       let case = Xq_qgen.Qgen.generate seed in
       let configs = Fuzz.sampled_configs ~seed in
       if o.verbose then
         Printf.printf "seed %d (%d configs):\n%s\n%!" seed
           (List.length configs)
           (Xq_qgen.Qgen.query_text case.query);
       incr cases;
       match
         Fuzz.check_case ~inject_bug:o.inject_bug ~configs ~doc:case.doc
           case.query
       with
       | Fuzz.Pass n -> config_runs := !config_runs + n
       | Fuzz.Oracle_unsupported what ->
         incr unsupported;
         Printf.printf "seed %d: oracle cannot evaluate this case (%s)\n%!"
           seed what
       | Fuzz.Roundtrip_failure ->
         incr failures;
         report_failure o ~seed ~query:case.query ~doc:case.doc
           ~detail:`Roundtrip
       | Fuzz.Divergence { config; oracle; engine } ->
         incr failures;
         report_failure o ~seed ~query:case.query ~doc:case.doc
           ~detail:(`Divergence (config, oracle, engine))
     done
   with Exit -> ());
  Printf.printf
    "xq_fuzz: %d case(s), %d clean config-run(s), %d failure(s), %d \
     unsupported%s (%.1fs)\n"
    !cases !config_runs !failures !unsupported
    (if !timed_out then ", time box hit" else "")
    (Unix.gettimeofday () -. started);
  exit (if !failures > 0 then 3 else 0)
