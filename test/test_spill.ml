(* The spill subsystem: binary codec roundtrips, frame-corruption
   rejection, pressure-callback mechanics, and the watermark
   differential suite — at any watermark and parallel degree a spilled
   run must be byte-identical to the in-memory run, and every injected
   I/O fault must fail closed with a structured XQENG0006. *)

open Helpers
open Xq_xdm
module Governor = Xq_governor.Governor
module Spill = Xq_spill.Spill
module Group = Xq_engine.Group
module Key = Xq_engine.Key
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer
module Prng = Xq_workload.Prng

let to_alcotest = QCheck_alcotest.to_alcotest
let serialize = Xq_xml.Serialize.sequence
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let arb_sequence = Test_props.arb_sequence
let arb_root = Test_props.arb_root

let expect_spill_err f =
  match f () with
  | _ -> Alcotest.fail "expected XQENG0006"
  | exception Xerror.Error (Xerror.XQENG0006, _) -> ()

(* --- codec roundtrips ----------------------------------------------------- *)

let roundtrip_seq s =
  let reg = Binio.registry () in
  let buf = Buffer.create 64 in
  Binio.put_seq reg buf s;
  Binio.get_seq reg (Binio.reader (Buffer.contents buf))

let codec_props =
  [
    QCheck.Test.make ~count:500 ~name:"varint roundtrip (full int range)"
      QCheck.(frequency [ (3, int); (1, oneofl [ min_int; max_int; 0; -1 ]) ])
      (fun n ->
        let buf = Buffer.create 16 in
        Binio.put_varint buf n;
        Binio.get_varint (Binio.reader (Buffer.contents buf)) = n);
    QCheck.Test.make ~count:300 ~name:"string and float roundtrip"
      QCheck.(pair string float)
      (fun (s, f) ->
        let buf = Buffer.create 32 in
        Binio.put_string buf s;
        Binio.put_float buf f;
        let r = Binio.reader (Buffer.contents buf) in
        Binio.get_string r = s
        &&
        let f' = Binio.get_float r in
        (* bit-exact, including NaN payloads *)
        Int64.bits_of_float f' = Int64.bits_of_float f);
    QCheck.Test.make ~count:500 ~name:"atomic sequences roundtrip exactly"
      arb_sequence
      (fun s -> Stdlib.compare (roundtrip_seq s) s = 0);
    QCheck.Test.make ~count:200
      ~name:"node sequences roundtrip to the same physical nodes" arb_root
      (fun n ->
        let s = [ Item.Node n ] in
        match roundtrip_seq s with
        | [ Item.Node n' ] -> n' == n
        | _ -> false);
    QCheck.Test.make ~count:300
      ~name:"canonical keys roundtrip: equal, same hash, same charge"
      QCheck.(pair arb_sequence arb_sequence)
      (fun (a, b) ->
        let k = Key.canonicalize [ a; b ] in
        let reg = Binio.registry () in
        let buf = Buffer.create 64 in
        Key.encode reg buf k;
        let k' = Key.decode reg (Binio.reader (Buffer.contents buf)) in
        Key.equal k k' && Key.hash k = Key.hash k'
        && Key.compare k k' = 0
        && Key.charged_bytes k = Key.charged_bytes k');
    QCheck.Test.make ~count:300 ~name:"reader rejects truncated payloads"
      arb_sequence
      (fun s ->
        let reg = Binio.registry () in
        let buf = Buffer.create 64 in
        Binio.put_seq reg buf s;
        let bytes = Buffer.contents buf in
        (* Every encoding component is length-prefixed or fixed-width,
           so losing the final byte must surface as Corrupt — never as
           a silently shorter decode. *)
        let cut = String.sub bytes 0 (String.length bytes - 1) in
        match Binio.get_seq reg (Binio.reader cut) with
        | (_ : Xseq.t) -> false
        | exception Binio.Corrupt _ -> true);
  ]

(* --- spill files: frames, corruption, crash-safety ------------------------ *)

let le32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let frame_tests =
  [
    test "frames roundtrip in order through a cursor" (fun () ->
        let f = Spill.File.create () in
        Fun.protect ~finally:(fun () -> Spill.File.close f) (fun () ->
            let payloads = [ "alpha"; ""; String.make 10_000 'x'; "omega" ] in
            List.iter (Spill.File.write_frame f) payloads;
            check_int "frames" 4 (Spill.File.frames f);
            let c = Spill.File.cursor f in
            List.iter
              (fun p ->
                match Spill.File.next_frame c with
                | Some got -> Alcotest.(check string) "payload" p got
                | None -> Alcotest.fail "premature end")
              payloads;
            check_bool "end" true (Spill.File.next_frame c = None)));
    test "a torn final frame is rejected, prior frames readable" (fun () ->
        let f = Spill.File.create () in
        Fun.protect ~finally:(fun () -> Spill.File.close f) (fun () ->
            Spill.File.write_frame f "good";
            (* a frame header promising 64 bytes, with only 3 present *)
            Spill.File.write_raw f (le32 64);
            Spill.File.write_raw f (le32 (Spill.checksum "xyz"));
            Spill.File.write_raw f "xyz";
            let c = Spill.File.cursor f in
            check_bool "first frame survives" true
              (Spill.File.next_frame c = Some "good");
            expect_spill_err (fun () -> Spill.File.next_frame c)));
    test "a checksum mismatch is rejected" (fun () ->
        let f = Spill.File.create () in
        Fun.protect ~finally:(fun () -> Spill.File.close f) (fun () ->
            let payload = "payload-bytes" in
            Spill.File.write_raw f (le32 (String.length payload));
            Spill.File.write_raw f (le32 (Spill.checksum payload lxor 1));
            Spill.File.write_raw f payload;
            let c = Spill.File.cursor f in
            expect_spill_err (fun () -> Spill.File.next_frame c)));
    test "a truncated frame header is rejected" (fun () ->
        let f = Spill.File.create () in
        Fun.protect ~finally:(fun () -> Spill.File.close f) (fun () ->
            Spill.File.write_raw f "\x01\x02";
            let c = Spill.File.cursor f in
            expect_spill_err (fun () -> Spill.File.next_frame c)));
    test "close is idempotent" (fun () ->
        let f = Spill.File.create () in
        Spill.File.write_frame f "x";
        Spill.File.close f;
        Spill.File.close f);
  ]

(* --- governor pressure mechanics ------------------------------------------ *)

let pressure_tests =
  [
    test "the pressure callback fires past the watermark and its \
          uncharges avert the hard trip" (fun () ->
        let g =
          Governor.create ~max_mem_mb:1 ~spill_watermark_bytes:1024 ()
        in
        Governor.with_governor g (fun () ->
            check_bool "armed" true (Governor.spill_armed ());
            check_int "watermark" 1024 (Governor.spill_watermark ());
            let fired = ref 0 in
            Governor.with_pressure_callback
              (fun () ->
                incr fired;
                (* give back most of the charge, like a flush *)
                Governor.uncharge_bytes 500_000)
              (fun () ->
                (* without the callback's refunds 4 × 600 KB would blow
                   the 1 MB hard budget *)
                for _ = 1 to 4 do
                  Governor.charge_bytes 600_000
                done;
                check_bool "fired on every crossing" true (!fired >= 4))));
    test "a colliding domain never runs another domain's pressure callback"
      (fun () ->
        let g = Governor.create ~spill_watermark_bytes:16 () in
        Governor.with_governor g (fun () ->
            let ran_on = ref [] in
            let me = (Domain.self () :> int) in
            Governor.with_pressure_callback
              (fun () -> ran_on := (Domain.self () :> int) :: !ran_on)
              (fun () ->
                (* spawn fresh domains until one's id equals this
                   domain's modulo 128 (a collision in any table indexed
                   by domain id), install g there and push it past the
                   watermark: this domain's callback must not run there *)
                let collided = ref false and tries = ref 0 in
                while (not !collided) && !tries < 512 do
                  incr tries;
                  let d =
                    Domain.spawn (fun () ->
                        if (Domain.self () :> int) land 127 = me land 127
                        then
                          Governor.with_governor g (fun () ->
                              Governor.charge_bytes 1024;
                              Governor.uncharge_bytes 1024;
                              true)
                        else false)
                  in
                  if Domain.join d then collided := true
                done;
                check_bool "found a colliding domain" true !collided;
                check_bool "never ran on a foreign domain" true
                  (List.for_all (fun id -> id = me) !ran_on);
                let before = List.length !ran_on in
                Governor.charge_bytes 1024;
                Governor.uncharge_bytes 1024;
                check_bool "still fires on the owning domain" true
                  (List.length !ran_on > before))));
    test "colliding domains each fire their own pressure callback"
      (fun () ->
        (* domain ids only grow, so once a process has spawned enough
           domains two live ones share an id modulo any fixed table
           size: each must still reach its own callback *)
        let g = Governor.create ~spill_watermark_bytes:16 () in
        let me = (Domain.self () :> int) in
        let wait_for flag =
          let give_up = Unix.gettimeofday () +. 30.0 in
          while not (Stdlib.Atomic.get flag) do
            if Unix.gettimeofday () > give_up then failwith "rendezvous timed out";
            Domain.cpu_relax ()
          done
        in
        Governor.with_governor g (fun () ->
            let a_fired = ref 0 in
            Governor.with_pressure_callback
              (fun () -> incr a_fired)
              (fun () ->
                let b_ran_on = Stdlib.Atomic.make [] in
                let ready = Stdlib.Atomic.make false and go = Stdlib.Atomic.make false in
                let colliding = ref None and tries = ref 0 in
                while !colliding = None && !tries < 512 do
                  incr tries;
                  let d =
                    Domain.spawn (fun () ->
                        let self = (Domain.self () :> int) in
                        if self land 127 = me land 127 then
                          Governor.with_governor g (fun () ->
                              Governor.with_pressure_callback
                                (fun () ->
                                  Stdlib.Atomic.set b_ran_on
                                    ((Domain.self () :> int)
                                    :: Stdlib.Atomic.get b_ran_on))
                                (fun () ->
                                  Stdlib.Atomic.set ready true;
                                  wait_for go;
                                  Governor.charge_bytes 1024;
                                  Governor.uncharge_bytes 1024;
                                  Some self))
                        else None)
                  in
                  if (Domain.get_id d :> int) land 127 = me land 127 then
                    colliding := Some d
                  else ignore (Domain.join d)
                done;
                match !colliding with
                | None -> Alcotest.fail "no colliding domain"
                | Some d ->
                  wait_for ready;
                  let before = !a_fired in
                  Governor.charge_bytes 1024;
                  Governor.uncharge_bytes 1024;
                  Stdlib.Atomic.set go true;
                  let other = Domain.join d in
                  check_bool "fires on this domain" true (!a_fired > before);
                  check_bool "the colliding domain fired its own" true
                    (match (other, Stdlib.Atomic.get b_ran_on) with
                     | Some id, (_ :: _ as ids) ->
                       List.for_all (fun x -> x = id) ids
                     | _ -> false);
                  check_int "this domain's callback ran only here" (before + 1)
                    !a_fired)));
    test "a watermark alone arms the governor via of_limits" (fun () ->
        match Governor.of_limits ~spill_watermark_bytes:4096 () with
        | Some g ->
          check_int "watermark" 4096
            (Governor.with_governor g Governor.spill_watermark)
        | None -> Alcotest.fail "expected an armed governor");
    test "XQENG0006 is a resource error with exit code 4" (fun () ->
        check_bool "resource" true (Xerror.is_resource Xerror.XQENG0006);
        check_int "exit code" 4 (Xerror.exit_code Xerror.XQENG0006));
  ]

(* --- external grouping through Group directly ----------------------------- *)

let seq_codec : Xseq.t Group.codec =
  { Group.enc = Binio.put_seq; dec = Binio.get_seq }

let int_tuples n card = List.init n (fun i -> Xseq.of_int (i mod card))
let keys_of s = [ s ]

let groups_repr gs =
  List.map
    (fun (g : Xseq.t Group.group) ->
      ( List.map serialize g.Group.keys,
        List.map serialize g.Group.members ))
    gs

let with_tiny_watermark f =
  let g = Governor.create ~spill_watermark_bytes:1 () in
  let r = Governor.with_governor g f in
  (r, Governor.stats g)

let group_tests =
  [
    test "hash spill with constant hash: recursion bottoms out into the \
          sorted fallback, output identical" (fun () ->
        let tuples = int_tuples 3000 11 in
        let expected =
          groups_repr (Group.group_hash ~hash:(fun _ -> 42) ~keys_of tuples)
        in
        let got, stats =
          with_tiny_watermark (fun () ->
              Group.group_hash ~hash:(fun _ -> 42) ~spill:seq_codec ~keys_of
                tuples)
        in
        check_bool "spilled" true (stats.Governor.s_spill_files > 0);
        check_bool "hit the repartition cap" true
          (stats.Governor.s_repartitions > 0);
        check_bool "identical groups" true (groups_repr got = expected));
    test "sort spill merges runs into the in-memory order (both output \
          modes)" (fun () ->
        let tuples = int_tuples 3000 13 in
        List.iter
          (fun sorted_output ->
            let expected =
              groups_repr (Group.group_sort ~sorted_output ~keys_of tuples)
            in
            let got, stats =
              with_tiny_watermark (fun () ->
                  Group.group_sort ~sorted_output ~spill:seq_codec ~keys_of
                    tuples)
            in
            check_bool "spilled" true (stats.Governor.s_spill_files > 0);
            check_bool
              (Printf.sprintf "identical groups (sorted_output=%b)"
                 sorted_output)
              true
              (groups_repr got = expected))
          [ false; true ]);
    test "a hot key's cell splits across bounded frames, output identical"
      (fun () ->
        (* one key, ~1.2 MB of string members: the flush must chunk the
           cell into frames no bigger than the cap (threshold / 4 =
           1 KiB at a tiny watermark) instead of serializing it whole,
           and replay must recombine the chunks in member order *)
        let tuples =
          List.init 4000 (fun i ->
              [ Item.Atomic
                  (Atomic.Str (Printf.sprintf "%06d-%s" i (String.make 290 'm')))
              ])
        in
        let hot_key _ = [ Xseq.of_int 1 ] in
        List.iter
          (fun group_fn ->
            let expected = groups_repr (group_fn None tuples) in
            let got, stats =
              with_tiny_watermark (fun () -> group_fn (Some seq_codec) tuples)
            in
            check_bool "spilled" true (stats.Governor.s_spill_files > 0);
            check_bool "identical groups" true (groups_repr got = expected))
          [
            (fun spill ts -> Group.group_hash ?spill ~keys_of:hot_key ts);
            (fun spill ts -> Group.group_sort ?spill ~keys_of:hot_key ts);
          ]);
    test "XQ_NO_SPILL degrades to the in-memory path" (fun () ->
        Unix.putenv "XQ_NO_SPILL" "1";
        Fun.protect ~finally:(fun () -> Unix.putenv "XQ_NO_SPILL" "0")
          (fun () ->
            let tuples = int_tuples 2000 7 in
            let expected = groups_repr (Group.group_hash ~keys_of tuples) in
            let got, stats =
              with_tiny_watermark (fun () ->
                  Group.group_hash ~spill:seq_codec ~keys_of tuples)
            in
            check_int "no spill files" 0 stats.Governor.s_spill_files;
            check_bool "identical groups" true (groups_repr got = expected)));
  ]

(* --- the watermark differential suite ------------------------------------- *)

(* Random documents large enough that a tiny watermark actually forces
   flushes (the flush floor is 64 KB of live charge). Members nest the
   <i> nodes themselves, so replay exercises the node registry: decoded
   members must be the original nodes, with paths still working. *)
let random_doc rng =
  let open Xq_xml.Builder in
  let pool = 3 + Prng.int rng 12 in
  let n = 300 + Prng.int rng 400 in
  let item _ =
    el "i"
      [
        el_text "k" (string_of_int (Prng.int rng pool));
        el_text "v" (string_of_int (Prng.int rng 100));
      ]
  in
  doc (el "r" (List.init n item))

(* Grouping by the whole node makes the canonical-key fingerprints the
   dominant charge, so a tiny watermark actually pushes partitions past
   the flush floor; nesting nodes makes replay exercise the registry. *)
let diff_query =
  "for $i in //i group by $i into $g nest $i into $is order by $g/k, \
   $g/v return <g>{$g/k/text()}<n>{count($is)}</n><s>{sum($is/v)}</s></g>"

let strategies = [ ("hash", Optimizer.Hash); ("sort", Optimizer.Sort) ]
let parallels = [ 1; 2; 4 ]
let watermarks = [ ("none", None); ("tight", Some (256 * 1024)); ("tiny", Some 1) ]
let diff_seeds = 24

let differential_tests =
  [
    test
      (Printf.sprintf
         "spilled runs are byte-identical (%d seeds × 2 strategies × \
          parallel 1,2,4 × watermark none/tight/tiny)"
         diff_seeds)
      (fun () ->
        let spilled_runs = ref 0 in
        for seed = 1 to diff_seeds do
          let rng = Prng.create (0x5b111 + seed) in
          let doc = random_doc rng in
          let expected =
            serialize (reference_run ~context_node:doc diff_query)
          in
          List.iter
            (fun (slabel, strategy) ->
              List.iter
                (fun parallel ->
                  List.iter
                    (fun (wlabel, watermark) ->
                      let g =
                        Governor.create ?spill_watermark_bytes:watermark ()
                      in
                      let got =
                        Governor.with_governor g (fun () ->
                            serialize
                              (Exec.run_string ~strategy ~parallel
                                 ~context_node:doc diff_query))
                      in
                      let s = Governor.stats g in
                      if s.Governor.s_spill_files > 0 then incr spilled_runs;
                      if got <> expected then
                        Alcotest.failf
                          "seed %d, %s, parallel %d, watermark %s: \
                           diverged\nexpected %s\ngot      %s"
                          seed slabel parallel wlabel expected got)
                    watermarks)
                parallels)
            strategies
        done;
        (* the tiny watermark must actually exercise the external path *)
        check_bool "some runs spilled" true (!spilled_runs > 0));
  ]

(* --- surfacing: EXPLAIN ANALYZE annotation -------------------------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let explain_tests =
  [
    test "EXPLAIN ANALYZE annotates spilling ops, and only those" (fun () ->
        (* big enough that per-partition live charge clears the 64 KB
           flush floor *)
        let doc =
          let open Xq_xml.Builder in
          doc
            (el "r"
               (List.init 1500 (fun i ->
                    el "i"
                      [
                        el_text "k" (string_of_int (i mod 7));
                        el_text "v" (string_of_int (i mod 100));
                      ])))
        in
        let analyze watermark =
          let g = Governor.create ?spill_watermark_bytes:watermark () in
          Governor.with_governor g (fun () ->
              Xq_rewrite.Explain.analyze_query ~timings:false
                ~strategy:Optimizer.Hash ~parallel:1 ~context_node:doc
                (Xq.parse diff_query))
        in
        let spilled = analyze (Some 1) in
        check_bool "spilled= present" true (contains_sub spilled "spilled=");
        check_bool "spill-files= present" true
          (contains_sub spilled "spill-files=");
        let unspilled = analyze None in
        check_bool "absent when nothing spills" false
          (contains_sub unspilled "spilled="));
  ]

(* The statistics of a governed, spilling run: each operator's spill
   figures are self deltas on the chain, so they add up to the
   governor's totals; times are self times, never negative; and counts
   do not depend on where vector boundaries fall. *)
let attribution_tests =
  [
    test "per-operator spill figures add up to the governor's" (fun () ->
        let doc = random_doc (Prng.create 0x5b112) in
        let run batch =
          let g = Governor.create ~spill_watermark_bytes:1 () in
          let parts =
            Governor.with_governor g (fun () ->
                Exec.analyze_query
                  ~config:(Xq_governor.Config.resolve ~batch ())
                  ~strategy:Optimizer.Hash ~parallel:1 ~context_node:doc
                  (Xq.parse diff_query))
          in
          match parts with
          | [ Exec.Analyzed_plan (_, _, stats) ] -> (stats, Governor.stats g)
          | _ -> Alcotest.fail "expected one analyzed plan"
        in
        let counts (stats : Exec.Stats.t) =
          List.map
            (fun (e : Exec.Stats.entry) ->
              (e.label, e.rows_in, e.rows_out, e.groups_built))
            stats
        in
        let sums = ref [] in
        List.iter
          (fun batch ->
            let stats, gs = run batch in
            let sum f = List.fold_left (fun n e -> n + f e) 0 stats in
            check_bool "the run spilled" true (gs.Governor.s_spill_files > 0);
            check_int
              (Printf.sprintf "batch %d: spilled bytes" batch)
              gs.Governor.s_spilled_bytes
              (sum (fun e -> e.Exec.Stats.spilled_bytes));
            check_int
              (Printf.sprintf "batch %d: spill files" batch)
              gs.Governor.s_spill_files
              (sum (fun e -> e.Exec.Stats.spill_files));
            check_int
              (Printf.sprintf "batch %d: repartitions" batch)
              gs.Governor.s_repartitions
              (sum (fun e -> e.Exec.Stats.repartitions));
            List.iter
              (fun (e : Exec.Stats.entry) ->
                check_bool
                  (Printf.sprintf "batch %d: %s elapsed >= 0" batch e.label)
                  true (e.elapsed_ms >= 0.))
              stats;
            sums := counts stats :: !sums)
          [ 1; 4096 ];
        match !sums with
        | [ at_4096; at_1 ] ->
          check_bool "rows in/out and groups equal at batch 1 and 4096" true
            (at_1 = at_4096)
        | _ -> assert false);
  ]

(* --- I/O fault injection --------------------------------------------------- *)

let fault_seeds = 16

let fault_tests =
  [
    test
      (Printf.sprintf
         "injected I/O faults: byte-identical or fail closed (%d seeds)"
         fault_seeds)
      (fun () ->
        let completed = ref 0 and failed_closed = ref 0 in
        let io_trips = ref 0 in
        for seed = 1 to fault_seeds do
          let rng = Prng.create (0x10fa + seed) in
          let doc = random_doc rng in
          let expected =
            serialize (reference_run ~context_node:doc diff_query)
          in
          (* These docs see ~10× the tick points of the governor fault
             suite, plus spill I/O: sweep the rate from survivable to
             lethal so both outcomes occur. *)
          let rate = 0.001 *. float_of_int seed in
          List.iter
            (fun (slabel, strategy) ->
              List.iter
                (fun parallel ->
                  Governor.set_faults ~seed ~rate;
                  Fun.protect ~finally:Governor.clear_faults (fun () ->
                      let g =
                        Governor.create ~spill_watermark_bytes:1 ()
                      in
                      Governor.with_governor g (fun () ->
                          match
                            Exec.run_string ~strategy ~parallel
                              ~context_node:doc diff_query
                          with
                          | result ->
                            incr completed;
                            let got = serialize result in
                            if got <> expected then
                              Alcotest.failf
                                "seed %d, %s, parallel %d: faulted run \
                                 diverged"
                                seed slabel parallel
                          | exception Xerror.Error (code, _) ->
                            incr failed_closed;
                            if code = Xerror.XQENG0006 then incr io_trips;
                            if not (Xerror.is_resource code) then
                              Alcotest.failf
                                "seed %d, %s, parallel %d: expected a \
                                 resource failure, got %s"
                                seed slabel parallel
                                (Xerror.code_to_string code));
                      check_int "aborts released" 0
                        (Governor.pending_aborts g)))
                [ 1; 2 ])
            strategies
        done;
        check_bool "some runs completed" true (!completed > 0);
        check_bool "some runs failed closed" true (!failed_closed > 0);
        check_bool "some failures were injected I/O trips" true
          (!io_trips > 0));
    test "I/O fault outcomes are deterministic per seed" (fun () ->
        let rng = Prng.create 0xfee1 in
        let doc = random_doc rng in
        let outcome () =
          Governor.set_faults ~seed:3 ~rate:0.2;
          Fun.protect ~finally:Governor.clear_faults (fun () ->
              let g = Governor.create ~spill_watermark_bytes:1 () in
              Governor.with_governor g (fun () ->
                  match
                    Exec.run_string ~strategy:Optimizer.Hash ~parallel:1
                      ~context_node:doc diff_query
                  with
                  | result -> Ok (serialize result)
                  | exception Xerror.Error (code, _) -> Error code))
        in
        let a = outcome () and b = outcome () in
        check_bool "same outcome on replay" true (a = b));
  ]

let suites =
  [
    ("spill.codec", List.map to_alcotest codec_props);
    ("spill.frames", frame_tests);
    ("spill.pressure", pressure_tests);
    ("spill.group", group_tests);
    ("spill.differential", differential_tests);
    ("spill.explain", explain_tests);
    ("spill.attribution", attribution_tests);
    ("spill.faults", fault_tests);
  ]
