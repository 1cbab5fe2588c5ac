(* The resource governor: limit trips, budget accounting, installation
   scoping, and the fault-injection differential suite — every injected
   run must either complete byte-identically to the clean run or fail
   closed with a structured XQENG* error. *)

open Helpers
module Governor = Xq_governor.Governor
module Xerror = Xq_xdm.Xerror
module Exec = Xq_algebra.Exec
module Optimizer = Xq_algebra.Optimizer
module Prng = Xq_workload.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let serialize = Xq_xml.Serialize.sequence

let expect_code code f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Xerror.code_to_string code)
  | exception Xerror.Error (actual, _) ->
    Alcotest.(check string)
      "error code"
      (Xerror.code_to_string code)
      (Xerror.code_to_string actual)

(* --- unit tests of the trips -------------------------------------------- *)

let trip_tests =
  [
    test "ticks are free when no governor is installed" (fun () ->
        for _ = 1 to 1000 do
          Governor.tick ()
        done);
    test "deadline trips XQENG0001 within one slow-check stride" (fun () ->
        let g = Governor.create ~timeout_ms:1 () in
        Unix.sleepf 0.005;
        Governor.with_governor g (fun () ->
            expect_code Xerror.XQENG0001 (fun () ->
                (* the deadline has passed; at most one stride of ticks may
                   elapse before the trip *)
                for _ = 1 to 128 do
                  Governor.tick ()
                done)));
    test "group cap trips XQENG0003 exactly past the limit" (fun () ->
        let g = Governor.create ~max_groups:10 () in
        Governor.with_governor g (fun () ->
            for _ = 1 to 10 do
              Governor.count_groups 1
            done;
            expect_code Xerror.XQENG0003 (fun () -> Governor.count_groups 1)));
    test "charged bytes trip XQENG0002 immediately" (fun () ->
        let g = Governor.create ~max_mem_mb:1 () in
        Governor.with_governor g (fun () ->
            Governor.charge_bytes 1024;
            expect_code Xerror.XQENG0002 (fun () ->
                Governor.charge_bytes (2 * 1024 * 1024))));
    test "gc-delta memory budget trips XQENG0002" (fun () ->
        let g = Governor.create ~max_mem_mb:2 () in
        Governor.with_governor g (fun () ->
            expect_code Xerror.XQENG0002 (fun () ->
                (* allocate well past 2 MB, ticking as we go; bounded so a
                   missed trip ends the loop instead of exhausting memory *)
                let keep = ref [] in
                for i = 1 to 10_000 do
                  keep := String.make 65536 'm' :: !keep;
                  ignore (List.length !keep);
                  ignore i;
                  for _ = 1 to 128 do
                    Governor.tick ()
                  done
                done)));
    test "count_groups and charge_bytes are no-ops when uninstalled"
      (fun () ->
        Governor.count_groups 1_000_000;
        Governor.charge_bytes max_int);
    test "with_governor restores the previous governor" (fun () ->
        let outer = Governor.create ~max_groups:5 () in
        let inner = Governor.create ~max_groups:50 () in
        let installed_is g =
          match Governor.current () with Some x -> x == g | None -> false
        in
        Governor.with_governor outer (fun () ->
            Governor.with_governor inner (fun () ->
                check_bool "inner installed" true (installed_is inner));
            check_bool "outer restored" true (installed_is outer));
        check_bool "uninstalled at the end" true (Governor.current () = None));
    test "with_governor restores on exception too" (fun () ->
        let g = Governor.create () in
        (try
           Governor.with_governor g (fun () -> failwith "boom")
         with Failure _ -> ());
        check_bool "uninstalled" true (Governor.current () = None));
    test "of_limits is None with no limits and no faults" (fun () ->
        check_bool "none" true
          (Governor.of_limits () = None));
    test "of_limits arms tick points when only faults are on" (fun () ->
        Governor.set_faults ~seed:7 ~rate:0.5;
        Fun.protect ~finally:Governor.clear_faults (fun () ->
            check_bool "some" true (Governor.of_limits () <> None)));
    test "stats count ticks, groups and trips" (fun () ->
        let g = Governor.create ~max_groups:3 () in
        Governor.with_governor g (fun () ->
            (* ticks are flushed to the shared counter in stride batches,
               so exactly two full strides must be visible *)
            for _ = 1 to 128 do
              Governor.tick ()
            done;
            Governor.count_groups 2;
            (try Governor.count_groups 5
             with Xerror.Error (Xerror.XQENG0003, _) -> ());
            let s = Governor.stats g in
            check_int "ticks" 128 s.Governor.s_ticks;
            check_int "groups" 7 s.Governor.s_groups;
            Alcotest.(check (list (pair string int)))
              "trips"
              [ ("groups", 1) ]
              (List.map
                 (fun (k, n) -> (Governor.kind_name k, n))
                 s.Governor.s_trips);
            check_bool "summary mentions the trip" true
              (let sum = Governor.summary g in
               String.length sum > 0)));
  ]

(* --- end-to-end trips through the engine --------------------------------- *)

let orders_doc =
  lazy Xq_workload.Orders.(generate (with_lineitems 3000 default))

let group_query =
  "for $l in //lineitem group by $l/partkey into $p nest $l into $ls \
   return <part key=\"{$p}\">{count($ls)}</part>"

let engine_tests =
  [
    test "a grouping query trips --max-groups deterministically" (fun () ->
        let doc = Lazy.force orders_doc in
        for _ = 1 to 3 do
          let g = Governor.create ~max_groups:10 () in
          Governor.with_governor g (fun () ->
              expect_code Xerror.XQENG0003 (fun () ->
                  Exec.run_string ~context_node:doc group_query))
        done);
    test "all three strategies trip the group cap" (fun () ->
        let doc = Lazy.force orders_doc in
        List.iter
          (fun strategy ->
            let g = Governor.create ~max_groups:10 () in
            Governor.with_governor g (fun () ->
                expect_code Xerror.XQENG0003 (fun () ->
                    Exec.run_string ~strategy ~context_node:doc group_query)))
          [ Optimizer.Hash; Optimizer.Sort; Optimizer.Auto ]);
    test "a long evaluation trips an expired deadline" (fun () ->
        let doc = Lazy.force orders_doc in
        let g = Governor.create ~timeout_ms:1 () in
        Unix.sleepf 0.005;
        Governor.with_governor g (fun () ->
            expect_code Xerror.XQENG0001 (fun () ->
                Exec.run_string ~context_node:doc group_query)));
    test "parallel grouping trips the cap and joins its domains" (fun () ->
        let doc = Lazy.force orders_doc in
        let g = Governor.create ~max_groups:10 () in
        Governor.with_governor g (fun () ->
            (match
               Exec.run_string ~strategy:Optimizer.Hash ~parallel:4
                 ~context_node:doc group_query
             with
            | _ -> Alcotest.fail "expected a resource trip"
            | exception Xerror.Error (code, _) ->
              check_bool "resource-class error" true (Xerror.is_resource code));
            check_int "no pending aborts" 0 (Governor.pending_aborts g)));
  ]

(* --- fault-injection differential suite ---------------------------------- *)

(* Same shape as the strategy differential suite (random docs from the
   workload PRNG), but every run executes under injected faults: spawn
   failures force the sequential fallback (output must not change) and
   allocation-pressure trips abort the run (which must then fail closed
   with a structured XQENG* error, leaving no abort marks behind). *)
let random_doc rng =
  let open Xq_xml.Builder in
  let pool = 1 + Prng.int rng 8 in
  let n = 20 + Prng.int rng 60 in
  let item _ =
    el "i"
      [
        el_text "k" (string_of_int (Prng.int rng pool));
        el_text "v" (string_of_int (Prng.int rng 100));
      ]
  in
  doc (el "r" (List.init n item))

let fault_query =
  "for $i in //i group by $i/k into $k nest $i/v into $vs \
   order by $k return <g>{$k}<n>{count($vs)}</n><s>{sum($vs)}</s></g>"

let strategies =
  [
    ("hash", Optimizer.Hash);
    ("sort", Optimizer.Sort);
    ("auto", Optimizer.Auto);
  ]

let parallels = [ 1; 2; 4 ]
let fault_seeds = 24

let differential_tests =
  [
    test
      (Printf.sprintf
         "injected runs are byte-identical or fail closed (%d seeds × 3 \
          strategies × parallel 1,2,4)"
         fault_seeds)
      (fun () ->
        let completed = ref 0 and failed_closed = ref 0 in
        for seed = 1 to fault_seeds do
          let rng = Prng.create (0xfa017 + seed) in
          let doc = random_doc rng in
          let expected =
            serialize (reference_run ~context_node:doc fault_query)
          in
          List.iter
            (fun (label, strategy) ->
              List.iter
                (fun parallel ->
                  Governor.set_faults ~seed ~rate:0.02;
                  Fun.protect ~finally:Governor.clear_faults (fun () ->
                      (* an unlimited governor arms the tick points so
                         alloc-pressure faults can fire *)
                      let g = Governor.create () in
                      Governor.with_governor g (fun () ->
                          match
                            Exec.run_string ~strategy ~parallel
                              ~context_node:doc fault_query
                          with
                          | result ->
                            incr completed;
                            let got = serialize result in
                            if got <> expected then
                              Alcotest.failf
                                "seed %d, %s, parallel %d: injected run \
                                 diverged\nexpected %s\ngot      %s"
                                seed label parallel expected got
                          | exception Xerror.Error (code, _) ->
                            incr failed_closed;
                            if not (Xerror.is_resource code) then
                              Alcotest.failf
                                "seed %d, %s, parallel %d: expected an \
                                 XQENG* failure, got %s"
                                seed label parallel
                                (Xerror.code_to_string code)
                          | exception e ->
                            Alcotest.failf
                              "seed %d, %s, parallel %d: unstructured \
                               failure %s"
                              seed label parallel (Printexc.to_string e));
                      check_int
                        (Printf.sprintf "seed %d %s par %d: aborts released"
                           seed label parallel)
                        0
                        (Governor.pending_aborts g)))
                parallels)
            strategies
        done;
        (* the sweep must exercise both outcomes, otherwise the rate is
           mistuned and the suite proves nothing *)
        check_bool "some runs completed" true (!completed > 0);
        check_bool "some runs failed closed" true (!failed_closed > 0));
    test "injection is deterministic per seed" (fun () ->
        let rng = Prng.create 0xdead in
        let doc = random_doc rng in
        let outcome () =
          Governor.set_faults ~seed:5 ~rate:0.05;
          Fun.protect ~finally:Governor.clear_faults (fun () ->
              let g = Governor.create () in
              Governor.with_governor g (fun () ->
                  match
                    Exec.run_string ~strategy:Optimizer.Hash ~parallel:1
                      ~context_node:doc fault_query
                  with
                  | result -> Ok (serialize result)
                  | exception Xerror.Error (code, _) -> Error code))
        in
        let a = outcome () and b = outcome () in
        check_bool "same outcome on replay" true (a = b));
  ]

let suites =
  [
    ("governor.trips", trip_tests);
    ("governor.engine", engine_tests);
    ("governor.faults", differential_tests);
  ]
