(* Failure semantics of the Par fork-join pool: deterministic exception
   choice, degenerate inputs, spawn-failure fallback (exercised through
   the fault-injection hook), governor-driven sibling cancellation, and
   the long-lived worker pool itself (nesting past its size, reuse). *)

open Helpers
module Par = Xq_par.Par
module Governor = Xq_governor.Governor
module Xerror = Xq_xdm.Xerror

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

let with_faults ~seed ~rate f =
  Governor.set_faults ~seed ~rate;
  Fun.protect ~finally:Governor.clear_faults f

let run_tasks_tests =
  [
    test "empty task array is a no-op" (fun () -> Par.run_tasks [||]);
    test "single task runs on the caller" (fun () ->
        let hit = ref false in
        Par.run_tasks [| (fun () -> hit := true) |];
        check_bool "ran" true !hit);
    test "a raising task re-raises after all siblings complete" (fun () ->
        let done_ = Array.make 4 false in
        (match
           Par.run_tasks
             (Array.init 4 (fun i ->
                  fun () ->
                    if i = 2 then raise (Boom 2) else done_.(i) <- true))
         with
        | () -> Alcotest.fail "expected Boom"
        | exception Boom 2 -> ()
        | exception e -> raise e);
        (* every non-raising task ran to completion: domains were joined,
           none abandoned *)
        check_bool "task 0 completed" true done_.(0);
        check_bool "task 1 completed" true done_.(1);
        check_bool "task 3 completed" true done_.(3));
    test "several raising tasks: the lowest-indexed exception wins" (fun () ->
        match
          Par.run_tasks (Array.init 6 (fun i -> fun () -> raise (Boom i)))
        with
        | () -> Alcotest.fail "expected Boom"
        | exception Boom 0 -> ()
        | exception Boom i -> Alcotest.failf "expected Boom 0, got Boom %d" i);
    test "map exception matches sequential left-to-right order" (fun () ->
        let src = Array.init 100 (fun i -> i) in
        match
          Par.map ~degree:4 ~min_chunk:1
            (fun i -> if i >= 37 then raise (Boom i) else i)
            src
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom 37 -> ()
        | exception Boom i -> Alcotest.failf "expected Boom 37, got Boom %d" i);
    test "map of the empty array" (fun () ->
        check_int "length" 0 (Array.length (Par.map ~degree:4 succ [||])));
    test "map of a 1-element array" (fun () ->
        Alcotest.(check (array int))
          "mapped" [| 2 |]
          (Par.map ~degree:4 ~min_chunk:1 succ [| 1 |]));
  ]

let fallback_tests =
  [
    test "spawn faults at rate 1.0 degrade to sequential, same output"
      (fun () ->
        let src = Array.init 1000 (fun i -> i) in
        let expected = Array.map (fun i -> i * i) src in
        with_faults ~seed:1 ~rate:1.0 (fun () ->
            Alcotest.(check (array int))
              "map" expected
              (Par.map ~degree:4 ~min_chunk:1 (fun i -> i * i) src);
            let a = Array.init 1000 (fun i -> (i * 7919) mod 1000) in
            let b = Array.copy a in
            Par.sort ~degree:4 ~min_chunk:8 compare a;
            Array.stable_sort compare b;
            Alcotest.(check (array int)) "sort" b a));
    test "spawn faults under a raising task still pick the first error"
      (fun () ->
        with_faults ~seed:2 ~rate:1.0 (fun () ->
            match
              Par.run_tasks
                (Array.init 4 (fun i -> fun () -> raise (Boom i)))
            with
            | () -> Alcotest.fail "expected Boom"
            | exception Boom 0 -> ()
            | exception Boom i ->
              Alcotest.failf "expected Boom 0, got Boom %d" i));
    test "partial spawn faults (rate 0.5) keep map output intact" (fun () ->
        let src = Array.init 500 string_of_int in
        let expected = Array.map (fun s -> s ^ "!") src in
        for seed = 0 to 9 do
          with_faults ~seed ~rate:0.5 (fun () ->
              Alcotest.(check (array string))
                (Printf.sprintf "seed %d" seed)
                expected
                (Par.map ~degree:4 ~min_chunk:1 (fun s -> s ^ "!") src))
        done);
  ]

let cancellation_tests =
  [
    test "a failing worker cancels ticking siblings via the governor"
      (fun () ->
        let g = Governor.create () in
        Governor.with_governor g (fun () ->
            let sibling_cancelled = ref false in
            (match
               Par.run_tasks
                 [|
                   (fun () ->
                     (* ticks until the sibling's failure marks an abort;
                        time-bounded so a missed cancellation fails the
                        test instead of hanging it *)
                     let deadline = Unix.gettimeofday () +. 10.0 in
                     try
                       while Unix.gettimeofday () < deadline do
                         Governor.tick ()
                       done
                     with
                     | Xerror.Error (Xerror.XQENG0004, _) as e ->
                       sibling_cancelled := true;
                       raise e);
                   (fun () -> raise (Boom 1));
                 |]
             with
            | () -> Alcotest.fail "expected Boom"
            | exception Boom 1 -> ()
            | exception e ->
              Alcotest.failf "expected Boom 1, got %s" (Printexc.to_string e));
            check_bool "sibling observed the cancellation" true
              !sibling_cancelled;
            (* the abort marks were released: the governor is usable again *)
            check_int "no pending aborts" 0 (Governor.pending_aborts g);
            Governor.tick ()));
    test "explicit cancel trips XQENG0004 within one stride of ticks"
      (fun () ->
        let g = Governor.create () in
        Governor.with_governor g (fun () ->
            Governor.tick ();
            Governor.cancel g;
            match
              (* the cancellation flag is read at stride boundaries *)
              for _ = 1 to 128 do
                Governor.tick ()
              done
            with
            | () -> Alcotest.fail "expected XQENG0004"
            | exception Xerror.Error (Xerror.XQENG0004, _) -> ()));
  ]

(* --- the long-lived worker pool ------------------------------------------ *)

let cores = max 1 (Domain.recommended_domain_count ())

let check_pool_bound () =
  check_bool
    (Printf.sprintf "pool_workers %d <= %d cores" (Par.pool_workers ()) cores)
    true
    (Par.pool_workers () <= cores)

(* A one-shot barrier for [n] parties; a wait gives up after 30 s so a
   pool that cannot run every party at once fails instead of hanging. *)
let barrier n =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    let give_up = Unix.gettimeofday () +. 30.0 in
    while Atomic.get arrived < n do
      if Unix.gettimeofday () > give_up then failwith "barrier timed out";
      Domain.cpu_relax ()
    done

(* Par.map and Par.sort at degree [d] must equal their sequential
   counterparts byte for byte. *)
let check_map_sort d seed =
  let src = Array.init 2000 (fun i -> ((i * 7919) + seed) mod 1000) in
  let mapped = Par.map ~degree:d ~min_chunk:1 (fun i -> i * 3) src in
  let sorted = Array.copy src in
  Par.sort ~degree:d ~min_chunk:8 compare sorted;
  let expected_sort = Array.copy src in
  Array.stable_sort compare expected_sort;
  mapped = Array.map (fun i -> i * 3) src && sorted = expected_sort

let pool_tests =
  [
    test "nested fork-join deeper than the pool completes" (fun () ->
        (* three levels of (cores + 2) tasks each: far more runnable
           tasks than workers at every level *)
        let width = cores + 2 in
        let leaves = Atomic.make 0 and ok = Atomic.make true in
        let rec fork depth =
          if depth = 0 then begin
            if not (check_map_sort 4 (Atomic.fetch_and_add leaves 1)) then
              Atomic.set ok false
          end
          else Par.run_tasks (Array.init width (fun _ () -> fork (depth - 1)))
        in
        fork 3;
        check_int "every leaf ran" (width * width * width) (Atomic.get leaves);
        check_bool "map and sort byte-identical at every leaf" true
          (Atomic.get ok);
        check_pool_bound ());
    test "fork-join inside every busy worker completes" (fun () ->
        (* every worker is held inside a pooled job at the same moment
           (the barrier), then each forks four tasks that fork again
           (map and sort at degree 4): no worker is free, so every
           sibling must be reclaimed by its own join *)
        let meet = barrier cores in
        let results = Array.make cores None in
        let clients =
          List.init cores (fun i ->
              Thread.create
                (fun () ->
                  results.(i) <-
                    Par.on_pool (fun () ->
                        meet ();
                        let inner = Array.make 4 true in
                        Par.run_tasks
                          (Array.init 4 (fun k () ->
                               inner.(k) <- check_map_sort 4 ((i * 4) + k)));
                        Array.for_all Fun.id inner))
                ())
        in
        List.iter Thread.join clients;
        Array.iteri
          (fun i r ->
            check_bool (Printf.sprintf "client %d ran on the pool" i) true
              (r = Some true))
          results;
        check_int "nothing left queued" 0 (Par.pool_queued ());
        check_pool_bound ());
    test "a reused worker starts clean after a job that tripped" (fun () ->
        (* enough rounds that every worker runs a tripping job and is
           then handed another one *)
        for round = 1 to 4 * cores do
          let g = Governor.create () in
          (match
             Par.on_pool (fun () ->
                 Governor.with_governor g (fun () ->
                     Par.run_tasks
                       (Array.init 4 (fun k () ->
                            if k = 0 then begin
                              Governor.cancel g;
                              for _ = 1 to 1024 do
                                Governor.tick ()
                              done
                            end))))
           with
          | _ -> Alcotest.failf "round %d: the cancelled job did not trip" round
          | exception Xerror.Error (Xerror.XQENG0004, _) -> ());
          check_int "abort marks released" 0 (Governor.pending_aborts g);
          match Par.on_pool (fun () -> Governor.current () = None) with
          | Some no_current ->
            check_bool "no governor left behind" true no_current
          | None -> Alcotest.fail "no pool worker"
        done;
        check_pool_bound ());
    test "an injected spawn fault warns exactly once per process" (fun () ->
        (* the fallback warning is once per process, so count it in a
           fresh one: this executable, running only the rate-1.0
           fallback case (several injected faults, map and sort) *)
        let err = Filename.temp_file "xq-par" ".err" in
        let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Fun.protect
            ~finally:(fun () ->
              Unix.close fd;
              Unix.close devnull)
            (fun () ->
              Unix.create_process Sys.executable_name
                (* --verbose: the outputs go to our pipes, and no log
                   directory of its own is written *)
                [|
                  Sys.executable_name; "test"; "par.fallback"; "0"; "--verbose";
                |]
                Unix.stdin devnull fd)
        in
        let _, status = Unix.waitpid [] pid in
        let ic = open_in_bin err in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove err;
        check_bool "fallback case passed" true (status = Unix.WEXITED 0);
        let warnings =
          List.filter
            (String.starts_with
               ~prefix:"xq: warning: Domain.spawn unavailable")
            (String.split_on_char '\n' text)
        in
        Alcotest.(check (list string))
          "one warning, naming the injected fault"
          [
            "xq: warning: Domain.spawn unavailable (injected fault); falling \
             back to sequential execution";
          ]
          warnings);
  ]

(* --- governor inheritance across a fork ---------------------------------- *)

(* Spin until [ready ()] holds; gives up after 30 s so a pool that never
   runs a task fails instead of hanging. *)
let spin_until ready =
  let give_up = Unix.gettimeofday () +. 30.0 in
  while not (ready ()) do
    if Unix.gettimeofday () > give_up then failwith "wait timed out";
    Domain.cpu_relax ()
  done

let inheritance_tests =
  [
    test "tasks inherit the forking domain's governor" (fun () ->
        let main = (Domain.self () :> int) in
        let g = Governor.create ~spill_watermark_bytes:(1 lsl 20) () in
        let fired_on = ref [] in
        Governor.with_governor g (fun () ->
            Governor.with_pressure_callback
              (fun () -> fired_on := (Domain.self () :> int) :: !fired_on)
              (fun () ->
                let sees_g = Array.make 4 false in
                let on_worker = Atomic.make 0 in
                Par.run_tasks
                  (Array.init 4 (fun k () ->
                       sees_g.(k) <-
                         (match Governor.current () with
                          | Some x -> x == g
                          | None -> false);
                       if k = 0 then begin
                         (* hold the forking domain until a worker has
                            charged, then cross the watermark here *)
                         spin_until (fun () -> Atomic.get on_worker > 0);
                         Governor.charge_bytes (2 lsl 20)
                       end
                       else begin
                         Governor.charge_bytes 1000;
                         if (Domain.self () :> int) <> main then
                           Atomic.incr on_worker
                       end));
                Array.iteri
                  (fun k ok ->
                    check_bool (Printf.sprintf "task %d sees g" k) true ok)
                  sees_g;
                check_int "every charge landed in g" ((2 lsl 20) + 3000)
                  (Governor.stats g).Governor.s_charged_bytes;
                check_bool "task 0 fired the forking domain's callback" true
                  (!fired_on <> []
                  && List.for_all (fun id -> id = main) !fired_on)));
        (* cancelling g reaches tasks ticking on pool workers *)
        let g = Governor.create () in
        let worker_trips = Atomic.make 0 and ticking = Atomic.make 0 in
        (match
           Governor.with_governor g (fun () ->
               Par.run_tasks
                 (Array.init 4 (fun k () ->
                      if k = 0 then begin
                        spin_until (fun () -> Atomic.get ticking > 0);
                        Governor.cancel g
                      end
                      else
                        let on_worker = (Domain.self () :> int) <> main in
                        let deadline = Unix.gettimeofday () +. 10.0 in
                        try
                          while Unix.gettimeofday () < deadline do
                            if on_worker then Atomic.incr ticking;
                            Governor.tick ()
                          done
                        with Xerror.Error (Xerror.XQENG0004, _) as e ->
                          if on_worker then Atomic.incr worker_trips;
                          raise e)))
         with
        | () -> Alcotest.fail "expected XQENG0004"
        | exception Xerror.Error (Xerror.XQENG0004, _) -> ());
        check_bool "a worker task tripped XQENG0004" true
          (Atomic.get worker_trips > 0);
        (* no worker keeps an install once its task has ended *)
        let clean = Array.make (2 * cores) false in
        Par.run_tasks
          (Array.init (2 * cores) (fun k () ->
               clean.(k) <- Governor.current () = None));
        check_bool "no install left behind" true (Array.for_all Fun.id clean));
  ]

let suites =
  [
    ("par.run-tasks", run_tasks_tests);
    ("par.fallback", fallback_tests);
    ("par.cancellation", cancellation_tests);
    ("par.inheritance", inheritance_tests);
    ("par.pool", pool_tests);
  ]
