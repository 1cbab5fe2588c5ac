(* Canonical grouping keys (Key), the grouping hash mixer and the
   domain pool (Par).

   The qcheck properties pin the Key invariants: canonical equality
   coincides exactly with fn:deep-equal over the original sequences,
   deep-equal keys get equal hashes and compare 0, and the order is
   antisymmetric. The walk-counter tests assert the tentpole claim:
   grouping materializes (walks / stringifies) each key node subtree
   exactly once — comparisons and sorting never touch the tree again. *)

open Xq_xdm
module Key = Xq_engine.Key
module Group = Xq_engine.Group
module Par = Xq.Par

let to_alcotest = QCheck_alcotest.to_alcotest
let arb_sequence = Test_props.arb_sequence
let arb_root = Test_props.arb_root

(* --- canonical keys agree with deep-equal ------------------------------- *)

let canon1 s = Key.canonicalize [ s ]
let interned1 s = Key.canonicalize ~intern:true [ s ]

let canonical_props =
  [
    QCheck.Test.make ~count:500
      ~name:"canonical equality = deep-equal (atomic sequences)"
      (QCheck.pair arb_sequence arb_sequence)
      (fun (a, b) -> Key.equal (canon1 a) (canon1 b) = Deep_equal.sequences a b);
    QCheck.Test.make ~count:300
      ~name:"canonical equality = deep-equal (node sequences)"
      (QCheck.pair arb_root arb_root)
      (fun (n1, n2) ->
        (* each root against the other, and against a fresh copy of
           itself — copies exercise the equal case on distinct nodes *)
        let agree a b =
          Key.equal (canon1 a) (canon1 b) = Deep_equal.sequences a b
        in
        agree [ Item.Node n1 ] [ Item.Node n2 ]
        && agree [ Item.Node n1 ] [ Item.Node (Node.copy n1) ]
        && agree [ Item.Node n2 ] [ Item.Node (Node.copy n2) ]);
    QCheck.Test.make ~count:500
      ~name:"deep-equal keys: equal canonical hash and compare 0"
      (QCheck.pair arb_sequence arb_sequence)
      (fun (a, b) ->
        (not (Deep_equal.sequences a b))
        ||
        let ka = canon1 a and kb = canon1 b in
        Key.hash ka = Key.hash kb && Key.compare ka kb = 0);
    QCheck.Test.make ~count:200
      ~name:"node copy: equal canonical hash and compare 0" arb_root
      (fun n ->
        let ka = canon1 [ Item.Node n ]
        and kb = canon1 [ Item.Node (Node.copy n) ] in
        Key.equal ka kb && Key.hash ka = Key.hash kb && Key.compare ka kb = 0);
    QCheck.Test.make ~count:300 ~name:"canonical compare is antisymmetric"
      (QCheck.pair arb_sequence arb_sequence)
      (fun (a, b) ->
        let ka = canon1 a and kb = canon1 b in
        compare (Key.compare ka kb) 0 = -compare (Key.compare kb ka) 0);
  ]

(* --- walk counter: each key node is materialized exactly once ------------ *)

(* n tuples keyed by a <k>digit</k> element node; 7 distinct key values,
   so groups have many members and the comparators run constantly. *)
let node_tuples n =
  List.init n (fun i ->
      let node =
        Xq_xml.Builder.(build (el_text "k" (string_of_int (i mod 7))))
      in
      (i, [ [ Item.Node node ] ]))

let keys_of = snd

let counting f =
  Key.reset_walk_count ();
  let r = f () in
  (r, Key.walk_count ())

let member_ids g = List.map fst g.Group.members
let group_ids gs = List.map member_ids gs

let walk_tests =
  [
    Alcotest.test_case "group_hash walks each key node exactly once" `Quick
      (fun () ->
        let tuples = node_tuples 200 in
        let tally = ref 0 in
        let groups, walks =
          counting (fun () -> Group.group_hash ~tally ~keys_of tuples)
        in
        Alcotest.(check int) "groups" 7 (List.length groups);
        Alcotest.(check int) "one walk per key node" 200 walks;
        Alcotest.(check bool) "equality tests ran" true (!tally > 0));
    Alcotest.test_case
      "group_sort sorted output: sorting adds zero node walks" `Quick
      (fun () ->
        let tuples = node_tuples 200 in
        let tally = ref 0 in
        let groups, walks =
          counting (fun () ->
              Group.group_sort ~tally ~sorted_output:true ~keys_of tuples)
        in
        Alcotest.(check int) "groups" 7 (List.length groups);
        (* the acceptance criterion: despite !tally comparator calls, no
           comparison re-walks or re-stringifies a key subtree *)
        Alcotest.(check int) "one walk per key node" 200 walks;
        Alcotest.(check bool) "comparator ran" true (!tally > 0));
    Alcotest.test_case "group_scan default equality: zero extra walks" `Quick
      (fun () ->
        let tuples = node_tuples 60 in
        let groups, walks =
          counting (fun () ->
              Group.group_scan ~keys_of
                ~equal:(fun _ a b -> Key.equal_single a b)
                tuples)
        in
        Alcotest.(check int) "groups" 7 (List.length groups);
        Alcotest.(check int) "one walk per key node" 60 walks);
  ]

(* --- parallel grouping: identical output and identical tallies ----------- *)

let parallel_tests =
  [
    Alcotest.test_case "group_hash at degree 4 = sequential (incl. tally)"
      `Quick (fun () ->
        let tuples = node_tuples 300 in
        let t1 = ref 0 and t4 = ref 0 in
        let seq = Group.group_hash ~tally:t1 ~keys_of tuples in
        let par = Group.group_hash ~tally:t4 ~parallel:4 ~keys_of tuples in
        Alcotest.(check (list (list int)))
          "same groups, order and members" (group_ids seq) (group_ids par);
        Alcotest.(check int) "same comparator tally" !t1 !t4);
    Alcotest.test_case "group_sort sorted output at degree 4 = sequential"
      `Quick (fun () ->
        let tuples = node_tuples 300 in
        let seq = Group.group_sort ~sorted_output:true ~keys_of tuples in
        let par =
          Group.group_sort ~sorted_output:true ~parallel:4 ~keys_of tuples
        in
        Alcotest.(check (list (list int)))
          "same groups, order and members" (group_ids seq) (group_ids par));
    Alcotest.test_case "group_scan at degree 4 = sequential" `Quick (fun () ->
        let tuples = node_tuples 120 in
        let equal _ a b = Key.equal_single a b in
        let seq = Group.group_scan ~keys_of ~equal tuples in
        let par = Group.group_scan ~parallel:4 ~keys_of ~equal tuples in
        Alcotest.(check (list (list int)))
          "same groups, order and members" (group_ids seq) (group_ids par));
  ]

(* --- the key dictionary --------------------------------------------------- *)

(* Interning rewrites node keys to small dictionary codes; every
   observable property (equality, hash, order — including against keys
   canonicalized WITHOUT interning) must be unchanged, and codes must
   survive the spill codec. *)
let dict_props =
  [
    QCheck.Test.make ~count:200
      ~name:"interned canon = raw canon (equality, hash, order)" arb_root
      (fun n ->
        let s = [ Item.Node n ] in
        let raw = canon1 s in
        let interned = interned1 s in
        Key.equal raw interned && Key.equal interned raw
        && Key.hash raw = Key.hash interned
        && Key.compare raw interned = 0);
    QCheck.Test.make ~count:200
      ~name:"interned equality coincides with deep-equal"
      (QCheck.pair arb_root arb_root)
      (fun (n1, n2) ->
        let c n = interned1 [ Item.Node n ] in
        let k1 = c n1 and k2 = c n2 in
        Key.equal k1 k2 = Deep_equal.sequences [ Item.Node n1 ] [ Item.Node n2 ]);
    QCheck.Test.make ~count:200
      ~name:"interned keys survive the binio spill round-trip" arb_root
      (fun n ->
        let k = interned1 [ Item.Node n ] in
        let reg = Binio.registry () in
        let buf = Buffer.create 64 in
        Key.encode reg buf k;
        let k' = Key.decode reg (Binio.reader (Buffer.contents buf)) in
        Key.equal k k' && Key.hash k = Key.hash k' && Key.compare k k' = 0);
  ]

let dict_tests =
  [
    Alcotest.test_case "interning actually produces dictionary codes" `Quick
      (fun () ->
        let node = Xq_xml.Builder.(build (el_text "k" "dict-probe")) in
        let before = Key.intern_count () in
        let _ = interned1 [ Item.Node node ] in
        Alcotest.(check bool) "interned" true (Key.intern_count () > before);
        Alcotest.(check bool) "dictionary non-empty" true
          (Key.dict_size () > 0));
    Alcotest.test_case "torn spill frame is rejected, never misdecoded"
      `Quick (fun () ->
        let node = Xq_xml.Builder.(build (el_text "k" "torn")) in
        let k = interned1 [ Item.Node node ] in
        let reg = Binio.registry () in
        let buf = Buffer.create 64 in
        Key.encode reg buf k;
        let whole = Buffer.contents buf in
        (* every strict prefix must fail loudly *)
        for cut = 0 to String.length whole - 1 do
          match Key.decode reg (Binio.reader (String.sub whole 0 cut)) with
          | _ -> Alcotest.fail "decoded a torn frame"
          | exception Binio.Corrupt _ -> ()
        done);
    Alcotest.test_case "codes outside the dictionary are corrupt" `Quick
      (fun () ->
        (* a frame can hold a code the dictionary no longer covers (e.g.
           written before a crash); decode must refuse it *)
        let node = Xq_xml.Builder.(build (el_text "k" "stale-code")) in
        let k = interned1 [ Item.Node node ] in
        let reg = Binio.registry () in
        let buf = Buffer.create 64 in
        Key.encode reg buf k;
        Key.reset_dict ();
        match Key.decode reg (Binio.reader (Buffer.contents buf)) with
        | _ -> Alcotest.fail "decoded a stale dictionary code"
        | exception Binio.Corrupt _ -> ());
    Alcotest.test_case
      "grouping with interning = without, sequential and at degree 4" `Quick
      (fun () ->
        let tuples = node_tuples 600 in
        let dict on = Xq_governor.Config.resolve ~batch:4096 ~dict:on () in
        let plain = Group.group_hash ~config:(dict false) ~keys_of tuples in
        let before = Key.intern_count () in
        let interned = Group.group_hash ~config:(dict true) ~keys_of tuples in
        Alcotest.(check bool) "the build interned" true
          (Key.intern_count () > before);
        let par =
          Group.group_hash ~parallel:4 ~config:(dict true) ~keys_of tuples
        in
        Alcotest.(check (list (list int)))
          "interned = plain" (group_ids plain) (group_ids interned);
        Alcotest.(check (list (list int)))
          "parallel interned = plain" (group_ids plain) (group_ids par));
  ]

(* --- the hash mixer: wide key lists must not collapse -------------------- *)

let hash_tests =
  [
    Alcotest.test_case "key lists differing deep in a wide list hash apart"
      `Quick (fun () ->
        (* a single bounded Hashtbl.hash pass samples long lists and
           collided on exactly this pair; the fold mixer must not *)
        let key i = [ Item.Atomic (Atomic.Int i) ] in
        let l1 = List.init 30 key in
        let l2 = List.mapi (fun i k -> if i = 25 then key 999 else k) l1 in
        Alcotest.(check bool) "hashes differ" true
          (Group.hash_keys l1 <> Group.hash_keys l2));
    Alcotest.test_case "hash_keys is deep-equal-consistent" `Quick (fun () ->
        let l1 = [ [ Item.Atomic (Atomic.Int 3) ]; [ Item.Atomic (Atomic.Str "x") ] ] in
        let l2 = [ [ Item.Atomic (Atomic.Dbl 3.0) ]; [ Item.Atomic (Atomic.Untyped "x") ] ] in
        Alcotest.(check bool) "numeric/string promotion hashes equal" true
          (Group.hash_keys l1 = Group.hash_keys l2));
  ]

(* --- the domain pool ----------------------------------------------------- *)

let par_tests =
  [
    Alcotest.test_case "Par.map = Array.map at degree 4" `Quick (fun () ->
        let src = Array.init 1003 (fun i -> i) in
        let f x = x * 37 mod 101 in
        Alcotest.(check (array int))
          "map" (Array.map f src)
          (Par.map ~degree:4 ~min_chunk:8 f src));
    Alcotest.test_case "Par.sort is stable and = Array.stable_sort" `Quick
      (fun () ->
        let n = 2000 in
        let a = Array.init n (fun i -> (i * 7919 mod 13, i)) in
        let cmp (k1, _) (k2, _) = compare k1 k2 in
        let expected = Array.copy a in
        Array.stable_sort cmp expected;
        let got = Array.copy a in
        Par.sort ~degree:4 ~min_chunk:16 cmp got;
        Alcotest.(check (array (pair int int))) "sorted" expected got);
    Alcotest.test_case "Par.map raises the earliest failure" `Quick (fun () ->
        let src = Array.init 100 (fun i -> i) in
        let f x = if x = 23 || x = 71 then failwith (string_of_int x) else x in
        match Par.map ~degree:4 ~min_chunk:4 f src with
        | _ -> Alcotest.fail "expected a failure"
        | exception Failure m ->
          Alcotest.(check string) "earliest failing index wins" "23" m);
  ]

(* --- oracle agreement: canonical partition = naive deep-equal ----------- *)

(* The fuzzing oracle groups by literal pairwise fn:deep-equal over the
   original key sequences (the paper's Section 3.3 wording); the engine
   groups through canonical keys. Over collision-prone generated key
   lists — mixed atoms, untyped values, small element nodes, sequence
   keys — both must induce the same partition, groups and members in
   the same order. *)
let oracle_agreement_tests =
  let partition_of groups ~members = List.map members groups in
  [
    Alcotest.test_case
      "group_hash partition = naive pairwise deep-equal (seeds 0-99)" `Quick
      (fun () ->
        for seed = 0 to 99 do
          let tuples =
            List.mapi (fun i ks -> (i, ks)) (Xq_qgen.Qgen.key_lists seed)
          in
          let engine = Group.group_hash ~keys_of tuples in
          let naive =
            Xq_refimpl.Refimpl.group_by_deep_equal ~keys_of tuples
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "seed %d" seed)
            (partition_of naive ~members:(fun g ->
                 List.map fst g.Xq_refimpl.Refimpl.members))
            (group_ids engine)
        done);
    Alcotest.test_case
      "group_sort partition = naive pairwise deep-equal (seeds 0-49)" `Quick
      (fun () ->
        for seed = 0 to 49 do
          let tuples =
            List.mapi (fun i ks -> (i, ks)) (Xq_qgen.Qgen.key_lists seed)
          in
          let engine = Group.group_sort ~keys_of tuples in
          let naive =
            Xq_refimpl.Refimpl.group_by_deep_equal ~keys_of tuples
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "seed %d" seed)
            (partition_of naive ~members:(fun g ->
                 List.map fst g.Xq_refimpl.Refimpl.members))
            (group_ids engine)
        done);
  ]

let suites =
  [
    ("key.canonical", List.map to_alcotest canonical_props);
    ("key.oracle-agreement", oracle_agreement_tests);
    ("key.walks", walk_tests);
    ("key.parallel", parallel_tests);
    ("key.dictionary", List.map to_alcotest dict_props @ dict_tests);
    ("key.hash", hash_tests);
    ("key.par-pool", par_tests);
  ]
