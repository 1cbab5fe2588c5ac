(* Optimizer demo: the Table 1 experiment in miniature. The same grouping
   intent is expressed three ways — the implicit distinct-values idiom,
   its automatic rewrite, and the hand-written explicit group by — and
   all three are timed on the purchase-order workload.

   Run with:  dune exec examples/optimizer_demo.exe *)

let implicit =
  {|for $m in distinct-values(//order/lineitem/shipmode)
    let $items := for $i in //order/lineitem where $i/shipmode = $m return $i
    return <r>{$m, count($items)}</r>|}

let explicit =
  {|for $litem in //order/lineitem
    group by $litem/shipmode into $m
    nest $litem into $items
    return <r>{string($m), count($items)}</r>|}

let time f =
  let t0 = Xq_governor.Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Xq_governor.Clock.now_ns () - t0) /. 1e6)

let () =
  let doc =
    Xq_workload.Orders.(generate (with_lineitems 4000 default))
  in

  (* show what the rewriter does to the implicit query *)
  let ast = Xq.parse implicit in
  let rewritten = Xq.Rewrite.Rewrite.rewrite_query ast in
  Printf.printf "rewrites found: %d\n\n"
    (Xq.Rewrite.Rewrite.count_rewrites ast.Xq.Lang.Ast.body);
  print_endline "--- implicit idiom, as written ---";
  print_endline (Xq.Lang.Pretty.query ast);
  print_endline "\n--- after the group-by rewrite ---";
  print_endline (Xq.Lang.Pretty.query rewritten);

  (* warm up, then time the three plans *)
  ignore (Xq.run doc explicit);
  let r_implicit, t_implicit = time (fun () -> Xq.run doc implicit) in
  let r_rewritten, t_rewritten = time (fun () -> Xq.run_rewritten doc implicit) in
  let r_explicit, t_explicit = time (fun () -> Xq.run doc explicit) in

  Printf.printf "\nimplicit:   %4d groups in %7.1f ms\n" (Xq.length r_implicit) t_implicit;
  Printf.printf "rewritten:  %4d groups in %7.1f ms\n" (Xq.length r_rewritten) t_rewritten;
  Printf.printf "explicit:   %4d groups in %7.1f ms\n" (Xq.length r_explicit) t_explicit;
  Printf.printf "\nspeedup from recognizing the grouping pattern: %.1fx\n"
    (t_implicit /. t_rewritten)
