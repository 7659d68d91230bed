(* Tests for ocd_baselines. *)

open Ocd_prelude
open Ocd_core
open Ocd_engine
open Ocd_baselines

let qtest = QCheck_alcotest.to_alcotest

let single_file ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.single_file rng ~graph:g ~tokens ~source:0 ()).Scenario.instance

let partial ~seed ~n ~tokens ~threshold =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.receiver_density rng ~graph:g ~tokens ~threshold ~source:0 ())
    .Scenario.instance

let test_default_source () =
  let graph = Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 1); (1, 2, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:3 ~have:[ (1, [ 0; 1 ]); (2, [ 2 ]) ]
      ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check int) "most tokens" 1 (Baseline_util.default_source inst)

let test_widest_path_tree () =
  (* 0-1 fat (10), 1-2 fat (10), 0-2 thin (1): vertex 2 should attach
     through 1, not the thin direct edge. *)
  let g =
    Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 10); (1, 2, 10); (0, 2, 1) ]
  in
  let tree = Baseline_util.widest_path_tree g ~root:0 in
  Alcotest.(check int) "2 via 1" 1 tree.Ocd_graph.Disjoint_trees.parent.(2)

let test_send_down_arc () =
  let have =
    Bitset.Rows.of_sets 5
      [| Bitset.of_list 5 [ 0; 2; 4 ]; Bitset.of_list 5 [ 0 ] |]
  in
  let buf = Bitset.create 5 in
  let moves =
    Baseline_util.send_down_arc ~buf ~have ~src:0 ~dst:1 ~cap:2 ~only:None ()
  in
  Alcotest.(check (list int)) "lowest ids first, skip held" [ 2; 4 ]
    (List.map (fun m -> m.Move.token) moves);
  let stripe = Bitset.of_list 5 [ 4 ] in
  let striped =
    Baseline_util.send_down_arc ~buf ~have ~src:0 ~dst:1 ~cap:2
      ~only:(Some stripe) ()
  in
  Alcotest.(check (list int)) "stripe filter" [ 4 ]
    (List.map (fun m -> m.Move.token) striped)

let baseline_completes name strategy () =
  let inst = single_file ~seed:31 ~n:25 ~tokens:10 in
  let run = Engine.run ~strategy ~seed:4 inst in
  Alcotest.(check bool) (name ^ " completes") true
    (run.Engine.outcome = Engine.Completed);
  Alcotest.(check bool) (name ^ " valid") true
    (Validate.check_successful inst run.Engine.schedule = Ok ())

let test_tree_push_uses_tree_arcs_only () =
  let inst = single_file ~seed:32 ~n:20 ~tokens:5 in
  let strategy = Tree_push.strategy ~source:0 () in
  let run = Engine.run ~strategy ~seed:4 inst in
  (* Each vertex receives from exactly one parent. *)
  let parents = Hashtbl.create 16 in
  Schedule.iter_moves run.Engine.schedule (fun ~step:_ (m : Move.t) ->
      match Hashtbl.find_opt parents m.Move.dst with
      | None -> Hashtbl.replace parents m.Move.dst m.Move.src
      | Some p -> Alcotest.(check int) "single parent" p m.Move.src)

let test_split_forest_stripes_disjoint_paths () =
  let inst = single_file ~seed:33 ~n:20 ~tokens:8 in
  let run = Engine.run ~strategy:(Split_forest.strategy ~source:0 ~k:2 ()) ~seed:4 inst in
  Alcotest.(check bool) "completes" true (run.Engine.outcome = Engine.Completed)

let test_split_forest_k1_equals_tree_discipline () =
  let inst = single_file ~seed:34 ~n:15 ~tokens:4 in
  let run = Engine.run ~strategy:(Split_forest.strategy ~source:0 ~k:1 ()) ~seed:4 inst in
  Alcotest.(check bool) "completes" true (run.Engine.outcome = Engine.Completed)

let test_fast_replica_seeds_chunks () =
  let inst = single_file ~seed:35 ~n:20 ~tokens:12 in
  let run = Engine.run ~strategy:(Fast_replica.strategy ~source:0 ()) ~seed:4 inst in
  Alcotest.(check bool) "completes" true (run.Engine.outcome = Engine.Completed)

let test_serial_steiner_plan_valid () =
  let inst = partial ~seed:36 ~n:25 ~tokens:6 ~threshold:0.4 in
  if not (Instance.trivially_satisfied inst) then begin
    let plan = Serial_steiner.plan inst in
    Alcotest.(check bool) "valid successful plan" true
      (Validate.check_successful inst plan = Ok ());
    Alcotest.(check int) "bandwidth = tree cost sum"
      (Serial_steiner.bandwidth_upper_bound inst)
      (Schedule.move_count plan)
  end

let test_serial_steiner_bandwidth_at_most_flooding () =
  let inst = partial ~seed:37 ~n:30 ~tokens:6 ~threshold:0.3 in
  if not (Instance.trivially_satisfied inst) then begin
    let plan = Serial_steiner.plan inst in
    let flood =
      Engine.completed_exn
        (Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:4 inst)
    in
    Alcotest.(check bool) "steiner cheaper than flooding" true
      (Schedule.move_count plan
      <= flood.Engine.metrics.Metrics.bandwidth)
  end

let test_serial_steiner_bandwidth_geq_deficit () =
  let inst = partial ~seed:38 ~n:25 ~tokens:5 ~threshold:0.5 in
  Alcotest.(check bool) "ub >= deficit" true
    (Serial_steiner.bandwidth_upper_bound inst >= Instance.total_deficit inst)

let test_serial_steiner_unsatisfiable_raises () =
  let graph =
    Ocd_graph.Digraph.of_arcs ~vertex_count:2
      [ { Ocd_graph.Digraph.src = 1; dst = 0; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (1, [ 0 ]) ]
  in
  Alcotest.check_raises "unsatisfiable"
    (Invalid_argument "Serial_steiner: instance unsatisfiable") (fun () ->
      ignore (Serial_steiner.plan inst))

let prop_baselines_complete =
  QCheck.Test.make ~name:"all baselines complete on random single-file"
    ~count:15
    QCheck.(pair (int_range 0 500) (int_range 8 25))
    (fun (seed, n) ->
      let inst = single_file ~seed ~n ~tokens:6 in
      List.for_all
        (fun strategy ->
          (Engine.run ~strategy ~seed:(seed + 1) inst).Engine.outcome
          = Engine.Completed)
        [
          Tree_push.strategy ~source:0 ();
          Split_forest.strategy ~source:0 ~k:3 ();
          Fast_replica.strategy ~source:0 ();
          Serial_steiner.strategy;
        ])

let prop_serial_steiner_is_pruned_tight =
  QCheck.Test.make ~name:"serial-steiner schedules survive pruning unchanged"
    ~count:15
    QCheck.(pair (int_range 0 500) (int_range 8 20))
    (fun (seed, n) ->
      let inst = single_file ~seed ~n ~tokens:4 in
      let plan = Serial_steiner.plan inst in
      (* Every arc of a Steiner tree feeds a terminal in the all-want-all
         case, so pruning removes nothing. *)
      Schedule.move_count (Prune.prune inst plan) = Schedule.move_count plan)

let () =
  Alcotest.run "ocd_baselines"
    [
      ( "util",
        [
          Alcotest.test_case "default source" `Quick test_default_source;
          Alcotest.test_case "widest path tree" `Quick test_widest_path_tree;
          Alcotest.test_case "send down arc" `Quick test_send_down_arc;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "tree-push completes" `Quick
            (baseline_completes "tree-push" (Tree_push.strategy ~source:0 ()));
          Alcotest.test_case "split-forest completes" `Quick
            (baseline_completes "split-forest"
               (Split_forest.strategy ~source:0 ~k:2 ()));
          Alcotest.test_case "fast-replica completes" `Quick
            (baseline_completes "fast-replica" (Fast_replica.strategy ~source:0 ()));
          Alcotest.test_case "serial-steiner completes" `Quick
            (baseline_completes "serial-steiner" Serial_steiner.strategy);
          Alcotest.test_case "tree-push single parent" `Quick
            test_tree_push_uses_tree_arcs_only;
          Alcotest.test_case "split-forest k=2" `Quick
            test_split_forest_stripes_disjoint_paths;
          Alcotest.test_case "split-forest k=1" `Quick
            test_split_forest_k1_equals_tree_discipline;
          Alcotest.test_case "fast-replica chunks" `Quick test_fast_replica_seeds_chunks;
        ] );
      ( "serial-steiner",
        [
          Alcotest.test_case "plan valid" `Quick test_serial_steiner_plan_valid;
          Alcotest.test_case "cheaper than flooding" `Quick
            test_serial_steiner_bandwidth_at_most_flooding;
          Alcotest.test_case "ub >= deficit" `Quick
            test_serial_steiner_bandwidth_geq_deficit;
          Alcotest.test_case "unsatisfiable raises" `Quick
            test_serial_steiner_unsatisfiable_raises;
        ] );
      ( "properties",
        [ qtest prop_baselines_complete; qtest prop_serial_steiner_is_pruned_tight ]
      );
    ]
