(* Tests for ocd_underlay. *)

open Ocd_prelude
open Ocd_core
open Ocd_graph
open Ocd_underlay.Underlay

let qtest = QCheck_alcotest.to_alcotest

(* A tiny explicit underlay: physical path r0 - r1 - r2 (caps 2);
   overlay vertices A,B,C hosted at r0, r2, r0 respectively, overlay
   arcs A->B and C->B both routed over the same physical path. *)
let physical () =
  Digraph.of_edges ~vertex_count:3 [ (0, 1, 2); (1, 2, 2) ]

let overlay () =
  Digraph.of_arcs ~vertex_count:3
    [
      { Digraph.src = 0; dst = 1; capacity = 2 };
      { Digraph.src = 2; dst = 1; capacity = 2 };
    ]

let shared () =
  build ~physical:(physical ()) ~host_of:[| 0; 2; 0 |] ~overlay:(overlay ())

(* The ids of the physical links carrying overlay arc [(src, dst)]. *)
let route t ~src ~dst = t.route.(Digraph.slot t.overlay src dst)

let test_build_paths () =
  let t = shared () in
  let link a b = Digraph.slot t.physical a b in
  Alcotest.(check (array int)) "A->B path" [| link 0 1; link 1 2 |]
    (route t ~src:0 ~dst:1);
  Alcotest.(check (array int)) "C->B path" [| link 0 1; link 1 2 |]
    (route t ~src:2 ~dst:1)

let test_link_stress () =
  (* Overlay demands 2 + 2 = 4 through physical capacity 2 → 2.0. *)
  Alcotest.(check (float 1e-9)) "stress" 2.0 (max_link_stress (shared ()))

let test_same_host_zero_path () =
  let physical = Digraph.of_edges ~vertex_count:2 [ (0, 1, 3) ] in
  let overlay =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let t = build ~physical ~host_of:[| 0; 0 |] ~overlay in
  Alcotest.(check (array int)) "colocated = no links" [||]
    (route t ~src:0 ~dst:1)

let test_build_unroutable () =
  let physical = Digraph.of_arcs ~vertex_count:2 [] in
  let overlay =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (build ~physical ~host_of:[| 0; 1 |] ~overlay);
       false
     with Invalid_argument _ -> true)

let test_run_contention_slows () =
  (* Both overlay arcs want to push 2 tokens/step, but the shared
     physical path only carries 2 total: a schedule that would take
     ceil(4/2)=2 steps on the overlay needs more under the underlay. *)
  let t = shared () in
  let inst =
    Instance.make ~graph:(overlay ()) ~token_count:4
      ~have:[ (0, [ 0; 1 ]); (2, [ 2; 3 ]) ]
      ~want:[ (1, [ 0; 1; 2; 3 ]) ]
  in
  let strategy = Ocd_heuristics.Local_rarest.strategy in
  let overlay_run =
    Ocd_engine.Engine.completed_exn
      (Ocd_engine.Engine.run ~strategy ~seed:3 inst)
  in
  let under = run t ~strategy ~seed:3 inst in
  Alcotest.(check bool) "completes" true
    (under.outcome = Ocd_engine.Engine.Completed);
  Alcotest.(check bool) "dropped some" true (under.dropped_moves > 0);
  Alcotest.(check bool) "strictly slower than overlay-only" true
    (under.metrics.Metrics.makespan
    > overlay_run.Ocd_engine.Engine.metrics.Metrics.makespan);
  Alcotest.(check bool) "schedule valid on overlay" true
    (Validate.check_successful inst under.schedule = Ok ())

let test_run_no_contention_equals_engine () =
  (* Disjoint physical paths: the underlay never binds. *)
  let physical = Digraph.of_edges ~vertex_count:4 [ (0, 1, 9); (2, 3, 9) ] in
  let overlay =
    Digraph.of_arcs ~vertex_count:4
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 2; dst = 3; capacity = 2 };
      ]
  in
  let t = build ~physical ~host_of:[| 0; 1; 2; 3 |] ~overlay in
  let inst =
    Instance.make ~graph:overlay ~token_count:2
      ~have:[ (0, [ 0; 1 ]); (2, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]); (3, [ 0; 1 ]) ]
  in
  let strategy = Ocd_heuristics.Local_rarest.strategy in
  let plain = Ocd_engine.Engine.run ~strategy ~seed:5 inst in
  let under = run t ~strategy ~seed:5 inst in
  Alcotest.(check int) "no drops" 0 under.dropped_moves;
  Alcotest.(check bool) "same schedule" true
    (Schedule.steps plain.Ocd_engine.Engine.schedule = Schedule.steps under.schedule)

let test_run_rejects_other_graph () =
  (* Same arc count, different arcs: overlay path 0-1-2, instance path
     0-2-1. *)
  let overlay = Digraph.of_edges ~vertex_count:3 [ (0, 1, 1); (1, 2, 1) ] in
  let t = build ~physical:overlay ~host_of:[| 0; 1; 2 |] ~overlay in
  let inst =
    Instance.make
      ~graph:(Digraph.of_edges ~vertex_count:3 [ (0, 2, 1); (2, 1, 1) ])
      ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (1, [ 0 ]); (2, [ 0 ]) ]
  in
  Alcotest.(check bool) "raises Invalid_argument" true
    (try
       ignore
         (run t ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:1 inst);
       false
     with Invalid_argument _ -> true)

let test_map_onto_transit_stub () =
  let rng = Prng.create ~seed:9 in
  let overlay = Ocd_topology.Random_graph.erdos_renyi rng ~n:30 ~p:0.3 () in
  let t = map_onto_transit_stub rng ~overlay () in
  (* every overlay arc routed: overlay vertices sit on distinct hosts *)
  Alcotest.(check bool) "every arc routed" true
    (Array.length t.route = Digraph.arc_count overlay
    && Array.for_all (fun links -> Array.length links > 0) t.route);
  Alcotest.(check bool) "stress computed" true (max_link_stress t > 0.0)

let prop_underlay_runs_complete =
  QCheck.Test.make ~name:"underlay runs complete and stay overlay-valid"
    ~count:15
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let overlay = Ocd_topology.Random_graph.erdos_renyi rng ~n:20 ~p:0.35 () in
      let t = map_onto_transit_stub rng ~overlay () in
      let inst =
        (Scenario.single_file rng ~graph:overlay ~tokens:6 ()).Scenario.instance
      in
      let r =
        run t ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:(seed + 1)
          inst
      in
      r.outcome = Ocd_engine.Engine.Completed
      && Validate.check_successful inst r.schedule = Ok ())

(* Each slot's route against the per-arc search it replaced: a full
   [Paths.dijkstra] from the arc's source host, walked back from its
   destination host.  Hosts are drawn with repetition, so colocated
   overlay vertices and shared source hosts both occur. *)
let prop_routes_match_per_arc_dijkstra =
  QCheck.Test.make ~name:"slot routes = per-arc dijkstra walks" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let physical =
        Ocd_topology.Random_graph.erdos_renyi rng ~n:(4 + Prng.int rng 20) ()
      in
      let overlay =
        Ocd_topology.Random_graph.erdos_renyi rng ~n:(2 + Prng.int rng 12)
          ~p:0.4 ()
      in
      let hosts = Digraph.vertex_count physical in
      let host_of =
        Array.init (Digraph.vertex_count overlay) (fun _ -> Prng.int rng hosts)
      in
      let t = build ~physical ~host_of ~overlay in
      let expected { Digraph.src; dst; _ } =
        let s = host_of.(src) and d = host_of.(dst) in
        let _, parent = Paths.dijkstra physical ~cost:(fun _ _ -> 1) s in
        let rec walk v acc =
          if v = s then acc
          else walk parent.(v) (Digraph.slot physical parent.(v) v :: acc)
        in
        Array.of_list (walk d [])
      in
      List.for_all2
        (fun arc links -> expected arc = links)
        (Digraph.arcs overlay) (Array.to_list t.route))

let () =
  Alcotest.run "ocd_underlay"
    [
      ( "underlay",
        [
          Alcotest.test_case "routes paths" `Quick test_build_paths;
          Alcotest.test_case "link stress" `Quick test_link_stress;
          Alcotest.test_case "colocated hosts" `Quick test_same_host_zero_path;
          Alcotest.test_case "unroutable rejected" `Quick test_build_unroutable;
          Alcotest.test_case "contention slows" `Quick test_run_contention_slows;
          Alcotest.test_case "no contention = engine" `Quick
            test_run_no_contention_equals_engine;
          Alcotest.test_case "other graph rejected" `Quick
            test_run_rejects_other_graph;
          Alcotest.test_case "transit-stub mapping" `Quick
            test_map_onto_transit_stub;
          qtest prop_underlay_runs_complete;
          qtest prop_routes_match_per_arc_dijkstra;
        ] );
    ]
