(* Tests for the extension modules: Maxflow, exact one-step
   feasibility through flow-step, Fairness, Codec, and §3.4's hybrid
   objective on [Search]. *)

open Ocd_prelude
open Ocd_core
open Ocd_graph

let qtest = QCheck_alcotest.to_alcotest

let mv src dst token = { Move.src; dst; token }

(* ------------------------------------------------------------------ *)
(* Maxflow                                                             *)
(* ------------------------------------------------------------------ *)

let test_maxflow_single_path () =
  let f = Maxflow.create ~node_count:3 in
  Maxflow.add_edge f ~src:0 ~dst:1 ~capacity:5;
  Maxflow.add_edge f ~src:1 ~dst:2 ~capacity:3;
  Alcotest.(check int) "bottleneck" 3 (Maxflow.max_flow f ~source:0 ~sink:2)

let test_maxflow_parallel_paths () =
  let f = Maxflow.create ~node_count:4 in
  Maxflow.add_edge f ~src:0 ~dst:1 ~capacity:2;
  Maxflow.add_edge f ~src:0 ~dst:2 ~capacity:3;
  Maxflow.add_edge f ~src:1 ~dst:3 ~capacity:2;
  Maxflow.add_edge f ~src:2 ~dst:3 ~capacity:3;
  Alcotest.(check int) "sum of paths" 5 (Maxflow.max_flow f ~source:0 ~sink:3)

let test_maxflow_needs_augmenting_path () =
  (* Classic diamond where a greedy first path must be partially
     undone through the residual arc. *)
  let f = Maxflow.create ~node_count:4 in
  Maxflow.add_edge f ~src:0 ~dst:1 ~capacity:1;
  Maxflow.add_edge f ~src:0 ~dst:2 ~capacity:1;
  Maxflow.add_edge f ~src:1 ~dst:2 ~capacity:1;
  Maxflow.add_edge f ~src:1 ~dst:3 ~capacity:1;
  Maxflow.add_edge f ~src:2 ~dst:3 ~capacity:1;
  Alcotest.(check int) "flow 2" 2 (Maxflow.max_flow f ~source:0 ~sink:3)

let test_maxflow_disconnected () =
  let f = Maxflow.create ~node_count:3 in
  Maxflow.add_edge f ~src:0 ~dst:1 ~capacity:4;
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow f ~source:0 ~sink:2)

let test_maxflow_flow_decomposition () =
  let f = Maxflow.create ~node_count:4 in
  Maxflow.add_edge f ~src:0 ~dst:1 ~capacity:2;
  Maxflow.add_edge f ~src:1 ~dst:3 ~capacity:2;
  Maxflow.add_edge f ~src:0 ~dst:2 ~capacity:1;
  Maxflow.add_edge f ~src:2 ~dst:3 ~capacity:1;
  let total = Maxflow.max_flow f ~source:0 ~sink:3 in
  Alcotest.(check int) "flow 3" 3 total;
  let flows = Maxflow.flow_on_edges f in
  (* conservation at inner nodes *)
  let inflow v =
    List.fold_left (fun a (_, d, fl) -> if d = v then a + fl else a) 0 flows
  in
  let outflow v =
    List.fold_left (fun a (s, _, fl) -> if s = v then a + fl else a) 0 flows
  in
  Alcotest.(check int) "conservation at 1" (inflow 1) (outflow 1);
  Alcotest.(check int) "conservation at 2" (inflow 2) (outflow 2);
  Alcotest.(check int) "source outflow" total (outflow 0)

let test_maxflow_invalid () =
  let f = Maxflow.create ~node_count:2 in
  Alcotest.check_raises "range"
    (Invalid_argument "Maxflow.add_edge: node out of range") (fun () ->
      Maxflow.add_edge f ~src:0 ~dst:2 ~capacity:1);
  Alcotest.check_raises "source=sink"
    (Invalid_argument "Maxflow.max_flow: source = sink") (fun () ->
      ignore (Maxflow.max_flow f ~source:0 ~sink:0))

(* Property: max flow on random unit-capacity DAGs equals the number
   of arc-disjoint paths, which is at most min(outdeg(s), indeg(t)). *)
let prop_maxflow_bounded_by_degree_cut =
  QCheck.Test.make ~name:"maxflow bounded by source/sink degree cuts" ~count:80
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 4 + Prng.int rng 6 in
      let f = Maxflow.create ~node_count:n in
      let out0 = ref 0 and into_sink = ref 0 in
      let sink = n - 1 in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Prng.bernoulli rng 0.5 then begin
            let c = 1 + Prng.int rng 4 in
            Maxflow.add_edge f ~src:u ~dst:v ~capacity:c;
            if u = 0 then out0 := !out0 + c;
            if v = sink then into_sink := !into_sink + c
          end
        done
      done;
      let flow = Maxflow.max_flow f ~source:0 ~sink in
      flow >= 0 && flow <= min !out0 !into_sink)

(* ------------------------------------------------------------------ *)
(* Exact one-step feasibility, through flow-step                      *)
(* ------------------------------------------------------------------ *)

(* Flow-step solves each receiver's token-to-in-arc assignment as a
   bipartite max-flow, and every in-arc serves one receiver, so its
   first step meets every deficit exactly when some single step can. *)
let finishes_in_one_step inst =
  let run =
    Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Flow_step.strategy ~seed:1
      inst
  in
  run.Ocd_engine.Engine.metrics.Metrics.makespan <= 1

let test_one_step_exact_gap () =
  (* Tokens 0 and 1 are both only behind a capacity-1 arc: the
     aggregate check passes but the exact assignment cannot. *)
  let graph =
    Digraph.of_arcs ~vertex_count:4
      [
        { Digraph.src = 1; dst = 0; capacity = 1 };
        { Digraph.src = 2; dst = 0; capacity = 5 };
        { Digraph.src = 3; dst = 0; capacity = 5 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:3
      ~have:[ (1, [ 0; 1 ]); (2, [ 2 ]); (3, [ 2 ]) ]
      ~want:[ (0, [ 0; 1; 2 ]) ]
  in
  Alcotest.(check bool) "aggregate check passes" true
    (Bounds.one_step_feasible inst ~have:inst.Instance.have);
  Alcotest.(check bool) "exact check refutes" false (finishes_in_one_step inst)

let test_one_step_exact_feasible () =
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 1; dst = 0; capacity = 1 };
        { Digraph.src = 2; dst = 0; capacity = 1 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:2
      ~have:[ (1, [ 0; 1 ]); (2, [ 1 ]) ]
      ~want:[ (0, [ 0; 1 ]) ]
  in
  Alcotest.(check bool) "assignable" true (finishes_in_one_step inst)

let test_one_step_exact_satisfied () =
  let graph = Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check bool) "vacuously true" true (finishes_in_one_step inst)

let prop_one_step_exact_implies_feasible =
  QCheck.Test.make ~name:"one_step_exact implies one_step_feasible" ~count:60
    QCheck.(int_range 0 3_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 4 + Prng.int rng 8 in
      let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.4 () in
      let tokens = 1 + Prng.int rng 5 in
      let inst =
        (Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance
      in
      (not (finishes_in_one_step inst))
      || Bounds.one_step_feasible inst ~have:inst.Instance.have)

(* ------------------------------------------------------------------ *)
(* Fairness                                                            *)
(* ------------------------------------------------------------------ *)

let line_instance () =
  let graph =
    Digraph.of_arcs ~vertex_count:3
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 1; dst = 2; capacity = 2 };
      ]
  in
  Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
    ~want:[ (2, [ 0; 1 ]) ]

let test_fairness_counts () =
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 1 2 0; mv 1 2 1 ] ] in
  let f = Fairness.of_schedule (line_instance ()) s in
  Alcotest.(check (array int)) "uploads" [| 2; 2; 0 |] f.Fairness.uploads;
  Alcotest.(check (array int)) "downloads" [| 0; 2; 2 |] f.Fairness.downloads;
  Alcotest.(check (float 1e-9)) "relay ratio" 1.0
    (Fairness.contribution_ratio f 1);
  Alcotest.(check (float 1e-9)) "leech ratio" 0.0
    (Fairness.contribution_ratio f 2);
  Alcotest.(check bool) "source ratio infinite" true
    (Fairness.contribution_ratio f 0 = infinity)

let test_fairness_jain_perfect () =
  (* Two participants with equal uploads: index 1. *)
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1 ]; [ mv 1 2 0; mv 1 2 1 ] ] in
  let graph =
    Digraph.of_arcs ~vertex_count:4
      [
        { Digraph.src = 0; dst = 1; capacity = 2 };
        { Digraph.src = 1; dst = 2; capacity = 2 };
        { Digraph.src = 2; dst = 3; capacity = 2 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (3, [ 0; 1 ]) ]
  in
  let s = Schedule.of_steps (Schedule.steps s @ [ [ mv 2 3 0; mv 2 3 1 ] ]) in
  let f = Fairness.of_schedule inst s in
  (* participants (downloaders) are 1, 2, 3 with uploads 2, 2, 0:
     (2+2+0)² / (3·(4+4+0)) = 2/3 *)
  Alcotest.(check (float 1e-9)) "jain over participants" (2.0 /. 3.0)
    f.Fairness.jain_index

let test_fairness_jain_skewed () =
  (* One relay does all the work, the other none: index = 1/2. *)
  let graph =
    Digraph.of_arcs ~vertex_count:4
      [
        { Digraph.src = 0; dst = 1; capacity = 4 };
        { Digraph.src = 0; dst = 2; capacity = 4 };
        { Digraph.src = 1; dst = 3; capacity = 4 };
        { Digraph.src = 2; dst = 3; capacity = 4 };
      ]
  in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (3, [ 0; 1 ]); (1, [ 0; 1 ]); (2, [ 0; 1 ]) ]
  in
  let s =
    Schedule.of_steps
      [
        [ mv 0 1 0; mv 0 1 1; mv 0 2 0; mv 0 2 1 ];
        [ mv 1 3 0; mv 1 3 1 ];
      ]
  in
  let f = Fairness.of_schedule inst s in
  Alcotest.(check (float 1e-9)) "jain = (2+0+0)^2/(3*4)... participants 1,2,3"
    (4.0 /. (3.0 *. 4.0))
    f.Fairness.jain_index

let prop_fairness_jain_in_range =
  QCheck.Test.make ~name:"jain index within (0, 1]" ~count:40
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:15 ~p:0.4 () in
      let inst = (Scenario.single_file rng ~graph:g ~tokens:5 ()).Scenario.instance in
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Random_push.strategy
             ~seed inst)
      in
      let f = Fairness.of_schedule inst run.Ocd_engine.Engine.schedule in
      f.Fairness.jain_index > 0.0 && f.Fairness.jain_index <= 1.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_instance_roundtrip () =
  let inst = line_instance () in
  match Codec.instance_of_string (Codec.instance_to_string inst) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok inst' ->
    Alcotest.(check int) "vertices" (Instance.vertex_count inst)
      (Instance.vertex_count inst');
    Alcotest.(check int) "tokens" inst.Instance.token_count
      inst'.Instance.token_count;
    Alcotest.(check bool) "same haves" true
      (Array.for_all2 Bitset.equal inst.Instance.have inst'.Instance.have);
    Alcotest.(check bool) "same wants" true
      (Array.for_all2 Bitset.equal inst.Instance.want inst'.Instance.want);
    Alcotest.(check bool) "same arcs" true
      (Digraph.arcs inst.Instance.graph = Digraph.arcs inst'.Instance.graph)

let test_codec_schedule_roundtrip () =
  let s = Schedule.of_steps [ [ mv 0 1 0; mv 0 1 1 ]; []; [ mv 1 2 0 ] ] in
  match Codec.schedule_of_string (Codec.schedule_to_string s) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok s' ->
    Alcotest.(check bool) "steps preserved (incl. empty)" true
      (Schedule.steps s = Schedule.steps s')

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "bad header" true
    (Result.is_error (Codec.instance_of_string "nonsense"));
  Alcotest.(check bool) "bad arc" true
    (Result.is_error (Codec.instance_of_string "instance 2 1\narc 0 1\n"));
  Alcotest.(check bool) "bad move" true
    (Result.is_error (Codec.schedule_of_string "schedule\nstep 0-1:2\n"));
  Alcotest.(check bool) "orphan token rejected" true
    (Result.is_error
       (Codec.instance_of_string "instance 2 1\narc 0 1 1\nwant 1 0\n"))

(* Fuzz: the decoders reject arbitrary garbage with Error, never an
   exception. *)
let prop_codec_never_raises =
  QCheck.Test.make ~name:"codec decoders never raise on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
    (fun s ->
      (match Codec.instance_of_string s with Ok _ | Error _ -> true)
      && (match Codec.schedule_of_string s with Ok _ | Error _ -> true))

(* Fuzz with plausible-looking headers so the line parsers get
   exercised past the header check. *)
let structured_garbage_gen =
  QCheck.Gen.(
    let* body =
      list_size (int_range 0 8)
        (oneof
           [
             return "arc 0 1 1";
             return "arc x y z";
             return "have 0 0";
             return "want 9 9";
             return "arc 0 0 1";
             return "arc 0 1 -3";
             return "unknown stuff";
             return "have";
           ])
    in
    return ("instance 2 1\n" ^ String.concat "\n" body))

let prop_codec_structured_garbage =
  QCheck.Test.make ~name:"codec survives structured garbage" ~count:200
    (QCheck.make structured_garbage_gen) (fun s ->
      match Codec.instance_of_string s with Ok _ | Error _ -> true)

let prop_codec_roundtrip_random =
  QCheck.Test.make ~name:"codec roundtrips random instances & schedules"
    ~count:30
    QCheck.(int_range 0 2_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:12 ~p:0.4 () in
      let inst = (Scenario.single_file rng ~graph:g ~tokens:4 ()).Scenario.instance in
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy
             ~seed inst)
      in
      let s = run.Ocd_engine.Engine.schedule in
      match
        ( Codec.instance_of_string (Codec.instance_to_string inst),
          Codec.schedule_of_string (Codec.schedule_to_string s) )
      with
      | Ok inst', Ok s' ->
        Schedule.steps s = Schedule.steps s'
        && Validate.check_successful inst' s' = Ok ()
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Hybrid objectives (§3.4): bandwidth subject to a time bound         *)
(* ------------------------------------------------------------------ *)

(* §3.4's closing hybrid goal is [Search.eocd ~horizon]: the minimum
   bandwidth among schedules of at most [horizon] steps.  Figure 1's
   table prints the same two rows. *)
let test_hybrid_bandwidth_subject_to_time () =
  let inst = Figure1.instance () in
  (match Ocd_exact.Search.eocd ~horizon:2 inst with
  | Ocd_exact.Search.Solved { objective; schedule } ->
    Alcotest.(check bool) "within optimal time" true
      (Schedule.length schedule <= 2);
    Alcotest.(check int) "bw at time-opt" 5 objective;
    Alcotest.(check bool) "valid" true
      (Validate.check_successful inst schedule = Ok ())
  | _ -> Alcotest.fail "expected solved");
  match Ocd_exact.Search.eocd ~horizon:3 inst with
  | Ocd_exact.Search.Solved { objective; schedule } ->
    Alcotest.(check int) "bw with 1.5x slack" 4 objective;
    Alcotest.(check bool) "time within slack" true
      (Schedule.length schedule <= 3)
  | _ -> Alcotest.fail "expected solved"

let test_hybrid_unsatisfiable () =
  let graph =
    Digraph.of_arcs ~vertex_count:2 [ { Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (1, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  Alcotest.(check bool) "unsat" true
    (Ocd_exact.Search.eocd ~horizon:2 inst = Ocd_exact.Search.Unsatisfiable)

let () =
  Alcotest.run "ocd_extensions"
    [
      ( "maxflow",
        [
          Alcotest.test_case "single path" `Quick test_maxflow_single_path;
          Alcotest.test_case "parallel paths" `Quick test_maxflow_parallel_paths;
          Alcotest.test_case "augmenting path" `Quick
            test_maxflow_needs_augmenting_path;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "flow decomposition" `Quick
            test_maxflow_flow_decomposition;
          Alcotest.test_case "invalid args" `Quick test_maxflow_invalid;
          qtest prop_maxflow_bounded_by_degree_cut;
        ] );
      ( "one-step-exact",
        [
          Alcotest.test_case "matching gap" `Quick test_one_step_exact_gap;
          Alcotest.test_case "feasible assignment" `Quick
            test_one_step_exact_feasible;
          Alcotest.test_case "satisfied" `Quick test_one_step_exact_satisfied;
          qtest prop_one_step_exact_implies_feasible;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "counts & ratios" `Quick test_fairness_counts;
          Alcotest.test_case "jain perfect" `Quick test_fairness_jain_perfect;
          Alcotest.test_case "jain skewed" `Quick test_fairness_jain_skewed;
          qtest prop_fairness_jain_in_range;
        ] );
      ( "codec",
        [
          Alcotest.test_case "instance roundtrip" `Quick
            test_codec_instance_roundtrip;
          Alcotest.test_case "schedule roundtrip" `Quick
            test_codec_schedule_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          qtest prop_codec_never_raises;
          qtest prop_codec_structured_garbage;
          qtest prop_codec_roundtrip_random;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "bandwidth s.t. time" `Quick
            test_hybrid_bandwidth_subject_to_time;
          Alcotest.test_case "unsatisfiable" `Quick test_hybrid_unsatisfiable;
        ] );
    ]
