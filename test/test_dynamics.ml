(* Tests for ocd_dynamics: Condition, Dynamic_engine. *)

open Ocd_prelude
open Ocd_core
open Ocd_dynamics

let qtest = QCheck_alcotest.to_alcotest

let single_file ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.single_file rng ~graph:g ~tokens ~source:0 ()).Scenario.instance

(* ------------------------------------------------------------------ *)
(* Condition                                                           *)
(* ------------------------------------------------------------------ *)

let test_static_identity () =
  for step = 0 to 10 do
    Alcotest.(check int) "identity" 7
      (Condition.effective Condition.static ~step ~src:1 ~dst:2 ~base:7)
  done

let test_cross_traffic_extremes () =
  let all_down = Condition.cross_traffic ~seed:1 ~prob:1.0 ~severity:1.0 in
  Alcotest.(check int) "severity 1 kills" 0
    (Condition.effective all_down ~step:3 ~src:0 ~dst:1 ~base:9);
  let untouched = Condition.cross_traffic ~seed:1 ~prob:0.0 ~severity:0.9 in
  Alcotest.(check int) "prob 0 never fires" 9
    (Condition.effective untouched ~step:3 ~src:0 ~dst:1 ~base:9);
  let halved = Condition.cross_traffic ~seed:1 ~prob:1.0 ~severity:0.5 in
  Alcotest.(check int) "halved" 4
    (Condition.effective halved ~step:3 ~src:0 ~dst:1 ~base:9)

let test_cross_traffic_deterministic () =
  let c1 = Condition.cross_traffic ~seed:5 ~prob:0.5 ~severity:0.5 in
  let c2 = Condition.cross_traffic ~seed:5 ~prob:0.5 ~severity:0.5 in
  for step = 0 to 20 do
    Alcotest.(check int) "same trajectory"
      (Condition.effective c1 ~step ~src:2 ~dst:7 ~base:10)
      (Condition.effective c2 ~step ~src:2 ~dst:7 ~base:10)
  done

let test_link_flaps_start_up () =
  let c = Condition.link_flaps ~seed:2 ~down_prob:0.5 ~up_prob:0.5 in
  Alcotest.(check int) "step 0 up" 6
    (Condition.effective c ~step:0 ~src:0 ~dst:1 ~base:6)

let test_link_flaps_never_down () =
  let c = Condition.link_flaps ~seed:2 ~down_prob:0.0 ~up_prob:1.0 in
  for step = 0 to 30 do
    Alcotest.(check int) "always up" 6
      (Condition.effective c ~step ~src:0 ~dst:1 ~base:6)
  done

let test_link_flaps_order_independent () =
  (* Querying step 9 before step 4 must agree with sequential
     queries. *)
  let c1 = Condition.link_flaps ~seed:3 ~down_prob:0.4 ~up_prob:0.4 in
  let late_first = Condition.effective c1 ~step:9 ~src:1 ~dst:2 ~base:5 in
  let c2 = Condition.link_flaps ~seed:3 ~down_prob:0.4 ~up_prob:0.4 in
  for step = 0 to 8 do
    ignore (Condition.effective c2 ~step ~src:1 ~dst:2 ~base:5)
  done;
  Alcotest.(check int) "order independent" late_first
    (Condition.effective c2 ~step:9 ~src:1 ~dst:2 ~base:5)

let test_churn_protects_sources () =
  let c =
    Condition.churn ~seed:4 ~protected:[ 0 ] ~leave_prob:1.0 ~return_prob:0.0
  in
  (* Vertex 0 never leaves, everyone else leaves at step 1 and never
     returns: arcs between 0 and a departed vertex are down. *)
  Alcotest.(check int) "step 0 everyone present" 5
    (Condition.effective c ~step:0 ~src:0 ~dst:1 ~base:5);
  Alcotest.(check int) "step 2: 1 is gone" 0
    (Condition.effective c ~step:2 ~src:0 ~dst:1 ~base:5)

let prop_churn_protected_invariant =
  (* Arcs between two protected vertices never lose capacity, under any
     churn parameters: protected vertices are never away, and churn
     touches nothing but presence. *)
  QCheck.Test.make ~name:"churn never touches protected-to-protected arcs"
    ~count:100
    QCheck.(triple small_nat (int_range 0 100) (int_range 0 100))
    (fun (seed, leave_pct, return_pct) ->
      let leave_prob = float_of_int leave_pct /. 100.0 in
      let return_prob = float_of_int return_pct /. 100.0 in
      let c =
        Condition.churn ~seed ~protected:[ 0; 1 ] ~leave_prob ~return_prob
      in
      List.for_all
        (fun step -> Condition.effective c ~step ~src:0 ~dst:1 ~base:4 = 4)
        [ 0; 1; 2; 5; 13; 40 ])

let test_churn_unprotected_eventually_departs () =
  let c =
    Condition.churn ~seed:4 ~protected:[] ~leave_prob:0.5 ~return_prob:0.1
  in
  let ever_down = ref false in
  for step = 0 to 50 do
    if Condition.effective c ~step ~src:2 ~dst:3 ~base:4 = 0 then
      ever_down := true
  done;
  Alcotest.(check bool) "unprotected vertices do churn" true !ever_down

let test_graph_at () =
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 4); (1, 2, 4) ] in
  (match Condition.graph_at Condition.static ~step:0 g with
  | Some g' ->
    Alcotest.(check int) "same arcs" (Ocd_graph.Digraph.arc_count g)
      (Ocd_graph.Digraph.arc_count g')
  | None -> Alcotest.fail "static cannot be empty");
  let killer = Condition.cross_traffic ~seed:1 ~prob:1.0 ~severity:1.0 in
  Alcotest.(check bool) "all down -> None" true
    (Condition.graph_at killer ~step:0 g = None)

let test_graph_at_none_only_when_all_down () =
  (* graph_at is None exactly when every arc's effective capacity is 0;
     a partially degraded step yields Some g' containing exactly the
     live arcs at their effective capacities. *)
  let g =
    Ocd_graph.Digraph.of_edges ~vertex_count:4 [ (0, 1, 4); (1, 2, 4); (2, 3, 4) ]
  in
  let c = Condition.link_flaps ~seed:17 ~down_prob:0.4 ~up_prob:0.4 in
  let arcs = Ocd_graph.Digraph.arcs g in
  for step = 0 to 40 do
    let live =
      List.filter_map
        (fun (a : Ocd_graph.Digraph.arc) ->
          let eff =
            Condition.effective c ~step ~src:a.Ocd_graph.Digraph.src
              ~dst:a.Ocd_graph.Digraph.dst ~base:a.Ocd_graph.Digraph.capacity
          in
          if eff > 0 then Some (a.Ocd_graph.Digraph.src, a.Ocd_graph.Digraph.dst, eff)
          else None)
        arcs
    in
    match Condition.graph_at c ~step g with
    | None ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "step %d: None iff no live arcs" step)
        [] live
    | Some g' ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d: Some implies live arcs" step)
        true (live <> []);
      Alcotest.(check int)
        (Printf.sprintf "step %d: arc count" step)
        (List.length live)
        (Ocd_graph.Digraph.arc_count g');
      List.iter
        (fun (src, dst, eff) ->
          Alcotest.(check int)
            (Printf.sprintf "step %d: capacity of %d->%d" step src dst)
            eff
            (Ocd_graph.Digraph.capacity g' src dst))
        live
  done

let test_condition_invalid_params () =
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Condition.cross_traffic: parameters out of [0,1]")
    (fun () -> ignore (Condition.cross_traffic ~seed:1 ~prob:1.5 ~severity:0.5))

(* ------------------------------------------------------------------ *)
(* Dynamic_engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_dynamic_static_equals_engine () =
  let inst = single_file ~seed:50 ~n:20 ~tokens:8 in
  List.iter
    (fun strategy ->
      let static_run = Ocd_engine.Engine.run ~strategy ~seed:9 inst in
      let dynamic_run =
        Dynamic_engine.run ~condition:Condition.static ~strategy ~seed:9 inst
      in
      Alcotest.(check bool)
        (strategy.Ocd_engine.Strategy.name ^ " schedules identical")
        true
        (Schedule.steps static_run.Ocd_engine.Engine.schedule
        = Schedule.steps dynamic_run.Dynamic_engine.schedule);
      Alcotest.(check int)
        (strategy.Ocd_engine.Strategy.name ^ " no drops")
        0 dynamic_run.Dynamic_engine.dropped_moves)
    Ocd_heuristics.Registry.all

let test_dynamic_all_down_stalls () =
  let inst = single_file ~seed:51 ~n:10 ~tokens:4 in
  let condition = Condition.cross_traffic ~seed:1 ~prob:1.0 ~severity:1.0 in
  let run =
    Dynamic_engine.run ~stall_patience:10
      ~condition ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:9 inst
  in
  (match run.Dynamic_engine.outcome with
  | Ocd_engine.Engine.Stalled _ -> ()
  | _ -> Alcotest.fail "expected stall under a dead network")

let test_dynamic_degraded_still_completes () =
  let inst = single_file ~seed:52 ~n:25 ~tokens:10 in
  let condition = Condition.cross_traffic ~seed:7 ~prob:0.5 ~severity:0.5 in
  List.iter
    (fun strategy ->
      let run = Dynamic_engine.run ~condition ~strategy ~seed:9 inst in
      Alcotest.(check bool)
        (strategy.Ocd_engine.Strategy.name ^ " completes under cross traffic")
        true
        (run.Dynamic_engine.outcome = Ocd_engine.Engine.Completed);
      Alcotest.(check bool)
        (strategy.Ocd_engine.Strategy.name ^ " schedule valid statically")
        true
        (Validate.check_successful inst run.Dynamic_engine.schedule = Ok ()))
    Ocd_heuristics.Registry.all

let test_dynamic_degradation_slows () =
  (* On a capacity-limited path, halving capacities must increase the
     makespan. *)
  let graph =
    Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 2); (1, 2, 2) ]
  in
  let inst =
    Instance.make ~graph ~token_count:8
      ~have:[ (0, List.init 8 Fun.id) ]
      ~want:[ (2, List.init 8 Fun.id) ]
  in
  let strategy = Ocd_heuristics.Local_rarest.strategy in
  let static_run = Ocd_engine.Engine.run ~strategy ~seed:3 inst in
  let condition = Condition.cross_traffic ~seed:1 ~prob:1.0 ~severity:0.5 in
  let slow_run = Dynamic_engine.run ~condition ~strategy ~seed:3 inst in
  Alcotest.(check bool) "completed" true
    (slow_run.Dynamic_engine.outcome = Ocd_engine.Engine.Completed);
  Alcotest.(check bool) "slower than static" true
    (slow_run.Dynamic_engine.metrics.Metrics.makespan
    > static_run.Ocd_engine.Engine.metrics.Metrics.makespan)

let test_dynamic_churn_completes () =
  let inst = single_file ~seed:53 ~n:20 ~tokens:6 in
  let condition =
    Condition.churn ~seed:11 ~protected:[ 0 ] ~leave_prob:0.05
      ~return_prob:0.5
  in
  let run =
    Dynamic_engine.run ~condition
      ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:9 inst
  in
  Alcotest.(check bool) "completes under churn" true
    (run.Dynamic_engine.outcome = Ocd_engine.Engine.Completed)

let test_dynamic_deterministic () =
  let inst = single_file ~seed:54 ~n:15 ~tokens:5 in
  let condition () = Condition.link_flaps ~seed:13 ~down_prob:0.2 ~up_prob:0.6 in
  let r1 =
    Dynamic_engine.run ~condition:(condition ())
      ~strategy:Ocd_heuristics.Random_push.strategy ~seed:2 inst
  in
  let r2 =
    Dynamic_engine.run ~condition:(condition ())
      ~strategy:Ocd_heuristics.Random_push.strategy ~seed:2 inst
  in
  Alcotest.(check bool) "same schedule" true
    (Schedule.steps r1.Dynamic_engine.schedule
    = Schedule.steps r2.Dynamic_engine.schedule);
  Alcotest.(check int) "same drops" r1.Dynamic_engine.dropped_moves
    r2.Dynamic_engine.dropped_moves

let prop_dynamic_schedules_statically_valid =
  QCheck.Test.make
    ~name:"dynamic schedules are always valid static §3.1 schedules" ~count:25
    QCheck.(pair (int_range 0 1_000) (int_range 8 20))
    (fun (seed, n) ->
      let inst = single_file ~seed ~n ~tokens:5 in
      let condition =
        Condition.link_flaps ~seed:(seed + 1) ~down_prob:0.15 ~up_prob:0.5
      in
      let run =
        Dynamic_engine.run ~condition
          ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:(seed + 2) inst
      in
      match run.Dynamic_engine.outcome with
      | Ocd_engine.Engine.Completed ->
        Validate.check_successful inst run.Dynamic_engine.schedule = Ok ()
      | _ -> Validate.check inst run.Dynamic_engine.schedule = Ok ())

(* The tuple-keyed memo [Condition.chain] used before its keys were
   packed into one int, kept verbatim as the differential oracle. *)
let coin = Condition.keyed_coin

let chain_oracle ~seed ~down_prob ~up_prob =
  if down_prob < 0.0 || down_prob > 1.0 || up_prob < 0.0 || up_prob > 1.0 then
    invalid_arg "Condition.chain: probabilities out of [0,1]";
  let runs : (int * int, Int_vec.t) Hashtbl.t = Hashtbl.create 64 in
  fun ~b ~c ~step ->
    if step <= 0 then -1
    else begin
      let states =
        match Hashtbl.find_opt runs (b, c) with
        | Some states -> states
        | None ->
            let states = Int_vec.create () in
            Int_vec.push states (-1);
            Hashtbl.add runs (b, c) states;
            states
      in
      for r = Int_vec.length states to step do
        let prev = Int_vec.get states (r - 1) in
        let x = coin ~seed ~a:r ~b ~c in
        Int_vec.push states
          (if prev < 0 then if x < down_prob then r else -1
           else if x < up_prob then -1
           else prev)
      done;
      Int_vec.get states step
    end

let key_max = (1 lsl 31) - 4

(* Random queries in a random order over arc keys (src, dst), the
   reserved churn, crash and partition keys (v, -1), (v, -2) and
   (-1, -3), and the ends of the packable range. *)
let prop_chain_matches_oracle =
  QCheck.Test.make ~name:"chain = tuple-keyed oracle" ~count:50
    QCheck.(pair small_nat (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (seed, (down_prob, up_prob)) ->
      let rng = Prng.create ~seed in
      let fast = Condition.chain ~seed ~down_prob ~up_prob in
      let slow = chain_oracle ~seed ~down_prob ~up_prob in
      let key () =
        let v = Prng.int rng 12 in
        match Prng.int rng 6 with
        | 0 -> (v, -1)
        | 1 -> (v, -2)
        | 2 -> (-1, -3)
        | 3 -> (key_max - v, -3 + Prng.int rng 3)
        | _ -> (v, Prng.int rng 12)
      in
      List.for_all
        (fun _ ->
          let b, c = key () and step = Prng.int rng 300 - 5 in
          fast ~b ~c ~step = slow ~b ~c ~step)
        (List.init 2000 Fun.id))

let test_chain_key_range () =
  let chain = Condition.chain ~seed:3 ~down_prob:0.5 ~up_prob:0.5 in
  let out_of_range = Invalid_argument "Condition.chain: key out of range" in
  List.iter
    (fun (b, c) ->
      Alcotest.check_raises
        (Printf.sprintf "(%d, %d) rejected" b c)
        out_of_range
        (fun () -> ignore (chain ~b ~c ~step:4)))
    [ (-4, 0); (0, -4); (key_max + 1, 0); (0, key_max + 1); (min_int, -1);
      (-1, max_int) ];
  (* keys at the ends of the range and around bit 30 stay distinct
     chains: a packing that let two of them share a memo entry would
     replay one key's trajectory for the other *)
  let oracle = chain_oracle ~seed:3 ~down_prob:0.5 ~up_prob:0.5 in
  let edges = [ -3; -2; -1; 0; (1 lsl 30) - 4; (1 lsl 30) - 3; key_max - 1; key_max ] in
  List.iter
    (fun b ->
      List.iter
        (fun c ->
          for step = 0 to 40 do
            Alcotest.(check int)
              (Printf.sprintf "(%d, %d) at %d" b c step)
              (oracle ~b ~c ~step) (chain ~b ~c ~step)
          done)
        edges)
    edges

let () =
  Alcotest.run "ocd_dynamics"
    [
      ( "condition",
        [
          Alcotest.test_case "static identity" `Quick test_static_identity;
          Alcotest.test_case "cross traffic extremes" `Quick
            test_cross_traffic_extremes;
          Alcotest.test_case "cross traffic deterministic" `Quick
            test_cross_traffic_deterministic;
          Alcotest.test_case "flaps start up" `Quick test_link_flaps_start_up;
          Alcotest.test_case "flaps never down" `Quick test_link_flaps_never_down;
          Alcotest.test_case "flaps order independent" `Quick
            test_link_flaps_order_independent;
          Alcotest.test_case "churn protects sources" `Quick
            test_churn_protects_sources;
          qtest prop_churn_protected_invariant;
          Alcotest.test_case "churn unprotected departs" `Quick
            test_churn_unprotected_eventually_departs;
          Alcotest.test_case "graph_at" `Quick test_graph_at;
          Alcotest.test_case "graph_at none iff all down" `Quick
            test_graph_at_none_only_when_all_down;
          Alcotest.test_case "invalid params" `Quick test_condition_invalid_params;
          qtest prop_chain_matches_oracle;
          Alcotest.test_case "chain key range" `Quick test_chain_key_range;
        ] );
      ( "dynamic-engine",
        [
          Alcotest.test_case "static condition = engine" `Quick
            test_dynamic_static_equals_engine;
          Alcotest.test_case "dead network stalls" `Quick
            test_dynamic_all_down_stalls;
          Alcotest.test_case "degraded completes" `Quick
            test_dynamic_degraded_still_completes;
          Alcotest.test_case "degradation slows" `Quick test_dynamic_degradation_slows;
          Alcotest.test_case "churn completes" `Quick test_dynamic_churn_completes;
          Alcotest.test_case "deterministic" `Quick test_dynamic_deterministic;
          qtest prop_dynamic_schedules_statically_valid;
        ] );
    ]
