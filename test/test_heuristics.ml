(* Tests for ocd_heuristics: the five §5.1 strategies. *)

open Ocd_prelude
open Ocd_core
open Ocd_engine

let qtest = QCheck_alcotest.to_alcotest

let single_file_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.single_file rng ~graph:g ~tokens ~source:0 ()).Scenario.instance

let density_instance ~seed ~n ~tokens ~threshold =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.receiver_density rng ~graph:g ~tokens ~threshold ~source:0 ())
    .Scenario.instance

let run_strategy strategy inst =
  Engine.completed_exn (Engine.run ~strategy ~seed:1234 inst)

let completes_test strategy () =
  let inst = single_file_instance ~seed:5 ~n:25 ~tokens:10 in
  let run = run_strategy strategy inst in
  Alcotest.(check bool) "valid successful schedule" true
    (Validate.check_successful inst run.Engine.schedule = Ok ())

let respects_bounds_test strategy () =
  let inst = single_file_instance ~seed:6 ~n:20 ~tokens:8 in
  let run = run_strategy strategy inst in
  let m = run.Engine.metrics in
  Alcotest.(check bool) "bw >= lb" true
    (m.Metrics.bandwidth >= Bounds.bandwidth_lower_bound inst);
  Alcotest.(check bool) "makespan >= lb" true
    (m.Metrics.makespan >= Bounds.makespan_lower_bound inst)

let partial_receivers_test strategy () =
  let inst = density_instance ~seed:7 ~n:30 ~tokens:6 ~threshold:0.3 in
  if Instance.total_deficit inst > 0 then begin
    let run = run_strategy strategy inst in
    Alcotest.(check bool) "valid" true
      (Validate.check_successful inst run.Engine.schedule = Ok ())
  end

let multi_sender_test strategy () =
  let rng = Prng.create ~seed:8 in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:24 ~p:0.35 () in
  let inst =
    (Scenario.subdivide_files rng ~graph:g ~total_tokens:12 ~files:4
       ~multi_sender:true ())
      .Scenario.instance
  in
  let run = run_strategy strategy inst in
  Alcotest.(check bool) "valid" true
    (Validate.check_successful inst run.Engine.schedule = Ok ())

let per_strategy_cases strategy =
  let name = strategy.Strategy.name in
  [
    Alcotest.test_case (name ^ " completes single-file") `Quick
      (completes_test strategy);
    Alcotest.test_case (name ^ " respects lower bounds") `Quick
      (respects_bounds_test strategy);
    Alcotest.test_case (name ^ " handles partial receivers") `Quick
      (partial_receivers_test strategy);
    Alcotest.test_case (name ^ " handles multiple senders") `Quick
      (multi_sender_test strategy);
  ]

(* ------------------------------------------------------------------ *)
(* Strategy-specific behaviour                                         *)
(* ------------------------------------------------------------------ *)

(* Round-robin floods blindly: on a 2-vertex graph where the receiver
   already holds one token, it still resends it eventually. *)
let test_round_robin_resends () =
  let graph = Ocd_graph.Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:3 ~have:[ (0, [ 0; 1; 2 ]); (1, [ 0 ]) ]
      ~want:[ (1, [ 0; 1; 2 ]) ]
  in
  let run = run_strategy Ocd_heuristics.Round_robin.strategy inst in
  (* tokens 1 and 2 are needed; cursor passes token 0 too: at least one
     wasted resend of token 0 means bandwidth >= 3 over >= 3 steps.
     (The reverse arc 1->0 also floods token 0 back.) *)
  Alcotest.(check bool) "wasted sends happen" true
    (run.Engine.metrics.Metrics.bandwidth > 2)

(* Moves that deliver a token their destination already holds at the
   start of the step. *)
let resends inst schedule =
  Timeline.fold inst schedule ~init:0 ~f:(fun acc v ->
      if v.Timeline.step = Schedule.length schedule then acc
      else
        List.fold_left
          (fun acc (m : Move.t) ->
            if Bitset.mem v.Timeline.have.(m.Move.dst) m.Move.token then acc + 1
            else acc)
          acc
          (Schedule.step schedule v.Timeline.step))

let test_random_never_resends_to_holder () =
  let inst = single_file_instance ~seed:9 ~n:15 ~tokens:6 in
  let run = run_strategy Ocd_heuristics.Random_push.strategy inst in
  (* Replay: check no move delivers a token its destination already
     holds at the start of the step. *)
  Alcotest.(check int) "no useless sends" 0 (resends inst run.Engine.schedule)

let test_local_no_duplicate_deliveries_per_step () =
  let inst = single_file_instance ~seed:10 ~n:20 ~tokens:8 in
  let run = run_strategy Ocd_heuristics.Local_rarest.strategy inst in
  (* Request subdivision: within a step, a vertex never receives the
     same token from two peers. *)
  List.iter
    (fun step_moves ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (m : Move.t) ->
          let key = (m.Move.dst, m.Move.token) in
          Alcotest.(check bool) "no duplicate delivery" false (Hashtbl.mem seen key);
          Hashtbl.replace seen key ())
        step_moves)
    (Schedule.steps run.Engine.schedule)

let test_local_bandwidth_equals_deficit_all_want_all () =
  (* With request subdivision and all-want-all, local never wastes a
     move: bandwidth = deficit exactly. *)
  let inst = single_file_instance ~seed:11 ~n:20 ~tokens:10 in
  let run = run_strategy Ocd_heuristics.Local_rarest.strategy inst in
  Alcotest.(check int) "bandwidth = deficit" (Instance.total_deficit inst)
    run.Engine.metrics.Metrics.bandwidth

let test_bandwidth_saves_on_sparse_receivers () =
  (* The defining §5.1 property: with few receivers, the bandwidth
     heuristic transfers far less than the flooding heuristics. *)
  let inst = density_instance ~seed:12 ~n:40 ~tokens:8 ~threshold:0.2 in
  let bw_run = run_strategy Ocd_heuristics.Bandwidth_saver.strategy inst in
  let flood_run = run_strategy Ocd_heuristics.Local_rarest.strategy inst in
  Alcotest.(check bool) "bandwidth heuristic cheaper" true
    (bw_run.Engine.metrics.Metrics.bandwidth
    < flood_run.Engine.metrics.Metrics.bandwidth)

let test_bandwidth_no_unused_tokens () =
  (* Every token the bandwidth heuristic moves is eventually used:
     after pruning, the schedule keeps (almost) everything.  We check
     the weaker invariant that it never delivers a token to a vertex
     that already holds it. *)
  let inst = density_instance ~seed:13 ~n:25 ~tokens:6 ~threshold:0.4 in
  let run = run_strategy Ocd_heuristics.Bandwidth_saver.strategy inst in
  Alcotest.(check int) "no resend" 0 (resends inst run.Engine.schedule)

let test_global_faster_than_round_robin () =
  let inst = single_file_instance ~seed:14 ~n:30 ~tokens:12 in
  let rr = run_strategy Ocd_heuristics.Round_robin.strategy inst in
  let gl = run_strategy Ocd_heuristics.Global_greedy.strategy inst in
  Alcotest.(check bool) "global <= round-robin makespan" true
    (gl.Engine.metrics.Metrics.makespan <= rr.Engine.metrics.Metrics.makespan);
  Alcotest.(check bool) "global uses less bandwidth" true
    (gl.Engine.metrics.Metrics.bandwidth <= rr.Engine.metrics.Metrics.bandwidth)

let test_staleness_zero_matches_knowledge_model () =
  (* turns = 0 has the same knowledge model as plain random: neither
     ever delivers a token the receiver already holds. *)
  let inst = single_file_instance ~seed:15 ~n:15 ~tokens:6 in
  let run =
    run_strategy (Ocd_heuristics.Random_push.with_staleness ~turns:0) inst
  in
  Alcotest.(check int) "no resend at staleness 0" 0
    (resends inst run.Engine.schedule)

let test_staleness_completes () =
  let inst = single_file_instance ~seed:16 ~n:20 ~tokens:8 in
  List.iter
    (fun turns ->
      let run =
        run_strategy (Ocd_heuristics.Random_push.with_staleness ~turns) inst
      in
      Alcotest.(check bool)
        (Printf.sprintf "staleness %d completes" turns)
        true
        (Validate.check_successful inst run.Engine.schedule = Ok ()))
    [ 0; 1; 3; 8 ]

let test_staleness_wastes_bandwidth () =
  (* Stale knowledge causes resends: averaged over seeds, staleness-4
     uses at least as much bandwidth as staleness-0. *)
  let total turns =
    List.fold_left
      (fun acc seed ->
        let inst = single_file_instance ~seed ~n:20 ~tokens:8 in
        let run =
          run_strategy (Ocd_heuristics.Random_push.with_staleness ~turns) inst
        in
        acc + run.Engine.metrics.Metrics.bandwidth)
      0 [ 21; 22; 23; 24 ]
  in
  Alcotest.(check bool) "stale wastes" true (total 4 >= total 0)

let test_staleness_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Random_push.with_staleness: negative turns") (fun () ->
      ignore (Ocd_heuristics.Random_push.with_staleness ~turns:(-1)))

let test_flow_step_completes () =
  let inst = single_file_instance ~seed:17 ~n:25 ~tokens:10 in
  let run = run_strategy Ocd_heuristics.Flow_step.strategy inst in
  Alcotest.(check bool) "valid successful schedule" true
    (Validate.check_successful inst run.Engine.schedule = Ok ())

let test_flow_step_never_beaten_on_first_step_wants () =
  (* On any instance, flow-step's first step delivers at least as many
     *wanted* tokens as any §5.1 heuristic's first step (it solves the
     per-receiver assignment exactly, and deliveries to distinct
     receivers are independent). *)
  let inst = single_file_instance ~seed:18 ~n:20 ~tokens:8 in
  let wanted_deliveries strategy =
    let run = run_strategy strategy inst in
    List.length
      (List.filter
         (fun (m : Move.t) ->
           Bitset.mem inst.Instance.want.(m.Move.dst) m.Move.token)
         (Schedule.step run.Engine.schedule 0))
  in
  let flow = wanted_deliveries Ocd_heuristics.Flow_step.strategy in
  List.iter
    (fun strategy ->
      Alcotest.(check bool)
        (strategy.Strategy.name ^ " <= flow-step on step-0 wants")
        true
        (wanted_deliveries strategy <= flow))
    Ocd_heuristics.Registry.all

let test_flow_step_partial_receivers () =
  let inst = density_instance ~seed:19 ~n:25 ~tokens:6 ~threshold:0.3 in
  if Instance.total_deficit inst > 0 then begin
    let run = run_strategy Ocd_heuristics.Flow_step.strategy inst in
    Alcotest.(check bool) "valid" true
      (Validate.check_successful inst run.Engine.schedule = Ok ())
  end

let test_registry () =
  Alcotest.(check (list string)) "names"
    [ "round-robin"; "random"; "local"; "bandwidth"; "global" ]
    Ocd_heuristics.Registry.names

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let test_aggregates () =
  let graph = Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 1); (1, 2, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:2 ~have:[ (0, [ 0; 1 ]); (1, [ 0 ]) ]
      ~want:[ (1, [ 0; 1 ]); (2, [ 0 ]) ]
  in
  let agg =
    Ocd_heuristics.Aggregates.compute inst
      (Bitset.Rows.of_sets 2 inst.Instance.have)
  in
  let have_count = agg.Ocd_heuristics.Aggregates.have_count
  and need_count = agg.Ocd_heuristics.Aggregates.need_count in
  Alcotest.(check int) "token 0 held by 2" 2 have_count.(0);
  Alcotest.(check int) "token 1 held by 1" 1 have_count.(1);
  Alcotest.(check int) "token 0 needed (by 2)" 1 need_count.(0);
  Alcotest.(check int) "token 1 needed (by 1)" 1 need_count.(1)

(* A strategy wrapper that, on every decision, checks the incremental
   aggregate (Aggregates.tracked, fed by delivery notifications)
   against the from-scratch oracle over the current possession state,
   then delegates to local-rarest.  Running it through an engine
   exercises update on exactly the delivery sequence that engine
   produces. *)
let differential_local mismatches =
  let make inst rng =
    let tracked = Ocd_heuristics.Aggregates.tracked inst in
    let inner = Ocd_heuristics.Local_rarest.strategy.Strategy.make inst rng in
    fun (ctx : Strategy.context) ->
      let inc = tracked ctx in
      let oracle = Ocd_heuristics.Aggregates.compute inst ctx.have in
      if
        inc.Ocd_heuristics.Aggregates.have_count
        <> oracle.Ocd_heuristics.Aggregates.have_count
        || inc.Ocd_heuristics.Aggregates.need_count
           <> oracle.Ocd_heuristics.Aggregates.need_count
      then incr mismatches;
      inner ctx
  in
  { Strategy.name = "local-differential"; make }

let prop_aggregates_update_matches_compute_static =
  QCheck.Test.make
    ~name:"incremental aggregates = compute oracle (static engine)" ~count:30
    QCheck.(triple (int_range 0 2000) (int_range 5 30) (int_range 1 10))
    (fun (seed, n, tokens) ->
      let inst = single_file_instance ~seed ~n ~tokens in
      let mismatches = ref 0 in
      let run =
        Engine.run ~strategy:(differential_local mismatches) ~seed:(seed + 11)
          inst
      in
      run.Engine.outcome = Engine.Completed && !mismatches = 0)

let prop_aggregates_update_matches_compute_dynamic =
  QCheck.Test.make
    ~name:"incremental aggregates = compute oracle (dynamic engine)" ~count:20
    QCheck.(triple (int_range 0 2000) (int_range 5 25) (int_range 1 8))
    (fun (seed, n, tokens) ->
      (* Degraded conditions drop moves, so the delivery sequence the
         listener sees differs from the proposal — exactly the case
         where a stale count would diverge. *)
      let inst = single_file_instance ~seed ~n ~tokens in
      let condition =
        Ocd_dynamics.Condition.cross_traffic ~seed:(seed + 1) ~prob:0.4
          ~severity:0.7
      in
      let mismatches = ref 0 in
      ignore
        (Ocd_dynamics.Dynamic_engine.run ~condition ~stall_patience:50
           ~strategy:(differential_local mismatches) ~seed:(seed + 11) inst);
      !mismatches = 0)

(* ------------------------------------------------------------------ *)
(* Local request path against a Bitset oracle                          *)
(* ------------------------------------------------------------------ *)

(* The request subdivision of [Local_rarest] written as a plain scan
   over [ctx.have] through [Bitset]: per receiver, fill the missing
   set, shuffle it and stably sort it by holder count, then give each
   token to a random in-neighbour that holds it and has budget left. *)
let oracle_local =
  let make (inst : Instance.t) _rng =
    let tracked = Ocd_heuristics.Aggregates.tracked inst in
    let missing = Bitset.create inst.token_count in
    let order = Int_vec.create () in
    fun (ctx : Strategy.context) ->
      let agg = tracked ctx in
      let graph = ctx.instance.Instance.graph in
      let moves = ref [] in
      for dst = 0 to Instance.vertex_count inst - 1 do
        Bitset.fill missing;
        Bitset.Rows.diff_into missing ctx.have dst;
        if not (Bitset.is_empty missing) then begin
          let preds = Ocd_graph.Digraph.pred graph dst in
          let budget = Ocd_graph.Digraph.View.caps preds in
          let pred_ids = Ocd_graph.Digraph.View.dsts preds in
          Int_vec.clear order;
          Bitset.iter (Int_vec.push order) missing;
          Int_vec.shuffle ctx.rng order;
          Int_vec.stable_sort_by_key agg.Ocd_heuristics.Aggregates.have_count
            order;
          Int_vec.iter
            (fun token ->
              let cand =
                List.filter
                  (fun i ->
                    budget.(i) > 0
                    && Bitset.Rows.mem ctx.have pred_ids.(i) token)
                  (List.init (Array.length pred_ids) Fun.id)
              in
              let c = List.length cand in
              if c > 0 then begin
                let i = List.nth cand (c - 1 - Prng.int ctx.rng c) in
                budget.(i) <- budget.(i) - 1;
                moves := { Move.src = pred_ids.(i); dst; token } :: !moves
              end)
            order
        end
      done;
      !moves
  in
  { Strategy.name = "oracle-local"; make }

(* Token counts on both sides of each word boundary of the possession
   store (63 tokens per word). *)
let word_boundary_tokens = [ 1; 8; 62; 63; 64; 65; 100; 127 ]

let test_local_matches_oracle () =
  let topologies =
    [
      ( "random",
        fun rng -> Ocd_topology.Random_graph.erdos_renyi rng ~n:24 ~p:0.3 () );
      ( "transit-stub",
        fun rng ->
          Ocd_topology.Transit_stub.generate rng
            (Ocd_topology.Transit_stub.params_for_size 30) );
    ]
  in
  let strategy = Ocd_heuristics.Local_rarest.strategy in
  List.iteri
    (fun ti (topo, gen) ->
      List.iter
        (fun tokens ->
          let rng = Prng.create ~seed:(100 + (10 * ti) + tokens) in
          let inst =
            (Scenario.single_file rng ~graph:(gen rng) ~tokens ~source:0 ())
              .Scenario.instance
          in
          let condition =
            Ocd_dynamics.Condition.link_flaps ~seed:tokens ~down_prob:0.2
              ~up_prob:0.5
          in
          let label engine =
            Printf.sprintf "%s = oracle, %s, %d tokens, %s"
              strategy.Strategy.name topo tokens engine
          in
          let static s = (Engine.run ~strategy:s ~seed:tokens inst).Engine.schedule in
          Alcotest.(check bool) (label "engine") true
            (Schedule.steps (static strategy) = Schedule.steps (static oracle_local));
          let flapping s =
            (Ocd_dynamics.Dynamic_engine.run ~condition ~stall_patience:60
               ~strategy:s ~seed:tokens inst)
              .Ocd_dynamics.Dynamic_engine.schedule
          in
          Alcotest.(check bool) (label "link flaps") true
            (Schedule.steps (flapping strategy)
            = Schedule.steps (flapping oracle_local)))
        word_boundary_tokens)
    topologies

(* Cross traffic can take an arc to zero capacity at step 0, so the
   step-0 graph lacks arcs a later step has.  Local's count of holding
   in-neighbours must then still cover them, or a receiver whose only
   holding in-neighbour is behind such an arc is wrongly skipped. *)
let test_local_matches_oracle_cross_traffic () =
  List.iter
    (fun tokens ->
      let rng = Prng.create ~seed:(110 + tokens) in
      let graph =
        Ocd_topology.Transit_stub.generate rng
          (Ocd_topology.Transit_stub.params_for_size 30)
      in
      let inst =
        (Scenario.single_file rng ~graph ~tokens ~source:0 ()).Scenario.instance
      in
      let condition =
        Ocd_dynamics.Condition.cross_traffic ~seed:tokens ~prob:0.8
          ~severity:0.75
      in
      let schedule s =
        Schedule.steps
          (Ocd_dynamics.Dynamic_engine.run ~condition ~stall_patience:60
             ~strategy:s ~seed:tokens inst)
            .Ocd_dynamics.Dynamic_engine.schedule
      in
      Alcotest.(check bool)
        (Printf.sprintf "local = oracle, %d tokens" tokens)
        true
        (schedule Ocd_heuristics.Local_rarest.strategy
        = schedule oracle_local))
    word_boundary_tokens

(* ------------------------------------------------------------------ *)
(* Properties over all heuristics                                      *)
(* ------------------------------------------------------------------ *)

let all_complete_prop strategy =
  QCheck.Test.make
    ~name:(strategy.Strategy.name ^ " completes on random instances")
    ~count:25
    QCheck.(triple (int_range 0 2000) (int_range 5 30) (int_range 1 10))
    (fun (seed, n, tokens) ->
      let inst = single_file_instance ~seed ~n ~tokens in
      let run = Engine.run ~strategy ~seed:(seed + 7) inst in
      run.Engine.outcome = Engine.Completed
      && Validate.check_successful inst run.Engine.schedule = Ok ())

let prop_density_all_heuristics =
  QCheck.Test.make ~name:"all heuristics solve partial-receiver instances"
    ~count:15
    QCheck.(pair (int_range 0 500) (int_range 1 9))
    (fun (seed, tenths) ->
      let inst =
        density_instance ~seed ~n:20 ~tokens:5
          ~threshold:(float_of_int tenths /. 10.0)
      in
      Instance.trivially_satisfied inst
      || List.for_all
           (fun strategy ->
             let run = Engine.run ~strategy ~seed:(seed + 3) inst in
             run.Engine.outcome = Engine.Completed)
           Ocd_heuristics.Registry.all)

let () =
  Alcotest.run "ocd_heuristics"
    [
      ( "all-strategies",
        List.concat_map per_strategy_cases Ocd_heuristics.Registry.all );
      ( "behaviour",
        [
          Alcotest.test_case "round-robin resends" `Quick test_round_robin_resends;
          Alcotest.test_case "random avoids holders" `Quick
            test_random_never_resends_to_holder;
          Alcotest.test_case "local subdivides requests" `Quick
            test_local_no_duplicate_deliveries_per_step;
          Alcotest.test_case "local bw = deficit (all-want-all)" `Quick
            test_local_bandwidth_equals_deficit_all_want_all;
          Alcotest.test_case "bandwidth saves on sparse receivers" `Quick
            test_bandwidth_saves_on_sparse_receivers;
          Alcotest.test_case "bandwidth never resends" `Quick
            test_bandwidth_no_unused_tokens;
          Alcotest.test_case "global beats round-robin" `Quick
            test_global_faster_than_round_robin;
          Alcotest.test_case "staleness 0 = current knowledge" `Quick
            test_staleness_zero_matches_knowledge_model;
          Alcotest.test_case "staleness completes" `Quick test_staleness_completes;
          Alcotest.test_case "staleness wastes bandwidth" `Quick
            test_staleness_wastes_bandwidth;
          Alcotest.test_case "staleness invalid" `Quick test_staleness_invalid;
          Alcotest.test_case "flow-step completes" `Quick test_flow_step_completes;
          Alcotest.test_case "flow-step maximises step-0 wants" `Quick
            test_flow_step_never_beaten_on_first_step_wants;
          Alcotest.test_case "flow-step partial receivers" `Quick
            test_flow_step_partial_receivers;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "local = Bitset oracle across word boundaries"
            `Quick test_local_matches_oracle;
          Alcotest.test_case "local = Bitset oracle under cross traffic"
            `Quick test_local_matches_oracle_cross_traffic;
        ] );
      ( "properties",
        List.map all_complete_prop Ocd_heuristics.Registry.all
        |> List.map qtest
        |> fun l ->
        l
        @ [
            qtest prop_density_all_heuristics;
            qtest prop_aggregates_update_matches_compute_static;
            qtest prop_aggregates_update_matches_compute_dynamic;
          ] );
    ]
