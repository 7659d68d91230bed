open Ocd_core
open Ocd_prelude

let heuristics = Ocd_heuristics.Registry.all

(* Deterministic per-figure base seeds. *)
let seed_fig2 = 1002
let seed_fig3 = 1003
let seed_fig4 = 1004
let seed_fig5 = 1005
let seed_fig6 = 1006
let seed_fig7 = 1007
let seed_adv = 1010
let seed_ip = 1011
let seed_base = 1012
let seed_abl = 1013
let seed_async = 1030
let seed_dht = 1031
let seed_part = 1032
let seed_explain = 1033

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

(** The time/bandwidth tension instance, solved exactly. *)
let figure1 ~full:_ ~jobs:_ =
  Report.section "Figure 1: time vs bandwidth tension (exact)";
  let inst = Figure1.instance () in
  let table =
    Report.create ~title:"figure1 exact optima"
      ~columns:[ "question"; "answer"; "witness_steps"; "witness_moves" ]
  in
  let describe label = function
    | Ocd_exact.Search.Solved s ->
      Report.row table
        [
          label;
          string_of_int s.Ocd_exact.Search.objective;
          string_of_int (Schedule.length s.Ocd_exact.Search.schedule);
          string_of_int (Schedule.move_count s.Ocd_exact.Search.schedule);
        ]
    | Ocd_exact.Search.Unsatisfiable -> Report.row table [ label; "unsat"; "-"; "-" ]
    | Ocd_exact.Search.Budget_exceeded -> Report.row table [ label; "budget"; "-"; "-" ]
  in
  describe "min makespan (FOCD)" (Ocd_exact.Search.focd inst);
  describe "min bandwidth (EOCD)" (Ocd_exact.Search.eocd inst);
  describe "min bandwidth at 2 steps" (Ocd_exact.Search.eocd ~horizon:2 inst);
  describe "min bandwidth at 3 steps" (Ocd_exact.Search.eocd ~horizon:3 inst);
  Report.render table;
  let fast = Metrics.of_schedule inst (Figure1.min_time_schedule ()) in
  let cheap = Metrics.of_schedule inst (Figure1.min_bandwidth_schedule ()) in
  Report.note
    "paper caption: min-time schedule = 2 steps / 6 bandwidth; min-bandwidth = 4 bandwidth / 3 steps";
  Report.note "our witnesses: fast = %d steps / %d moves; cheap = %d moves / %d steps"
    fast.Metrics.makespan fast.Metrics.bandwidth cheap.Metrics.bandwidth
    cheap.Metrics.makespan

(* ------------------------------------------------------------------ *)
(* Figures 2 & 3: graph size sweeps                                    *)
(* ------------------------------------------------------------------ *)

let size_sweep ~full ~jobs ~seed ~title ~generate =
  let sizes =
    if full then [ 20; 50; 100; 200; 350; 500; 700; 1000 ]
    else [ 20; 50; 100; 200; 400 ]
  in
  let tokens = if full then 200 else 100 in
  let trials = if full then 3 else 2 in
  let points =
    Sweep.run_sweep ~trials ~jobs ~strategies:heuristics
      (List.map
         (fun n ->
           {
             Sweep.label = string_of_int n;
             point_seed = seed + n;
             build =
               (fun rng ->
                 let graph = generate rng n in
                 (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance);
           })
         sizes)
  in
  Sweep.report ~title ~x_column:"n" points

(** Moves & bandwidth vs graph size; random `2 ln n / n` graphs,
    single source and file, all receivers. *)
let figure2 ~full ~jobs =
  Report.section
    "Figure 2: moves & bandwidth vs graph size (random 2ln n/n graph, single \
     source & file, all receivers)";
  size_sweep ~full ~jobs ~seed:seed_fig2 ~title:"figure2 random graph"
    ~generate:(fun rng n -> Ocd_topology.Random_graph.erdos_renyi rng ~n ())

(** As figure 2 on transit-stub topologies. *)
let figure3 ~full ~jobs =
  Report.section
    "Figure 3: moves & bandwidth vs graph size (transit-stub topology)";
  size_sweep ~full ~jobs ~seed:seed_fig3 ~title:"figure3 transit-stub"
    ~generate:(fun rng n ->
      Ocd_topology.Transit_stub.generate rng
        (Ocd_topology.Transit_stub.params_for_size n))

(* ------------------------------------------------------------------ *)
(* Figure 4: receiver density                                          *)
(* ------------------------------------------------------------------ *)

(** Moves & bandwidth vs receiver-density threshold; n = 200. *)
let figure4 ~full ~jobs =
  Report.section
    "Figure 4: moves & bandwidth vs receiver-density threshold (n = 200, \
     random graph, single source)";
  let thresholds =
    if full then List.init 10 (fun i -> float_of_int (i + 1) /. 10.0)
    else [ 0.1; 0.25; 0.5; 0.75; 1.0 ]
  in
  let tokens = if full then 200 else 100 in
  let trials = if full then 3 else 2 in
  let points =
    Sweep.run_sweep ~trials ~jobs ~strategies:heuristics
      (List.map
         (fun threshold ->
           {
             Sweep.label = Printf.sprintf "%.2f" threshold;
             point_seed = seed_fig4 + int_of_float (threshold *. 100.0);
             build =
               (fun rng ->
                 let graph =
                   Ocd_topology.Random_graph.erdos_renyi rng ~n:200 ()
                 in
                 (Scenario.receiver_density rng ~graph ~tokens ~threshold ())
                   .Scenario.instance);
           })
         thresholds)
  in
  Sweep.report ~title:"figure4 receiver density" ~x_column:"threshold" points;
  Report.note
    "expected shape: flooding heuristics stay flat; the bandwidth heuristic \
     tracks the lower bound at small thresholds; pruned bandwidth ~ optimal"

(* ------------------------------------------------------------------ *)
(* Figures 5 & 6: file subdivision                                     *)
(* ------------------------------------------------------------------ *)

let subdivision_sweep ~full ~jobs ~seed ~title ~multi_sender =
  let total_tokens = if full then 512 else 256 in
  let file_counts =
    if full then [ 1; 2; 4; 8; 16; 32; 64; 128 ] else [ 1; 4; 16; 64 ]
  in
  let trials = if full then 3 else 2 in
  let points =
    Sweep.run_sweep ~trials ~jobs ~strategies:heuristics
      (List.map
         (fun files ->
           {
             Sweep.label = string_of_int files;
             point_seed = seed + files;
             build =
               (fun rng ->
                 let graph =
                   Ocd_topology.Random_graph.erdos_renyi rng ~n:200 ()
                 in
                 (Scenario.subdivide_files rng ~graph ~total_tokens ~files
                    ~multi_sender ())
                   .Scenario.instance);
           })
         file_counts)
  in
  Sweep.report ~title ~x_column:"files" points

(** Moves & bandwidth vs number of files (subdivision of one token
    pool), single source. *)
let figure5 ~full ~jobs =
  Report.section
    "Figure 5: moves & bandwidth vs number of files (single source, 200 \
     vertices)";
  subdivision_sweep ~full ~jobs ~seed:seed_fig5
    ~title:"figure5 file subdivision" ~multi_sender:false;
  Report.note
    "expected shape: flooding heuristics level off after the 1-file point; \
     only the bandwidth heuristic's consumption falls with more files"

(** As figure 5 with a random sender per file. *)
let figure6 ~full ~jobs =
  Report.section "Figure 6: as figure 5 with random per-file senders";
  subdivision_sweep ~full ~jobs ~seed:seed_fig6
    ~title:"figure6 multiple senders" ~multi_sender:true

(* ------------------------------------------------------------------ *)
(* Figure 7: the reduction                                             *)
(* ------------------------------------------------------------------ *)

(** Appendix reduction: Dominating Set ⇔ 2-step FOCD equivalence
    counts over exhaustive small-graph samples. *)
let figure7 ~full:_ ~jobs:_ =
  Report.section
    "Figure 7: Dominating Set -> FOCD reduction (appendix, Theorem 5)";
  let table =
    Report.create ~title:"figure7 reduction equivalence"
      ~columns:[ "n"; "graphs"; "(g,k) pairs"; "agreements"; "mismatches" ]
  in
  let rng = Prng.create ~seed:seed_fig7 in
  List.iter
    (fun n ->
      let graphs = 20 in
      let pairs = ref 0 and agreements = ref 0 in
      for _ = 1 to graphs do
        let edges = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Prng.bernoulli rng 0.4 then edges := (u, v, 1) :: !edges
          done
        done;
        let g = Ocd_graph.Digraph.of_edges ~vertex_count:n !edges in
        for k = 0 to n do
          incr pairs;
          let ds = Ocd_graph.Dominating.exists_of_size g k in
          let focd2 = Ocd_exact.Reduction.two_step_solvable g ~k in
          if ds = focd2 then incr agreements
        done
      done;
      Report.row table
        [
          string_of_int n;
          string_of_int graphs;
          string_of_int !pairs;
          string_of_int !agreements;
          string_of_int (!pairs - !agreements);
        ])
    [ 3; 4; 5; 6; 7 ];
  Report.render table

(* ------------------------------------------------------------------ *)
(* Theorem 4 adversary                                                 *)
(* ------------------------------------------------------------------ *)

(** Theorem 4 family: per-heuristic worst-case makespan vs the
    prescient optimum as decoys scale. *)
let adversary ~full:_ ~jobs:_ =
  Report.section
    "Theorem 4: adversarial family (worst-case makespan vs prescient optimum)";
  let distance = 5 in
  let table =
    Report.create ~title:"adversary worst-case makespan"
      ~columns:[ "decoys"; "strategy"; "worst_makespan"; "optimum"; "ratio" ]
  in
  List.iter
    (fun decoys ->
      List.iter
        (fun strategy ->
          let worst = ref 0 in
          for wanted = 0 to decoys do
            let inst = Ocd_exact.Adversary.instance ~distance ~decoys ~wanted in
            let run =
              Ocd_engine.Engine.completed_exn
                (Ocd_engine.Engine.run ~strategy ~seed:(seed_adv + wanted) inst)
            in
            worst := max !worst run.Ocd_engine.Engine.metrics.Metrics.makespan
          done;
          let opt = Ocd_exact.Adversary.optimal_makespan ~distance in
          Report.row table
            [
              string_of_int decoys;
              strategy.Ocd_engine.Strategy.name;
              string_of_int !worst;
              string_of_int opt;
              Printf.sprintf "%.2f" (float_of_int !worst /. float_of_int opt);
            ])
        heuristics)
    [ 0; 4; 8; 16 ];
  Report.render table;
  Report.note
    "no constant-competitive online algorithm exists: the want-blind \
     heuristics' ratio grows with the decoy count, while want-aware ones \
     stay near 1"

(* ------------------------------------------------------------------ *)
(* IP vs search                                                        *)
(* ------------------------------------------------------------------ *)

(** §3.4 IP vs combinatorial search cross-validation table. *)
let ip_vs_search ~full:_ ~jobs:_ =
  Report.section "Cross-validation: time-indexed IP (§3.4) vs exact search";
  let table =
    Report.create ~title:"ip vs search"
      ~columns:
        [ "instance"; "tau_search"; "tau_ip"; "eocd_search"; "eocd_ip"; "vars" ]
  in
  let check label inst =
    let tau_search, eocd_search =
      match Ocd_exact.Search.focd inst with
      | Ocd_exact.Search.Solved { objective = tau; _ } -> (
        ( string_of_int tau,
          match Ocd_exact.Search.eocd ~horizon:tau inst with
          | Ocd_exact.Search.Solved { objective; _ } -> string_of_int objective
          | _ -> "?" ))
      | _ -> ("?", "?")
    in
    let tau_ip, eocd_ip, vars =
      match Ocd_exact.Ip_formulation.focd inst with
      | Some (tau, _) -> (
        ( string_of_int tau,
          (match Ocd_exact.Ip_formulation.eocd_at_horizon inst ~horizon:tau with
          | Ocd_exact.Ip_formulation.Solved { bandwidth; _ } ->
            string_of_int bandwidth
          | _ -> "?"),
          string_of_int (Ocd_exact.Ip_formulation.variable_count inst ~horizon:tau)
        ))
      | None -> ("?", "?", "-")
    in
    Report.row table [ label; tau_search; tau_ip; eocd_search; eocd_ip; vars ]
  in
  check "figure1" (Figure1.instance ());
  let rng = Prng.create ~seed:seed_ip in
  for i = 1 to 4 do
    let n = 3 + Prng.int rng 2 in
    let g =
      Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.6
        ~weights:(Ocd_topology.Weights.Uniform (1, 2)) ()
    in
    let tokens = 1 + Prng.int rng 2 in
    let inst = (Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance in
    check (Printf.sprintf "random-%d (n=%d m=%d)" i n tokens) inst
  done;
  Report.render table

(* ------------------------------------------------------------------ *)
(* Baselines (extension)                                               *)
(* ------------------------------------------------------------------ *)

(** Extension: related-work baseline systems vs the §5.1 heuristics. *)
let baselines ~full:_ ~jobs =
  Report.section
    "Extension: related-work baselines vs the paper's heuristics";
  let strategies =
    heuristics
    @ [
        Ocd_heuristics.Flow_step.strategy;
        Ocd_baselines.Tree_push.strategy ();
        Ocd_baselines.Split_forest.strategy ~k:4 ();
        Ocd_baselines.Fast_replica.strategy ();
        Ocd_baselines.Serial_steiner.strategy;
      ]
  in
  let points =
    [
      ( "all-want-all",
        fun rng ->
          let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:60 () in
          (Scenario.single_file rng ~graph ~tokens:40 ~source:0 ())
            .Scenario.instance );
      ( "density-0.3",
        fun rng ->
          let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:60 () in
          (Scenario.receiver_density rng ~graph ~tokens:40 ~threshold:0.3
             ~source:0 ())
            .Scenario.instance );
    ]
  in
  let results =
    Sweep.run_sweep ~trials:2 ~jobs ~strategies
      (List.map
         (fun (label, build) ->
           { Sweep.label; point_seed = seed_base; build })
         points)
  in
  Sweep.report ~title:"baselines comparison" ~x_column:"workload" results;
  Report.note
    "tree/forest pipelines are bandwidth-tight on all-want-all but flood \
     relays regardless of wants; serial-steiner is the bandwidth-side \
     extreme (huge makespan)"

(* ------------------------------------------------------------------ *)
(* Ablation (extension)                                                *)
(* ------------------------------------------------------------------ *)

(** Extension: the Local heuristic with and without request
    subdivision (duplicate-suppression ablation). *)
let ablation_subdivision ~full:_ ~jobs =
  Report.section
    "Ablation: Local heuristic with vs without request subdivision";
  let strategies =
    [
      Ocd_heuristics.Local_rarest.strategy;
      Ocd_heuristics.Local_rarest.strategy_without_subdivision;
    ]
  in
  let points =
    Sweep.run_sweep ~trials:3 ~jobs ~strategies
      (List.map
         (fun n ->
           {
             Sweep.label = string_of_int n;
             point_seed = seed_abl + n;
             build =
               (fun rng ->
                 let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
                 (Scenario.single_file rng ~graph ~tokens:60 ())
                   .Scenario.instance);
           })
         [ 30; 60; 120 ])
  in
  Sweep.report ~title:"ablation request subdivision" ~x_column:"n" points;
  Report.note
    "without subdivision two peers may push the same rare block at the same \
     vertex in one turn: bandwidth inflates while makespan barely moves"

(* ------------------------------------------------------------------ *)
(* Heuristic optimality gaps on exactly solvable instances             *)
(* ------------------------------------------------------------------ *)

(** Heuristics vs exact FOCD/EOCD optima on exactly solvable
    instances — §5's stated purpose for computing bounds. *)
let optimality_gap ~full:_ ~jobs:_ =
  Report.section
    "Heuristic quality against exact optima (the §5 goal: 'a rough notion \
     of the quality of our local and global heuristics')";
  let table =
    Report.create ~title:"optimality gap on small instances"
      ~columns:
        [
          "instance";
          "strategy";
          "makespan";
          "FOCD_opt";
          "bandwidth";
          "EOCD_opt";
        ]
  in
  let rng = Prng.create ~seed:1020 in
  for i = 1 to 5 do
    let n = 4 + Prng.int rng 2 in
    let g =
      Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.5
        ~weights:(Ocd_topology.Weights.Uniform (1, 2)) ()
    in
    let tokens = 2 + Prng.int rng 2 in
    let inst = (Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance in
    match
      ( Ocd_exact.Search.focd ~max_states:100_000 inst,
        Ocd_exact.Search.eocd ~max_states:100_000 inst )
    with
    | ( Ocd_exact.Search.Solved { objective = opt_time; _ },
        Ocd_exact.Search.Solved { objective = opt_bw; _ } ) ->
      List.iter
        (fun strategy ->
          let run =
            Ocd_engine.Engine.completed_exn
              (Ocd_engine.Engine.run ~strategy ~seed:(1021 + i) inst)
          in
          let m = run.Ocd_engine.Engine.metrics in
          Report.row table
            [
              Printf.sprintf "n=%d m=%d (#%d)" n tokens i;
              strategy.Ocd_engine.Strategy.name;
              string_of_int m.Metrics.makespan;
              string_of_int opt_time;
              string_of_int m.Metrics.pruned_bandwidth;
              string_of_int opt_bw;
            ])
        heuristics
    | _ -> Report.note "instance %d exceeded the exact-search budget" i
  done;
  Report.render table;
  Report.note
    "makespans of the knowledge-rich heuristics sit within a small additive \
     gap of the FOCD optimum; pruned bandwidth approaches the EOCD optimum \
     from above"

(* ------------------------------------------------------------------ *)
(* Staleness ablation (extension, suggested in §5.1)                   *)
(* ------------------------------------------------------------------ *)

(** Extension (suggested in §5.1's Random description): peer-state
    knowledge that is k turns old — bandwidth cost of staleness. *)
let ablation_staleness ~full:_ ~jobs =
  Report.section
    "Ablation: Random heuristic with k-turns-stale peer knowledge (the \
     relaxation §5.1 suggests exploring)";
  let strategies =
    List.map
      (fun turns -> Ocd_heuristics.Random_push.with_staleness ~turns)
      [ 0; 1; 2; 4; 8 ]
  in
  let points =
    Sweep.run_sweep ~trials:3 ~jobs ~strategies
      (List.map
         (fun n ->
           {
             Sweep.label = string_of_int n;
             point_seed = seed_abl + 100 + n;
             build =
               (fun rng ->
                 let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
                 (Scenario.single_file rng ~graph ~tokens:60 ())
                   .Scenario.instance);
           })
         [ 40; 80 ])
  in
  Sweep.report ~title:"ablation knowledge staleness" ~x_column:"n" points;
  Report.note
    "stale peer maps cause re-sends of tokens the peer has meanwhile \
     received: bandwidth rises with staleness while makespan degrades only \
     mildly (re-sends still carry fresh tokens with high probability)"

(* ------------------------------------------------------------------ *)
(* Dynamics (extension)                                                *)
(* ------------------------------------------------------------------ *)

(** Extension (§6 "Changing network conditions"): heuristic makespan
    inflation under cross traffic, link flaps and churn, against the
    static network. *)
let dynamics ~full:_ ~jobs:_ =
  Report.section
    "Extension: time-varying network conditions (§6 open problem)";
  let table =
    Report.create ~title:"dynamics makespan inflation"
      ~columns:
        [ "condition"; "strategy"; "makespan"; "static"; "inflation"; "drops" ]
  in
  let build seed =
    let rng = Prng.create ~seed in
    let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:80 () in
    (Scenario.single_file rng ~graph ~tokens:60 ()).Scenario.instance
  in
  let inst = build 2101 in
  let conditions =
    [
      ("cross-traffic 25%", Ocd_dynamics.Condition.cross_traffic ~seed:1 ~prob:0.5 ~severity:0.5);
      ("cross-traffic 60%", Ocd_dynamics.Condition.cross_traffic ~seed:2 ~prob:0.8 ~severity:0.75);
      ("link flaps", Ocd_dynamics.Condition.link_flaps ~seed:3 ~down_prob:0.15 ~up_prob:0.5);
      ( "churn 5%",
        Ocd_dynamics.Condition.churn ~seed:4 ~protected:[ 0 ] ~leave_prob:0.05
          ~return_prob:0.5 );
    ]
  in
  List.iter
    (fun strategy ->
      let static_run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy ~seed:7 inst)
      in
      let static = static_run.Ocd_engine.Engine.metrics.Metrics.makespan in
      List.iter
        (fun (label, condition) ->
          let run =
            Ocd_dynamics.Dynamic_engine.run ~condition ~strategy ~seed:7 inst
          in
          match run.Ocd_dynamics.Dynamic_engine.outcome with
          | Ocd_engine.Engine.Completed ->
            let makespan =
              run.Ocd_dynamics.Dynamic_engine.metrics.Metrics.makespan
            in
            Report.row table
              [
                label;
                strategy.Ocd_engine.Strategy.name;
                string_of_int makespan;
                string_of_int static;
                Printf.sprintf "%.2fx"
                  (float_of_int makespan /. float_of_int static);
                string_of_int run.Ocd_dynamics.Dynamic_engine.dropped_moves;
              ]
          | _ ->
            Report.row table
              [
                label;
                strategy.Ocd_engine.Strategy.name;
                "aborted";
                string_of_int static;
                "-";
                string_of_int run.Ocd_dynamics.Dynamic_engine.dropped_moves;
              ])
        conditions)
    heuristics;
  Report.render table

(* ------------------------------------------------------------------ *)
(* Coding (extension)                                                  *)
(* ------------------------------------------------------------------ *)

(** Extension (§6 "Encoding"): makespan of a k-of-n rateless-coded
    download as redundancy grows. *)
let coding ~full:_ ~jobs:_ =
  Report.section "Extension: rateless coding (§6 open problem)";
  let table =
    Report.create ~title:"coding redundancy sweep"
      ~columns:
        [ "coded/required"; "strategy"; "makespan"; "bandwidth"; "mean-finish" ]
  in
  let required = 32 in
  let graph =
    Ocd_topology.Random_graph.erdos_renyi (Prng.create ~seed:2201) ~n:100 ()
  in
  List.iter
    (fun coded ->
      List.iter
        (fun strategy ->
          let rng = Prng.create ~seed:2202 in
          let t =
            Ocd_coding.Coding.single_file rng ~graph ~required ~coded ~source:0
              ()
          in
          let run = Ocd_coding.Coding.run ~strategy ~seed:5 t in
          let finishes =
            Array.to_list run.Ocd_coding.Coding.completion_times
            |> List.filter (fun c -> c >= 0)
            |> List.map float_of_int
          in
          Report.row table
            [
              Printf.sprintf "%d/%d" coded required;
              strategy.Ocd_engine.Strategy.name;
              string_of_int run.Ocd_coding.Coding.makespan;
              string_of_int run.Ocd_coding.Coding.bandwidth;
              (match finishes with
              | [] -> "-"
              | xs -> Printf.sprintf "%.1f" (Stats.mean xs));
            ])
        [ Ocd_heuristics.Random_push.strategy; Ocd_heuristics.Local_rarest.strategy ])
    [ 32; 40; 48; 64 ];
  Report.render table;
  Report.note
    "redundancy removes the last-block effect: any %d of the coded tokens \
     decode the file, so extra coded tokens can only help the makespan"
    required

(* ------------------------------------------------------------------ *)
(* Underlay (extension, §6 "Realistic topologies")                     *)
(* ------------------------------------------------------------------ *)

(** Extension (§6 "Realistic topologies"): overlay arcs routed over a
    shared physical network; makespan inflation from physical-link
    contention. *)
let underlay ~full:_ ~jobs:_ =
  Report.section
    "Extension: physical underlay beneath the overlay (§6 'Realistic \
     topologies')";
  let table =
    Report.create ~title:"underlay contention"
      ~columns:
        [
          "overlay_n";
          "strategy";
          "makespan";
          "overlay_only";
          "inflation";
          "drops";
          "link_stress";
        ]
  in
  List.iter
    (fun n ->
      let rng = Prng.create ~seed:(2301 + n) in
      let overlay = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
      let mapped =
        Ocd_underlay.Underlay.map_onto_transit_stub rng ~overlay ()
      in
      let inst =
        (Scenario.single_file rng ~graph:overlay ~tokens:40 ()).Scenario.instance
      in
      let stress = Ocd_underlay.Underlay.max_link_stress mapped in
      List.iter
        (fun strategy ->
          let plain =
            Ocd_engine.Engine.completed_exn
              (Ocd_engine.Engine.run ~strategy ~seed:7 inst)
          in
          let plain_makespan = plain.Ocd_engine.Engine.metrics.Metrics.makespan in
          let under =
            Ocd_underlay.Underlay.run mapped ~strategy ~seed:7 inst
          in
          match under.Ocd_underlay.Underlay.outcome with
          | Ocd_engine.Engine.Completed ->
            let makespan =
              under.Ocd_underlay.Underlay.metrics.Metrics.makespan
            in
            Report.row table
              [
                string_of_int n;
                strategy.Ocd_engine.Strategy.name;
                string_of_int makespan;
                string_of_int plain_makespan;
                Printf.sprintf "%.2fx"
                  (float_of_int makespan /. float_of_int plain_makespan);
                string_of_int under.Ocd_underlay.Underlay.dropped_moves;
                Printf.sprintf "%.1f" stress;
              ]
          | _ ->
            Report.row table
              [
                string_of_int n;
                strategy.Ocd_engine.Strategy.name;
                "aborted";
                string_of_int plain_makespan;
                "-";
                string_of_int under.Ocd_underlay.Underlay.dropped_moves;
                Printf.sprintf "%.1f" stress;
              ])
        [ Ocd_heuristics.Local_rarest.strategy; Ocd_heuristics.Global_greedy.strategy ])
    [ 40; 80 ];
  Report.render table;
  Report.note
    "overlay arcs share physical links (routers forward but never store); \
     link_stress > 1 means nominal overlay capacities oversubscribe some \
     physical link, and the overlay-only model overestimates throughput \
     accordingly"

(* ------------------------------------------------------------------ *)
(* Async overhead (extension)                                          *)
(* ------------------------------------------------------------------ *)

(** Extension: the {!Ocd_async} message-passing runtime across network
    profiles (lockstep, default latency, loss, link flaps) — rounds to
    completion, control overhead, retransmissions, duplicates and
    goodput per protocol, against the synchronous engine's makespan.
    Deterministic for any [jobs] value. *)
let async_overhead ~full:_ ~jobs =
  Report.section
    "Extension: asynchronous message-passing runtime (Ocd_async) — latency, \
     loss and retry overhead vs the synchronous engine";
  let rng = Prng.create ~seed:seed_async in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:40 () in
  let inst = (Scenario.single_file rng ~graph ~tokens:24 ()).Scenario.instance in
  let sync_run =
    Ocd_engine.Engine.completed_exn
      (Ocd_engine.Engine.run
         ~strategy:(Ocd_async.Local_rarest.sync_strategy ~seed:seed_async)
         ~seed:seed_async inst)
  in
  let profiles =
    [
      ("lockstep", Ocd_async.Net.lockstep, Ocd_dynamics.Condition.static);
      ("default", Ocd_async.Net.default, Ocd_dynamics.Condition.static);
      ( "loss-10%",
        { Ocd_async.Net.default with Ocd_async.Net.loss = 0.1 },
        Ocd_dynamics.Condition.static );
      ( "flaps",
        Ocd_async.Net.default,
        Ocd_dynamics.Condition.link_flaps ~seed:(seed_async + 1) ~down_prob:0.1
          ~up_prob:0.5 );
    ]
  in
  let combos =
    List.concat_map
      (fun profile ->
        List.map (fun name -> (profile, name)) Ocd_async.Registry.names)
      profiles
  in
  let results =
    Pool.map ~jobs
      (fun ((plabel, profile, condition), name) ->
        let protocol = Ocd_async.Registry.find_exn name in
        ( plabel,
          Ocd_async.Runtime.run ~profile ~condition ~protocol ~seed:seed_async
            inst ))
      combos
  in
  let table =
    Report.create ~title:"async overhead"
      ~columns:
        [
          "profile";
          "protocol";
          "rounds";
          "makespan";
          "bandwidth";
          "control";
          "retrans";
          "dup";
          "dropped";
          "goodput";
        ]
  in
  List.iter
    (fun (plabel, (r : Ocd_async.Runtime.run)) ->
      Report.row table
        [
          plabel;
          r.Ocd_async.Runtime.protocol_name;
          (match r.Ocd_async.Runtime.outcome with
          | Ocd_async.Runtime.Completed ->
            string_of_int r.Ocd_async.Runtime.rounds
          | Ocd_async.Runtime.Timed_out -> "timeout");
          Metrics.makespan_cell r.Ocd_async.Runtime.metrics;
          string_of_int r.Ocd_async.Runtime.metrics.Metrics.bandwidth;
          string_of_int r.Ocd_async.Runtime.control_messages;
          string_of_int r.Ocd_async.Runtime.retransmissions;
          string_of_int r.Ocd_async.Runtime.duplicate_deliveries;
          string_of_int r.Ocd_async.Runtime.dropped_messages;
          Printf.sprintf "%.3f" r.Ocd_async.Runtime.goodput;
        ])
    results;
  Report.render table;
  Report.note
    "synchronous twin (engine + async-local-lockstep strategy) on the same \
     instance: makespan %d, bandwidth %d — the lockstep/async-local row must \
     match both exactly (the differential guarantee)"
    sync_run.Ocd_engine.Engine.metrics.Metrics.makespan
    sync_run.Ocd_engine.Engine.metrics.Metrics.bandwidth

(* ------------------------------------------------------------------ *)
(* DHT lookup (extension)                                              *)
(* ------------------------------------------------------------------ *)

module Dht_node = Ocd_dht.Node

(* Converged-ring lookup harness: [n] Chord nodes on a bare Sim with a
   fixed 5-tick hop latency and no maintenance loops, probed with
   [lookups] random keys from random origins.  Returns the accounted
   lookup stats, the count of answers disagreeing with the ideal owner,
   and the total DHT messages sent. *)
let dht_ring_probe ~n ~lookups =
  let sim = Ocd_async.Sim.create () in
  let stats = Dht_node.fresh_stats () in
  let members = Array.init n (fun i -> i) in
  let cfg = Dht_node.config ~period:64 () in
  let ids = Dht_node.vertex_ids ~seed:seed_dht n in
  let ring = Dht_node.converged ~ids members in
  let nodes = Array.make n None in
  let messages = ref 0 in
  let env v =
    {
      Dht_node.self = v;
      seed = seed_dht;
      now = (fun () -> Ocd_async.Sim.now sim);
      after = (fun d f -> Ocd_async.Sim.after sim d f);
      send =
        (fun ~dst m ->
          incr messages;
          Ocd_async.Sim.after sim 5 (fun () ->
              match nodes.(dst) with
              | Some node -> Dht_node.handle node ~src:v m
              | None -> ()));
      alive = (fun _ -> true);
      observe = ignore;
      running = (fun () -> false);
      stats;
      obs = Ocd_obs.disabled;
    }
  in
  for v = 0 to n - 1 do
    nodes.(v) <- Some (Dht_node.create ~env:(env v) ~config:cfg ~ids (ring v))
  done;
  let rng = Prng.create ~seed:(seed_dht + n) in
  let wrong = ref 0 in
  for _ = 1 to lookups do
    let origin = Prng.int rng n in
    let key = Prng.int rng max_int in
    let expected = Dht_node.ideal_owner ~seed:seed_dht ~members key in
    match nodes.(origin) with
    | Some node ->
      Dht_node.lookup node ~key
        ~on_done:(fun ~owner ~hops:_ -> if owner <> expected then incr wrong)
        ~on_fail:(fun () -> incr wrong)
    | None -> ()
  done;
  ignore (Ocd_async.Sim.run sim);
  (stats, !wrong, !messages)

(** Extension: the {!Ocd_dht} Chord overlay.  Two tables: routed-lookup
    scaling on converged rings at n = 10^2..10^4 (mean/max hops vs the
    2*log2(n) bound, correctness vs the ideal owner, message volume),
    and dht-rarest vs the omniscient async-local baseline across
    chaos-style cells (loss, crashes, churn) — makespan inflation,
    control overhead, lookup hops and ring repairs.  Deterministic for
    any [jobs] value. *)
let dht_lookup ~full:_ ~jobs =
  Report.section
    "Extension: Chord-style DHT (Ocd_dht) — routed-lookup scaling and \
     dht-rarest vs the omniscient local-rarest oracle";
  (* Table 1: lookup cost on converged rings of growing size. *)
  let lookups = 256 in
  let sizes = [ 100; 1_000; 10_000 ] in
  let probes = Pool.map ~jobs (fun n -> (n, dht_ring_probe ~n ~lookups)) sizes in
  let table =
    Report.create ~title:"dht lookup scaling"
      ~columns:
        [ "n"; "lookups"; "mean_hops"; "max_hops"; "2log2(n)"; "wrong"; "messages" ]
  in
  List.iter
    (fun (n, ((stats : Dht_node.stats), wrong, messages)) ->
      Report.row table
        [
          string_of_int n;
          string_of_int stats.Dht_node.lookups;
          Printf.sprintf "%.2f" (Dht_node.mean_hops stats);
          string_of_int stats.Dht_node.max_hops;
          Printf.sprintf "%.1f" (2.0 *. (log (float_of_int n) /. log 2.0));
          string_of_int wrong;
          string_of_int messages;
        ])
    probes;
  Report.render table;
  Report.note
    "converged ring, iterative lookups of random keys from random origins; \
     mean hops must stay within 2*log2(n) (test_dht enforces the bound at \
     n = 10^4) and every answer must match the ideal owner (wrong = 0)";
  (* Table 2: the price of dropping the oracle.  dht-rarest discovers
     provider sets through routed lookups; async-local reads the shared
     instance state directly.  Same cells as the chaos smoke family. *)
  let cell label ~loss ~churn ~crash_prob =
    { Chaos.label; loss; flaps = false; churn; crash_prob; partition = None }
  in
  let grid =
    {
      Chaos.n = 24;
      tokens = 10;
      trials = 2;
      cells =
        [
          cell "baseline" ~loss:0.0 ~churn:false ~crash_prob:0.0;
          cell "loss-10%" ~loss:0.10 ~churn:false ~crash_prob:0.0;
          cell "loss+crash" ~loss:0.05 ~churn:false ~crash_prob:0.05;
          cell "churn+crash" ~loss:0.0 ~churn:true ~crash_prob:0.05;
        ];
    }
  in
  let n = grid.n and tokens = grid.tokens and trials = grid.trials in
  let protocols = [ "async-local"; "dht-rarest" ] in
  let combos =
    List.concat_map
      (fun (c : Chaos.cell) ->
        List.concat_map
          (fun name ->
            List.map (fun trial -> (c.label, name, trial)) (Order.range trials))
          protocols)
      grid.cells
  in
  (* Each trial is the chaos campaign's own derivation of that grid
     point; only dht-rarest is rebuilt, to read its lookup stats. *)
  let results =
    Pool.map ~jobs
      (fun (cell_label, name, trial) ->
        let s =
          Result.get_ok
            (Chaos.trial_setup ~seed:seed_dht grid ~cell_label ~protocol:name
               ~trial)
        in
        let stats = Dht_node.fresh_stats () in
        let protocol =
          if name = "dht-rarest" then Ocd_dht.Dht_rarest.protocol ~stats ()
          else s.Chaos.t_protocol
        in
        let r =
          Ocd_async.Runtime.run ~profile:s.Chaos.t_profile
            ~condition:s.Chaos.t_condition ~faults:s.Chaos.t_faults ~protocol
            ~seed:s.Chaos.t_run_seed s.Chaos.t_instance
        in
        (cell_label, name, r, stats))
      combos
  in
  let table2 =
    Report.create ~title:"dht-rarest vs omniscient local-rarest"
      ~columns:
        [
          "env";
          "protocol";
          "done";
          "makespan";
          "control";
          "retrans";
          "lookups";
          "hops_mean";
          "repairs";
          "inflation";
        ]
  in
  let rows label name =
    List.filter (fun (l, nm, _, _) -> l = label && nm = name) results
  in
  let mean_ticks rs =
    match List.filter_map (fun (_, _, r, _) -> r.Ocd_async.Runtime.completion_ticks) rs with
    | [] -> None
    | ts ->
      Some
        (float_of_int (List.fold_left ( + ) 0 ts)
        /. float_of_int (List.length ts))
  in
  List.iter
    (fun { Chaos.label; _ } ->
      let base_mean = mean_ticks (rows label "async-local") in
      List.iter
        (fun name ->
          let rs = rows label name in
          let completed =
            List.length
              (List.filter
                 (fun (_, _, r, _) ->
                   r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Completed)
                 rs)
          in
          let sum_run f =
            List.fold_left (fun acc (_, _, r, _) -> acc + f r) 0 rs
          in
          let sum_stats f =
            List.fold_left (fun acc (_, _, _, s) -> acc + f s) 0 rs
          in
          let lookups = sum_stats (fun s -> s.Dht_node.lookups) in
          let hops = sum_stats (fun s -> s.Dht_node.hops) in
          let repairs =
            sum_stats (fun s -> s.Dht_node.evictions + s.Dht_node.joins)
          in
          let dht = name = "dht-rarest" in
          Report.row table2
            [
              label;
              name;
              Printf.sprintf "%d/%d" completed trials;
              (match mean_ticks rs with
              | Some m -> Printf.sprintf "%.0f" m
              | None -> "-");
              string_of_int
                (sum_run (fun r -> r.Ocd_async.Runtime.control_messages));
              string_of_int
                (sum_run (fun r -> r.Ocd_async.Runtime.retransmissions));
              (if dht then string_of_int lookups else "-");
              (if dht && lookups > 0 then
                 Printf.sprintf "%.2f"
                   (float_of_int hops /. float_of_int lookups)
               else "-");
              (if dht then string_of_int repairs else "-");
              (match (dht, mean_ticks rs, base_mean) with
              | true, Some m, Some b when b > 0.0 ->
                Printf.sprintf "%.2fx" (m /. b)
              | _ -> "-");
            ])
        protocols)
    grid.cells;
  Report.render table2;
  Report.note
    "n = %d, %d tokens, %d trials per cell; inflation = dht-rarest mean \
     makespan over completed trials relative to async-local's — the price \
     of learning provider sets through O(log n) routed lookups instead of \
     reading the omniscient oracle"
    n tokens trials

(* ------------------------------------------------------------------ *)
(* Partition and heal                                                  *)
(* ------------------------------------------------------------------ *)

(** Extension (robustness): every async protocol across one explicit
    network partition window (split during rounds [5, 25), then heal)
    under the {!Ocd_async.Monitor} runtime invariant monitor —
    cut-dropped traffic, post-heal completion, and the monitor's
    violation count (expected 0).  Deterministic for any [jobs]. *)
let partition_heal ~full:_ ~jobs =
  Report.section
    "Extension: partition and heal — a correlated network split across every \
     async protocol, under the runtime invariant monitor";
  let n = 24 and tokens = 10 in
  let inst = Chaos.instance_of ~seed:seed_part ~n ~tokens in
  (* One explicit window: whole -> split during rounds [2, 22) -> healed.
     Early enough that no protocol finishes first, long enough that both
     sides exhaust their local content and the DHT ring diverges; the
     interesting measurement is what happens after. *)
  let window = (2, 22) in
  let faults = Ocd_dynamics.Faults.of_windows ~seed:seed_part [ window ] in
  let results =
    Pool.map ~jobs
      (fun name ->
        let protocol = Ocd_dht.Registry.find_exn name in
        let monitor = Ocd_async.Monitor.create () in
        ( Ocd_async.Runtime.run ~faults ~monitor ~protocol ~seed:seed_part inst,
          monitor ))
      Ocd_dht.Registry.names
  in
  let table =
    Report.create ~title:"partition heal"
      ~columns:
        [
          "protocol";
          "rounds";
          "ticks";
          "cut_dropped";
          "retrans";
          "dup";
          "violations";
          "verdict";
        ]
  in
  List.iter
    (fun ((r : Ocd_async.Runtime.run), _) ->
      Report.row table
        [
          r.Ocd_async.Runtime.protocol_name;
          (match r.Ocd_async.Runtime.outcome with
          | Ocd_async.Runtime.Completed ->
            string_of_int r.Ocd_async.Runtime.rounds
          | Ocd_async.Runtime.Timed_out -> "timeout");
          (match r.Ocd_async.Runtime.completion_ticks with
          | Some t -> string_of_int t
          | None -> "-");
          string_of_int r.Ocd_async.Runtime.fault_dropped;
          string_of_int r.Ocd_async.Runtime.retransmissions;
          string_of_int r.Ocd_async.Runtime.duplicate_deliveries;
          string_of_int r.Ocd_async.Runtime.violations;
          (match r.Ocd_async.Runtime.diagnosis with
          | Some d ->
            Ocd_async.Diagnosis.verdict_name d.Ocd_async.Diagnosis.verdict
          | None -> "-");
        ])
    results;
  Report.render table;
  Report.note
    "n = %d, %d tokens; the network splits in two during rounds [%d, %d) \
     (every cross-side path dark, underlay included), then heals; every \
     protocol completes from its post-heal reconciliation — dht-rarest \
     through the ring's stabilise/notify merge — with zero monitor \
     violations"
    n tokens (fst window) (snd window)

(** Scale curve for the flat CSR graph core: build time, resident
    bytes per node ({!Obj.reachable_words}) and one-round tick rate
    for Erdős–Rényi and transit-stub graphs at n = 10^3..10^5
    ([full] adds 10^6).  Timings are machine-dependent, so this
    experiment is deliberately {e not} part of [all]. *)
let graph_scale ~full ~jobs:_ =
  Report.section "Graph scale: CSR build time, footprint, and tick rate";
  let table =
    Report.create ~title:"graph-scale"
      ~columns:
        [ "topology"; "n"; "arcs"; "build_s"; "bytes_per_node"; "tick_ms"; "ticks_per_s" ]
  in
  let sizes =
    (if full then [ 1_000_000 ] else [])
    |> List.append [ 1_000; 10_000; 100_000 ]
  in
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let measure name build =
    let g, build_s = time build in
    let bytes_per_node =
      Obj.reachable_words (Obj.repr g) * (Sys.word_size / 8)
      / Ocd_graph.Digraph.vertex_count g
    in
    (* One full strategy round — every wanter scans its predecessor
       rows, so a tick touches the whole CSR; its rate is the engine
       throughput the refactor is meant to buy. *)
    let tokens = 8 in
    let all = Order.range tokens in
    let inst =
      Instance.make ~graph:g ~token_count:tokens
        ~have:[ (0, all) ]
        ~want:
          (List.filter_map
             (fun v -> if v = 0 then None else Some (v, all))
             (Order.range (Ocd_graph.Digraph.vertex_count g)))
    in
    let _, tick_s =
      time (fun () ->
          Ocd_engine.Engine.run ~step_limit:1 ~stall_patience:1
            ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:1060 inst)
    in
    Report.row table
      [
        name;
        string_of_int (Ocd_graph.Digraph.vertex_count g);
        string_of_int (Ocd_graph.Digraph.arc_count g);
        Printf.sprintf "%.3f" build_s;
        string_of_int bytes_per_node;
        Printf.sprintf "%.1f" (tick_s *. 1000.0);
        Printf.sprintf "%.2f" (1.0 /. Float.max 1e-9 tick_s);
      ]
  in
  List.iter
    (fun n ->
      measure "erdos-renyi" (fun () ->
          Ocd_topology.Random_graph.erdos_renyi
            (Prng.create ~seed:(1050 + n)) ~n ());
      measure "transit-stub" (fun () ->
          let p = Ocd_topology.Transit_stub.params_for_size n in
          Ocd_topology.Transit_stub.generate
            (Prng.create ~seed:(1051 + n)) p))
    sizes;
  Report.render table;
  Report.note
    "build = generator + CSR construction + connectivity repair; \
     bytes_per_node = Obj.reachable_words over the whole graph record; \
     tick = one local-rarest round (single source, 8 tokens, all \
     receivers).  Timings are machine-dependent, so 'all' does \
     not run this experiment"

(** Scale curve for the allocation-free engine round (packed CSR
    schedule, incremental aggregates, per-run strategy scratch): tick
    time, tick rate and allocated bytes per step for a local-rarest
    round on transit-stub graphs at n = 10^3..10^5, with 8 tokens (one
    possession word per vertex) and 100 (two), and the §5.1 makespan
    bound of each instance and its CPU time.  Timings are
    machine-dependent, so this experiment is deliberately {e not} part
    of [all]. *)
let engine_scale ~full:_ ~jobs:_ =
  Report.section
    "Engine scale: allocation-free rounds (packed schedule, incremental \
     aggregates, strategy scratch)";
  let table =
    Report.create ~title:"engine-scale"
      ~columns:
        [
          "n";
          "arcs";
          "tokens";
          "steps";
          "tick_ms";
          "ticks_per_s";
          "setup_MB";
          "alloc_MB_per_step";
          "lb";
          "lb_ms";
        ]
  in
  let measure g tokens =
    let all = Order.range tokens in
    let inst =
      Instance.make ~graph:g ~token_count:tokens
        ~have:[ (0, all) ]
        ~want:
          (List.filter_map
             (fun v -> if v = 0 then None else Some (v, all))
             (Order.range (Ocd_graph.Digraph.vertex_count g)))
    in
    let engine step_limit =
      Ocd_engine.Engine.run ~step_limit ~stall_patience:step_limit
        ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:1071 inst
    in
    (* A zero-step run first: it builds everything a run builds before
       its first round (the kernel's per-run arrays, the strategy's
       scratch) and stops.  Allocation is deterministic, so the
       five-step run's allocation less the zero-step run's is what the
       steps themselves cost, their share of the final checks
       included. *)
    let bytes0 = Gc.allocated_bytes () in
    ignore (engine 0);
    let setup = Gc.allocated_bytes () -. bytes0 in
    let bytes0 = Gc.allocated_bytes () in
    let t0 = Sys.time () in
    let run = engine 5 in
    let dt = Sys.time () -. t0 in
    let bytes = Gc.allocated_bytes () -. bytes0 in
    let steps = max 1 (Schedule.length run.Ocd_engine.Engine.schedule) in
    let per_tick = dt /. float_of_int steps in
    let t1 = Sys.time () in
    let lb = Bounds.makespan_lower_bound inst in
    let lb_dt = Sys.time () -. t1 in
    let mb x = Printf.sprintf "%.1f" (x /. (1024.0 *. 1024.0)) in
    Report.row table
      [
        string_of_int (Ocd_graph.Digraph.vertex_count g);
        string_of_int (Ocd_graph.Digraph.arc_count g);
        string_of_int tokens;
        string_of_int steps;
        Printf.sprintf "%.1f" (per_tick *. 1000.0);
        Printf.sprintf "%.2f" (1.0 /. Float.max 1e-9 per_tick);
        mb setup;
        mb ((bytes -. setup) /. float_of_int steps);
        string_of_int lb;
        Printf.sprintf "%.1f" (lb_dt *. 1000.0);
      ]
  in
  List.iter
    (fun n ->
      let p = Ocd_topology.Transit_stub.params_for_size n in
      let g =
        Ocd_topology.Transit_stub.generate (Prng.create ~seed:(1070 + n)) p
      in
      List.iter (measure g) [ 8; 100 ])
    [ 1_000; 10_000; 100_000 ];
  Report.render table;
  Report.note
    "tick = one full local-rarest round (decide + apply + incremental \
     aggregate update) on a transit-stub graph, single source, all \
     receivers; 8 tokens fit one possession word per vertex, 100 take \
     two; tick_ms = the five-step run's CPU time divided by its steps; \
     setup_MB = Gc.allocated_bytes of a zero-step run (everything a \
     run builds before its first round); alloc_MB_per_step = the \
     five-step run's allocation less setup_MB, divided by steps; \
     lb = the §5.1 makespan lower bound of the \
     instance (Bounds.makespan_lower_bound), lb_ms its CPU time.  \
     Timings are machine-dependent, so 'all' does not run this \
     experiment"

(* ------------------------------------------------------------------ *)
(* Critical-path attribution (extension)                               *)
(* ------------------------------------------------------------------ *)

(** Extension (observability): async-local under a live
    {!Ocd_obs.Causal} log across lockstep / default / loss / crash
    profiles, decomposed by {!Explain.of_causal} — one row per
    profile with the makespan's ticks split over the attribution
    categories next to the paper's scaled lower bound.  Each row's
    categories sum to its makespan exactly (asserted).  Deterministic
    for any [jobs] value. *)
let explain_attribution ~full:_ ~jobs =
  Report.section
    "Extension: causal critical-path attribution (Ocd_obs.Causal + Explain) — \
     where the makespan's ticks went, vs the paper's lower bound";
  let rng = Prng.create ~seed:seed_explain in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:24 () in
  let inst = (Scenario.single_file rng ~graph ~tokens:12 ()).Scenario.instance in
  let rows =
    [
      ("lockstep", Ocd_async.Net.lockstep, Ocd_dynamics.Faults.none);
      ("default", Ocd_async.Net.default, Ocd_dynamics.Faults.none);
      ( "loss-10%",
        { Ocd_async.Net.default with Ocd_async.Net.loss = 0.1 },
        Ocd_dynamics.Faults.none );
      ( "crash-2%",
        Ocd_async.Net.default,
        Ocd_dynamics.Faults.crashes ~seed:(seed_explain + 17) ~crash_prob:0.02
          () );
    ]
  in
  let results =
    Pool.map ~jobs
      (fun (label, profile, faults) ->
        let causal = Ocd_obs.Causal.create () in
        let protocol = Ocd_async.Registry.find_exn "async-local" in
        let r =
          Ocd_async.Runtime.run ~causal ~profile ~faults ~protocol
            ~seed:seed_explain inst
        in
        ( label,
          r,
          Explain.of_causal ~faults ~pace:profile.Ocd_async.Net.pace
            ~instance:inst causal ))
      rows
  in
  let table =
    Report.create ~title:"critical-path makespan attribution (async-local)"
      ~columns:
        ([ "profile"; "makespan"; "lb"; "hops" ]
        @ List.map Explain.category_name Explain.categories)
  in
  List.iter
    (fun (label, (r : Ocd_async.Runtime.run), dec) ->
      match dec with
      | None ->
          Report.row table
            (label :: "timeout" :: "-" :: "-"
            :: List.map (fun _ -> "-") Explain.categories)
      | Some d ->
          assert (
            List.fold_left (fun a (_, n) -> a + n) 0 d.Explain.by_category
            = d.Explain.makespan);
          assert (Some d.Explain.makespan = r.Ocd_async.Runtime.completion_ticks);
          Report.row table
            ([
               label;
               string_of_int d.Explain.makespan;
               string_of_int d.Explain.lower_bound;
               string_of_int d.Explain.path_hops;
             ]
            @ List.map
                (fun (_, n) -> string_of_int n)
                d.Explain.by_category))
    results;
  Report.render table;
  Report.note
    "each row's category ticks sum to its makespan exactly (telescoping \
     parent-chain property); lb is the paper's makespan bound scaled to ticks"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let figures =
  [
    ("1", figure1);
    ("2", figure2);
    ("3", figure3);
    ("4", figure4);
    ("5", figure5);
    ("6", figure6);
    ("7", figure7);
  ]

(* The extensions whose output is a pure function of their seeds, in
   the order [all] prints them. *)
let deterministic =
  [
    ("adversary", adversary);
    ("ip-vs-search", ip_vs_search);
    ("optimality-gap", optimality_gap);
    ("baselines", baselines);
    ("ablation", ablation_subdivision);
    ("staleness", ablation_staleness);
    ("dynamics", dynamics);
    ("coding", coding);
    ("underlay", underlay);
    ("async-overhead", async_overhead);
    ("dht-lookup", dht_lookup);
    ("partition-heal", partition_heal);
    ("explain", explain_attribution);
  ]

let all ~full ~jobs =
  List.iter (fun (_, run) -> run ~full ~jobs) (figures @ deterministic)

let experiments =
  deterministic
  @ [ ("graph-scale", graph_scale); ("engine-scale", engine_scale); ("all", all) ]
