(* Cross-library integration properties: heuristics vs exact optima,
   bounds sandwiches, metric/fairness accounting identities. *)

open Ocd_prelude
open Ocd_core

let qtest = QCheck_alcotest.to_alcotest

let tiny_instance_gen =
  QCheck.Gen.(
    let* seed = int_range 0 4_000 in
    let rng = Prng.create ~seed in
    let n = 3 + Prng.int rng 2 in
    let g =
      Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.5
        ~weights:(Ocd_topology.Weights.Uniform (1, 2)) ()
    in
    let tokens = 1 + Prng.int rng 2 in
    return ((Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance, seed))

let medium_instance_gen =
  QCheck.Gen.(
    let* seed = int_range 0 4_000 in
    let rng = Prng.create ~seed in
    let n = 10 + Prng.int rng 20 in
    let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
    let tokens = 2 + Prng.int rng 8 in
    return ((Scenario.single_file rng ~graph:g ~tokens ()).Scenario.instance, seed))

(* Every heuristic's results dominate the exact optima. *)
let prop_heuristics_dominate_exact =
  QCheck.Test.make ~name:"heuristic makespan/bandwidth >= exact optima"
    ~count:15 (QCheck.make tiny_instance_gen) (fun (inst, seed) ->
      match
        ( Ocd_exact.Search.focd ~max_states:50_000 inst,
          Ocd_exact.Search.eocd ~max_states:50_000 inst )
      with
      | ( Ocd_exact.Search.Solved { objective = opt_time; _ },
          Ocd_exact.Search.Solved { objective = opt_bw; _ } ) ->
        List.for_all
          (fun strategy ->
            let run =
              Ocd_engine.Engine.completed_exn
                (Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst)
            in
            let m = run.Ocd_engine.Engine.metrics in
            m.Metrics.makespan >= opt_time
            && m.Metrics.bandwidth >= opt_bw
            && m.Metrics.pruned_bandwidth >= opt_bw)
          Ocd_heuristics.Registry.all
      | _ -> QCheck.assume_fail ())

(* The bound sandwich: deficit <= relay-aware <= pruned heuristic
   bandwidth, and makespan lower bound <= best heuristic makespan. *)
let prop_bound_sandwich =
  QCheck.Test.make ~name:"deficit <= relay-aware lb <= pruned bandwidth"
    ~count:25 (QCheck.make medium_instance_gen) (fun (inst, seed) ->
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run
             ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:(seed + 2)
             inst)
      in
      let m = run.Ocd_engine.Engine.metrics in
      let deficit = Bounds.bandwidth_lower_bound inst in
      let relay = Bounds.relay_aware_bandwidth_lower_bound inst in
      deficit <= relay
      && relay <= m.Metrics.pruned_bandwidth
      && Bounds.makespan_lower_bound inst <= m.Metrics.makespan)

(* Serial-Steiner sits between the exact EOCD optimum and any
   flooding heuristic's raw bandwidth on single-file workloads. *)
let prop_serial_steiner_sandwich =
  QCheck.Test.make ~name:"EOCD <= serial-steiner <= flooding bandwidth"
    ~count:10 (QCheck.make tiny_instance_gen) (fun (inst, seed) ->
      match Ocd_exact.Search.eocd ~max_states:50_000 inst with
      | Ocd_exact.Search.Solved { objective = opt_bw; _ } ->
        let steiner = Ocd_baselines.Serial_steiner.bandwidth_upper_bound inst in
        let flood =
          (Ocd_engine.Engine.completed_exn
             (Ocd_engine.Engine.run
                ~strategy:Ocd_heuristics.Round_robin.strategy ~seed:(seed + 3)
                inst))
            .Ocd_engine.Engine.metrics.Metrics.bandwidth
        in
        opt_bw <= steiner && steiner <= max steiner flood
        (* flooding can in principle beat Steiner only below its own
           pruned floor; raw round-robin never does on these sizes *)
        && steiner <= flood
      | _ -> QCheck.assume_fail ())

(* Flood-then-optimal is diameter-additive w.r.t. its planner. *)
let prop_flood_optimal_additive =
  QCheck.Test.make ~name:"flood-optimal makespan <= diameter + planner length"
    ~count:10 (QCheck.make tiny_instance_gen) (fun (inst, seed) ->
      match Ocd_exact.Search.focd ~max_states:50_000 inst with
      | Ocd_exact.Search.Solved { objective = opt; schedule } ->
        let planner _ = schedule in
        let strategy =
          Ocd_engine.Flood_optimal.strategy ~planner ~name:"flood-test"
        in
        let run =
          Ocd_engine.Engine.completed_exn
            (Ocd_engine.Engine.run ~strategy ~seed:(seed + 4) inst)
        in
        run.Ocd_engine.Engine.metrics.Metrics.makespan
        <= Ocd_graph.Paths.diameter inst.Instance.graph + opt
      | _ -> QCheck.assume_fail ())

(* Accounting identities: fairness totals equal bandwidth; completion
   times are exactly the want-satisfaction frontier. *)
let prop_accounting_identities =
  QCheck.Test.make ~name:"fairness totals and completion times consistent"
    ~count:25 (QCheck.make medium_instance_gen) (fun (inst, seed) ->
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Random_push.strategy
             ~seed:(seed + 5) inst)
      in
      let schedule = run.Ocd_engine.Engine.schedule in
      let m = run.Ocd_engine.Engine.metrics in
      let f = Fairness.of_schedule inst schedule in
      let sum = Array.fold_left ( + ) 0 in
      sum f.Fairness.uploads = m.Metrics.bandwidth
      && sum f.Fairness.downloads = m.Metrics.bandwidth
      && Array.for_all (fun c -> c >= 0) m.Metrics.completion_times
      &&
      let final = Validate.final_possessions inst schedule in
      Array.for_all2
        (fun want have -> Bitset.subset want have)
        inst.Instance.want final)

(* The codec survives a full generate -> solve -> dump -> load ->
   revalidate pipeline. *)
let prop_pipeline_roundtrip =
  QCheck.Test.make ~name:"generate/solve/dump/load/revalidate pipeline"
    ~count:15 (QCheck.make medium_instance_gen) (fun (inst, seed) ->
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Global_greedy.strategy
             ~seed:(seed + 6) inst)
      in
      match
        ( Codec.instance_of_string (Codec.instance_to_string inst),
          Codec.schedule_of_string
            (Codec.schedule_to_string run.Ocd_engine.Engine.schedule) )
      with
      | Ok inst', Ok schedule' ->
        Validate.check_successful inst' schedule' = Ok ()
        && (Metrics.of_schedule inst' schedule').Metrics.bandwidth
           = run.Ocd_engine.Engine.metrics.Metrics.bandwidth
      | _ -> false)

(* Theorem 2 in codec form: a pruned successful schedule serialises in
   O(nm log(nm)) characters — each of its <= m(n-1) moves takes
   O(log n + log m) digits.  We check the concrete bound with the
   codec's constants. *)
let prop_theorem2_description_size =
  QCheck.Test.make ~name:"pruned schedules serialise within the Theorem 2 bound"
    ~count:20 (QCheck.make medium_instance_gen) (fun (inst, seed) ->
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy
             ~seed:(seed + 7) inst)
      in
      let pruned = Prune.prune inst run.Ocd_engine.Engine.schedule in
      let n = Instance.vertex_count inst and m = inst.Instance.token_count in
      let moves = Schedule.move_count pruned in
      let digits x = String.length (string_of_int (max 1 x)) in
      (* per move: "src>dst:token " <= 2 digits(n) + digits(m) + 3;
         per step: "step\n" = 5; header "schedule\n" = 9 *)
      let bound =
        (moves * ((2 * digits n) + digits m + 3))
        + (Schedule.length pruned * 5)
        + 16
      in
      moves <= m * (n - 1)
      && String.length (Codec.schedule_to_string pruned) <= bound)

(* Hybrid interpolates between the two exact extremes: the minimum
   bandwidth within the optimal time (§3.4's hybrid goal,
   [Search.eocd ~horizon]) is a schedule no longer than FOCD's optimum
   and no cheaper than EOCD's. *)
let prop_hybrid_interpolates =
  QCheck.Test.make
    ~name:"hybrid objective interpolates between FOCD and EOCD extremes"
    ~count:8 (QCheck.make tiny_instance_gen) (fun (inst, _) ->
      match
        ( Ocd_exact.Search.focd ~max_states:50_000 inst,
          Ocd_exact.Search.eocd ~max_states:50_000 inst )
      with
      | ( Ocd_exact.Search.Solved { objective = opt_time; _ },
          Ocd_exact.Search.Solved { objective = opt_bw; _ } ) -> (
        match
          Ocd_exact.Search.eocd ~max_states:50_000 ~horizon:opt_time inst
        with
        | Ocd_exact.Search.Solved { objective = bandwidth; schedule } ->
          Schedule.length schedule <= opt_time && bandwidth >= opt_bw
        | Ocd_exact.Search.Unsatisfiable -> false
        | Ocd_exact.Search.Budget_exceeded -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "ocd_integration"
    [
      ( "cross-library",
        [
          qtest prop_heuristics_dominate_exact;
          qtest prop_bound_sandwich;
          qtest prop_serial_steiner_sandwich;
          qtest prop_flood_optimal_additive;
          qtest prop_accounting_identities;
          qtest prop_pipeline_roundtrip;
          qtest prop_theorem2_description_size;
          qtest prop_hybrid_interpolates;
        ] );
    ]
