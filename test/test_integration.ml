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
  QCheck.Test.make ~name:"deficit lb <= pruned bandwidth"
    ~count:25 (QCheck.make medium_instance_gen) (fun (inst, seed) ->
      let run =
        Ocd_engine.Engine.completed_exn
          (Ocd_engine.Engine.run
             ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:(seed + 2)
             inst)
      in
      let m = run.Ocd_engine.Engine.metrics in
      Bounds.bandwidth_lower_bound inst <= m.Metrics.pruned_bandwidth
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

(* ------------------------- sync fingerprints ------------------------- *)

(* Digests (see [Fingerprint.schedule_digest]) of the synchronous
   runs, recorded before the underlay routes, Bandwidth's relay
   search and the Takahashi–Matsuyama rounds stopped repeating their
   graph searches: any drift in one move of a heuristic, baseline,
   underlay or serial-Steiner schedule fails here. *)
let engine_digest strategy inst ~seed =
  let r = Ocd_engine.Engine.run ~strategy ~seed inst in
  Fingerprint.schedule_digest ~outcome:r.Ocd_engine.Engine.outcome
    ~extra:[ r.Ocd_engine.Engine.fresh_deliveries ]
    r.Ocd_engine.Engine.schedule

let underlay_digest strategy (inst : Instance.t) ~seed =
  let module U = Ocd_underlay.Underlay in
  let t = U.map_onto_transit_stub (Prng.create ~seed) ~overlay:inst.graph () in
  let r = U.run t ~strategy ~seed inst in
  Fingerprint.schedule_digest ~outcome:r.U.outcome
    ~extra:
      [ r.U.dropped_moves; r.U.fresh_deliveries;
        Int64.to_int (Int64.bits_of_float (U.max_link_stress t)) ]
    r.U.schedule

(* The bound, then every token's Takahashi–Matsuyama arcs in the
   order the tree grew them, then the serial plan. *)
let steiner_digest (inst : Instance.t) ~seed:_ =
  let module S = Ocd_baselines.Serial_steiner in
  let tree token =
    let terminals =
      List.filter
        (fun v -> not (Bitset.mem inst.have.(v) token))
        (Instance.wanters inst token)
    in
    let t =
      Ocd_graph.Steiner.takahashi_matsuyama inst.graph
        ~sources:(Instance.holders inst token) ~terminals
    in
    List.concat_map (fun (u, v) -> [ u; v ]) t.Ocd_graph.Steiner.arcs
  in
  Fingerprint.schedule_digest ~outcome:Ocd_engine.Engine.Completed
    ~extra:
      (S.bandwidth_upper_bound inst
      :: List.concat_map tree (Order.range inst.token_count))
    (S.plan inst)

let run_baselines =
  [
    Ocd_heuristics.Flow_step.strategy;
    Ocd_baselines.Tree_push.strategy ();
    Ocd_baselines.Split_forest.strategy ~k:4 ();
    Ocd_baselines.Fast_replica.strategy ();
    Ocd_baselines.Serial_steiner.strategy;
  ]

let sync_fingerprints =
  [
    ( "round-robin",
      [
        ("random/single", "9b0bc3f62c79d76d3b57e9e2e403cd18");
        ("random/multi", "93e8555250b7cef494134b09bbc56960");
        ("transit-stub/single", "4bb7507935cd598bee89c90fbfc12ef6");
        ("transit-stub/multi", "70efdaafef4a36bebf719e853eb02028");
      ] );
    ( "random",
      [
        ("random/single", "aba6f27e06b1ae09fffea8278ee91a3b");
        ("random/multi", "f88a41fad3dadda525dc46c64376d798");
        ("transit-stub/single", "4f1cfa5bce7a4005fa7cee6003f90108");
        ("transit-stub/multi", "8262732bc0e62066e22297feb6f7047e");
      ] );
    ( "local",
      [
        ("random/single", "c17f338d2927ecba79e0c5f485fe08ec");
        ("random/multi", "2c0aebeac2b606c607779917779624bf");
        ("transit-stub/single", "7f6b7cc63512caee83f5b11d4fa68922");
        ("transit-stub/multi", "0046967571214f0ee8bd702e2d1cc9d6");
      ] );
    ( "bandwidth",
      [
        ("random/single", "c1cb30d5a0975b5d24ae0f98da2d5321");
        ("random/multi", "7ee3a7dbb31e0e080e5eb1f3a8bf1b08");
        ("transit-stub/single", "32da65966fbf0d0cb4374edd353c44a2");
        ("transit-stub/multi", "a288c87a985b42406e2c8413976872cb");
      ] );
    ( "global",
      [
        ("random/single", "2683c07435700dec1be7bf1191c25230");
        ("random/multi", "395ea3837aeda1970bb933d41693f3e5");
        ("transit-stub/single", "8c2f029277721657cc19fe2cf031217f");
        ("transit-stub/multi", "a2a6ac21a4bbe692d1346ecf3607c7c9");
      ] );
    ( "flow-step",
      [
        ("random/single", "7c84406db461d13e7848ae5dae5e42a6");
        ("random/multi", "ca54e7eacda31c619d3f1881ae08a0bc");
        ("transit-stub/single", "d9b739ba4b7fee198102e2a09deb63d2");
        ("transit-stub/multi", "4e13981d85aa6bd4a8b0b1c17ebc0819");
      ] );
    ( "tree-push",
      [
        ("random/single", "9ae147f7fd7ebccf9ca37e5f8bc8d204");
        ("random/multi", "ac711e71e4025252a1bd68db414eae43");
        ("transit-stub/single", "e6e2cd5793d978ac31d179d3832fd32c");
        ("transit-stub/multi", "3fdee76d1df66105051c0db821ead711");
      ] );
    ( "split-forest-4",
      [
        ("random/single", "cd0e8ef0bb843e281bdc1424c92db2bc");
        ("random/multi", "8692e6c58a33303ae18933da1ee1117f");
        ("transit-stub/single", "a853b585440d40bf2fdc1aaa4bb8354f");
        ("transit-stub/multi", "fbc6a670dfd502d122eefd3d1ed915fb");
      ] );
    ( "fast-replica",
      [
        ("random/single", "3ea91391e3d26173ddf189cfb31d0377");
        ("random/multi", "4bc38e702785af54ef5d81f9ad81bc78");
        ("transit-stub/single", "55271cc63d2ee43f0452dc3d3b8de456");
        ("transit-stub/multi", "0d98b59d1558001bb0c1074bc2d24ce6");
      ] );
    ( "serial-steiner",
      [
        ("random/single", "ba2f9007c660917f063740f4d7ebfd5d");
        ("random/multi", "98aa64fa97948377a0ac627e07388815");
        ("transit-stub/single", "f23d847c94755209d125a39f04bc6c5e");
        ("transit-stub/multi", "41aec94432a1a33dcc00ca33ac43eb3c");
      ] );
    ( "underlay round-robin",
      [
        ("random/single", "a1b6e9f4fd1aa09da8bbe432533985f7");
        ("random/multi", "dd8775557e07129d7bc3d91c0f1e372f");
        ("transit-stub/single", "b3e53eb161df806e9f49b5c257acd2b0");
        ("transit-stub/multi", "c4367959dd1e807e6dbd3aa19f7628aa");
      ] );
    ( "underlay random",
      [
        ("random/single", "721b7b3521b1e4cc471071d9d213e749");
        ("random/multi", "bb16ddf097416361f4f5d18752c48f68");
        ("transit-stub/single", "0e3dc28a72fd55f92d66cbaf74f6beac");
        ("transit-stub/multi", "3050d8df1ddb193d92d1e131b3c8861f");
      ] );
    ( "underlay local",
      [
        ("random/single", "eb9690a74d1428d7ee2410632ca1db51");
        ("random/multi", "79b652a38fc4c512fc918cbfda246c5e");
        ("transit-stub/single", "e1115732c8034bdbbeab2197eb695573");
        ("transit-stub/multi", "07a8b4b6d2cc99d21ae0122a1a1ab88e");
      ] );
    ( "underlay bandwidth",
      [
        ("random/single", "6461ff1bf6d2405f48f7c66700fe8300");
        ("random/multi", "a0020ffba8d13308aa829876f9c81575");
        ("transit-stub/single", "3545be3412a738f55d6e5fc2da1e80dd");
        ("transit-stub/multi", "2e8216b7f34ccb6d2324f544f5298548");
      ] );
    ( "underlay global",
      [
        ("random/single", "8f9c72ea03beadbf585ddb519b45959f");
        ("random/multi", "d8bc1da5e28a8588a24e868691150e27");
        ("transit-stub/single", "91277adffe12aeecdd183bbdf23cbbc7");
        ("transit-stub/multi", "a07a21bdc50096bd412f36f62190805b");
      ] );
    ( "serial-steiner bound",
      [
        ("random/single", "0a2ac2786de06f4db9189bd6d7a66407");
        ("random/multi", "10532b9886ebe3d7e6c479264ac60d75");
        ("transit-stub/single", "59e54b55be5f01c5bb2aaeb3d9ea5f76");
        ("transit-stub/multi", "98feb687b6c4083b8f11dd6071be1e49");
      ] );
  ]

let sync_digesters =
  List.map
    (fun (s : Ocd_engine.Strategy.t) -> (s.name, engine_digest s))
    (Ocd_heuristics.Registry.all @ run_baselines)
  @ List.map
      (fun (s : Ocd_engine.Strategy.t) ->
        ("underlay " ^ s.name, underlay_digest s))
      Ocd_heuristics.Registry.all
  @ [ ("serial-steiner bound", steiner_digest) ]

let test_sync_fingerprints () =
  List.iter
    (fun (name, digest_of) ->
      Fingerprint.sync_check ~name
        ~expected:(List.assoc name sync_fingerprints) digest_of)
    sync_digesters

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
      ( "fingerprint",
        [ Alcotest.test_case "schedule digests" `Quick test_sync_fingerprints ] );
    ]
