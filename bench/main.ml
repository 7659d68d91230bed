(* Benchmark harness.

   Part 1 regenerates every figure of the paper's evaluation section
   (plus the extension experiments) through Ocd_bench.Experiments —
   tables and CSV lines on stdout.

   Part 2 runs bechamel micro-benchmarks of the hot building blocks
   backing each figure: one Test.make per experiment family, measuring
   the per-run cost of the workload that experiment stresses.

   Usage: main.exe [--full] [--figures-only | --micro-only] [--jobs N]
   OCD_BENCH_FULL=1 is equivalent to --full (the paper's exact sweep
   parameters; the default is a faster sweep with the same shape).
   --jobs N (or OCD_BENCH_JOBS=N) runs the figure sweeps on N domains;
   the default is Domain.recommended_domain_count.  Figure output is
   byte-identical for every jobs value. *)

open Ocd_core
open Ocd_prelude

let build_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ~source:0 ()).Scenario.instance

let run strategy inst seed =
  Ocd_engine.Engine.completed_exn (Ocd_engine.Engine.run ~strategy ~seed inst)

(* --------------------------- micro ------------------------------- *)

let micro_tests () =
  let open Bechamel in
  (* Figure 2/3 workhorse: one full heuristic run on a mid-size
     instance, one test per heuristic. *)
  let inst_mid = build_instance ~seed:42 ~n:60 ~tokens:40 in
  let heuristic_tests =
    List.map
      (fun strategy ->
        Test.make
          ~name:("fig2/run-" ^ strategy.Ocd_engine.Strategy.name)
          (Staged.stage (fun () -> ignore (run strategy inst_mid 7))))
      Ocd_heuristics.Registry.all
  in
  (* Figure 4's extra cost centres: pruning and the §5.1 bounds. *)
  let sched =
    (run Ocd_heuristics.Random_push.strategy inst_mid 7).Ocd_engine.Engine.schedule
  in
  let prune_test =
    Test.make ~name:"fig4/prune"
      (Staged.stage (fun () -> ignore (Prune.prune inst_mid sched)))
  in
  let bounds_test =
    Test.make ~name:"fig4/makespan-lower-bound"
      (Staged.stage (fun () -> ignore (Bounds.makespan_lower_bound inst_mid)))
  in
  (* Figure 5/6: scenario construction incl. token partition. *)
  let scenario_test =
    Test.make ~name:"fig5/scenario-subdivide"
      (Staged.stage (fun () ->
           let rng = Prng.create ~seed:9 in
           let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:100 () in
           ignore
             (Scenario.subdivide_files rng ~graph ~total_tokens:128 ~files:16 ())))
  in
  (* Figure 7: one reduction decision. *)
  let reduction_test =
    Test.make ~name:"fig7/reduction-decision"
      (Staged.stage (fun () ->
           let rng = Prng.create ~seed:3 in
           let g =
             Ocd_topology.Random_graph.erdos_renyi rng ~n:8 ~p:0.4
               ~weights:(Ocd_topology.Weights.Constant 1) ()
           in
           ignore (Ocd_exact.Reduction.two_step_solvable g ~k:3)))
  in
  (* Figure 1 / IP: one exact solve. *)
  let exact_test =
    Test.make ~name:"fig1/exact-focd"
      (Staged.stage (fun () ->
           ignore (Ocd_exact.Search.focd (Figure1.instance ()))))
  in
  let ip_test =
    Test.make ~name:"fig1/ip-eocd-horizon3"
      (Staged.stage (fun () ->
           ignore
             (Ocd_exact.Ip_formulation.eocd_at_horizon (Figure1.instance ())
                ~horizon:3)))
  in
  (* Post-hoc derivation from a long pipelined schedule in one
     Timeline pass. *)
  let ring_inst, ring_sched =
    let n = 120 and tokens = 120 in
    let arcs =
      List.concat_map
        (fun v -> [ (v, (v + 1) mod n, 1); ((v + 1) mod n, v, 1) ])
        (Order.range n)
    in
    let g = Ocd_graph.Digraph.of_edges ~vertex_count:n arcs in
    let all = Order.range tokens in
    let inst =
      Instance.make ~graph:g ~token_count:tokens
        ~have:[ (0, all) ]
        ~want:
          (List.filter_map
             (fun v -> if v = 0 then None else Some (v, all))
             (Order.range n))
    in
    (inst, (run Ocd_heuristics.Local_rarest.strategy inst 7).Ocd_engine.Engine.schedule)
  in
  let timeline_test =
    Test.make ~name:"timeline/one-pass-ring-120"
      (Staged.stage (fun () ->
           ignore (Timeline.completion_times (Timeline.run ring_inst ring_sched))))
  in
  (* Async runtime: one full protocol run on a mid-size instance, per
     protocol (default profile), plus the lockstep twin of local-rarest
     — its cost over the sync engine is the event-queue overhead. *)
  let inst_async = build_instance ~seed:42 ~n:40 ~tokens:24 in
  let async_tests =
    List.map
      (fun name ->
        let protocol () = Option.get (Ocd_async.Registry.find name) in
        Test.make ~name:("async/run-" ^ name)
          (Staged.stage (fun () ->
               ignore
                 (Ocd_async.Runtime.run ~protocol:(protocol ()) ~seed:7
                    inst_async))))
      Ocd_async.Registry.names
  in
  let async_lockstep_test =
    Test.make ~name:"async/run-async-local-lockstep"
      (Staged.stage (fun () ->
           ignore
             (Ocd_async.Runtime.run ~profile:Ocd_async.Net.lockstep
                ~protocol:(Ocd_async.Local_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  (* The same run under a crash-recovery fault plan: the cost delta over
     async/run-local-rarest is the fault machinery (epoch checks, crash
     and restart handling, failure-detector bookkeeping, refetch). *)
  let async_faulted_test =
    let faults =
      Ocd_dynamics.Faults.crashes ~seed:9 ~protected:[ 0 ] ~crash_prob:0.05
        ~recover_prob:0.5 ()
    in
    Test.make ~name:"async/run-local-rarest-crashes"
      (Staged.stage (fun () ->
           ignore
             (Ocd_async.Runtime.run ~faults ~round_limit:400
                ~protocol:(Ocd_async.Local_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  (* The message adversary at full throttle (every message duplicated,
     delayed and checksum-corrupted with probability 1): the delta over
     async/run-async-local is the per-message cost of the adversary's
     coin draws plus the extra deliveries it schedules. *)
  let net_adversary_test =
    let adversary =
      {
        Ocd_async.Net.dup_prob = 1.0;
        delay_prob = 1.0;
        max_delay = 8;
        corrupt_prob = 0.2;
      }
    in
    Test.make ~name:"net/adversary"
      (Staged.stage (fun () ->
           ignore
             (Ocd_async.Runtime.run ~adversary ~round_limit:400
                ~protocol:(Ocd_async.Local_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  (* One full ddmin shrink of a failing partition trial — the cost of a
     chaos --shrink invocation's inner loop (tens to hundreds of replay
     runs on a small instance). *)
  let chaos_shrink_test =
    Test.make ~name:"chaos/shrink"
      (Staged.stage (fun () ->
           match
             Ocd_bench.Chaos.failures ~seed:1 Ocd_bench.Chaos.failing_grid
           with
           | [] -> ()
           | (case, _) :: _ -> ignore (Ocd_bench.Shrink.shrink case)))
  in
  (* DHT building blocks: the O(n log n) converged-ring precompute, the
     routed-lookup path on a bare Sim (no maintenance traffic, so the
     row isolates routing cost), and a full dht-rarest protocol run on
     the same instance as the async/run-* rows — the delta over
     async/run-async-local is the price of DHT-based provider
     discovery. *)
  let dht_ring_build_test =
    let members = Array.init 10_000 (fun i -> i) in
    Test.make ~name:"dht/converged-ring-10k"
      (Staged.stage (fun () ->
           (* the sorted ring and fingers are precomputed eagerly; the
              returned closure is per-vertex assembly *)
           let ring = Ocd_dht.Node.converged ~seed:7 ~succ_count:8 members in
           ignore (ring 0)))
  in
  let dht_lookup_test =
    let n = 256 in
    let members = Array.init n (fun i -> i) in
    let cfg = Ocd_dht.Node.config ~period:64 () in
    let ring = Ocd_dht.Node.converged ~seed:7 ~succ_count:8 members in
    Test.make ~name:"dht/lookup-converged-256"
      (Staged.stage (fun () ->
           let sim = Ocd_async.Sim.create () in
           let stats = Ocd_dht.Node.fresh_stats () in
           let nodes = Array.make n None in
           let env v =
             {
               Ocd_dht.Node.self = v;
               seed = 7;
               now = (fun () -> Ocd_async.Sim.now sim);
               after = (fun d f -> Ocd_async.Sim.after sim d f);
               send =
                 (fun ~dst m ->
                   Ocd_async.Sim.after sim 5 (fun () ->
                       match nodes.(dst) with
                       | Some node -> Ocd_dht.Node.handle node ~src:v m
                       | None -> ()));
               alive = (fun _ -> true);
               observe = ignore;
               running = (fun () -> false);
               stats;
               obs = Ocd_obs.disabled;
             }
           in
           for v = 0 to n - 1 do
             nodes.(v) <-
               Some (Ocd_dht.Node.create ~env:(env v) ~config:cfg (ring v))
           done;
           let rng = Prng.create ~seed:11 in
           for _ = 1 to 64 do
             match nodes.(Prng.int rng n) with
             | Some node ->
               Ocd_dht.Node.lookup node ~key:(Prng.int rng max_int)
                 ~on_done:(fun ~owner:_ ~hops:_ -> ())
                 ~on_fail:(fun () -> ())
             | None -> ()
           done;
           ignore (Ocd_async.Sim.run sim)))
  in
  let dht_run_test =
    Test.make ~name:"dht/run-dht-rarest"
      (Staged.stage (fun () ->
           ignore
             (Ocd_async.Runtime.run
                ~protocol:(Ocd_dht.Dht_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  (* Observability overhead: the same engine run plain, with the
     explicitly-disabled scope (the <2% Null-sink acceptance check —
     one flag test per hot-path site), and with a live memory sink +
     registry (the full cost of capture, for context). *)
  let obs_baseline_test =
    Test.make ~name:"obs/run-local-baseline"
      (Staged.stage (fun () ->
           ignore (run Ocd_heuristics.Local_rarest.strategy inst_mid 7)))
  in
  let obs_null_test =
    Test.make ~name:"obs/run-local-null"
      (Staged.stage (fun () ->
           ignore
             (Ocd_engine.Engine.run ~obs:Ocd_obs.disabled
                ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:7
                inst_mid)))
  in
  let obs_memory_test =
    Test.make ~name:"obs/run-local-memory"
      (Staged.stage (fun () ->
           let obs = Ocd_obs.create ~sink:(Ocd_obs.Sink.memory ()) () in
           ignore
             (Ocd_engine.Engine.run ~obs
                ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:7
                inst_mid)))
  in
  (* Causal log: the same async run with the log disabled (the
     zero-cost claim — every Sim/Net/Runtime hook is one flag load and
     branch) and live (full happens-before capture, for context), plus
     raw append streaming at 10^5 events — the log must not become the
     hot path at instrumentation scale. *)
  let causal_off_test =
    Test.make ~name:"causal/run-async-local-off"
      (Staged.stage (fun () ->
           ignore
             (Ocd_async.Runtime.run ~causal:Ocd_obs.Causal.disabled
                ~protocol:(Ocd_async.Local_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  let causal_on_test =
    Test.make ~name:"causal/run-async-local-on"
      (Staged.stage (fun () ->
           let causal = Ocd_obs.Causal.create () in
           ignore
             (Ocd_async.Runtime.run ~causal
                ~protocol:(Ocd_async.Local_rarest.protocol ())
                ~seed:7 inst_async)))
  in
  let causal_append_test =
    Test.make ~name:"causal/append-100k"
      (Staged.stage (fun () ->
           let causal = Ocd_obs.Causal.create () in
           for i = 0 to 99_999 do
             let s =
               Ocd_obs.Causal.record_send causal ~tick:i ~node:(i land 63)
                 ~dst:((i + 1) land 63) ~depart:(i + 2) ~token:(i land 15)
                 ~retry:false
             in
             ignore
               (Ocd_obs.Causal.record_deliver causal ~tick:(i + 9)
                  ~node:((i + 1) land 63)
                  ~src:(i land 63) ~send:s ~token:(i land 15))
           done))
  in
  (* Graph core: CSR construction and topology generation at a size
     (50k) where the skip samplers and bulk array paths are active —
     the regime the flat representation exists for. *)
  let graph_n = 50_000 in
  let graph_build_er_test =
    Test.make ~name:"graph/build-er-50k"
      (Staged.stage (fun () ->
           ignore
             (Ocd_topology.Random_graph.erdos_renyi (Prng.create ~seed:21)
                ~n:graph_n ())))
  in
  let graph_build_ts_test =
    let p = Ocd_topology.Transit_stub.params_for_size graph_n in
    Test.make ~name:"graph/build-transit-stub-50k"
      (Staged.stage (fun () ->
           ignore (Ocd_topology.Transit_stub.generate (Prng.create ~seed:22) p)))
  in
  let graph_tick_test =
    let p = Ocd_topology.Transit_stub.params_for_size graph_n in
    let g = Ocd_topology.Transit_stub.generate (Prng.create ~seed:23) p in
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
    Test.make ~name:"graph/tick-local-rarest-50k"
      (Staged.stage (fun () ->
           ignore
             (Ocd_engine.Engine.run ~step_limit:1 ~stall_patience:1
                ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:7 inst)))
  in
  (* Engine rounds at scale: the allocation-free decide/apply path —
     packed schedule emission, incremental aggregates and strategy
     scratch.  One full local-rarest tick on transit-stub graphs of
     rising size; together with Gc stats these are the ticks/sec and
     bytes/step rows of the engine-scale experiment. *)
  let engine_tick_tests =
    List.map
      (fun n ->
        let p = Ocd_topology.Transit_stub.params_for_size n in
        let g =
          Ocd_topology.Transit_stub.generate (Prng.create ~seed:(24 + n)) p
        in
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
        Test.make
          ~name:(Printf.sprintf "engine/tick-local-rarest-%dk" (n / 1000))
          (Staged.stage (fun () ->
               ignore
                 (Ocd_engine.Engine.run ~step_limit:1 ~stall_patience:1
                    ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:7 inst))))
      [ 1_000; 10_000; 100_000 ]
  in
  (* Substrate: steiner tree on an evaluation-size graph. *)
  let steiner_test =
    let rng = Prng.create ~seed:5 in
    let g = Ocd_topology.Random_graph.erdos_renyi rng ~n:200 () in
    let terminals = List.filteri (fun i _ -> i mod 3 = 0) (Ocd_graph.Digraph.vertices g) in
    Test.make ~name:"substrate/steiner-200"
      (Staged.stage (fun () ->
           ignore
             (Ocd_graph.Steiner.takahashi_matsuyama g ~sources:[ 0 ] ~terminals)))
  in
  heuristic_tests
  @ [
      prune_test;
      bounds_test;
      scenario_test;
      reduction_test;
      exact_test;
      ip_test;
      timeline_test;
      graph_build_er_test;
      graph_build_ts_test;
      graph_tick_test;
      steiner_test;
    ]
  @ engine_tick_tests
  @ async_tests
  @ [ async_lockstep_test; async_faulted_test; net_adversary_test ]
  @ [ chaos_shrink_test ]
  @ [ dht_ring_build_test; dht_lookup_test; dht_run_test ]
  @ [ obs_baseline_test; obs_null_test; obs_memory_test ]
  @ [ causal_off_test; causal_on_test; causal_append_test ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "\n==== bechamel micro-benchmarks ====\n";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"ocd" ~fmt:"%s %s" (micro_tests ()))
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.sprintf "%12.1f ns/run" est
        | _ -> "           n/a"
      in
      Printf.printf "  %-40s %s\n" name ns)
    (List.sort compare rows);
  print_newline ()

(* --------------------------- main -------------------------------- *)

(* [--jobs N] from argv, falling back to OCD_BENCH_JOBS /
   Domain.recommended_domain_count (see Pool.default_jobs). *)
let rec jobs_of_args = function
  | "--jobs" :: value :: _ -> (
    match int_of_string_opt value with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      prerr_endline "--jobs expects a positive integer";
      exit 2)
  | "--jobs" :: [] ->
    prerr_endline "--jobs expects a positive integer";
    exit 2
  | _ :: rest -> jobs_of_args rest
  | [] -> Pool.default_jobs ()

let () =
  let args = Array.to_list Sys.argv in
  let full =
    List.mem "--full" args || Sys.getenv_opt "OCD_BENCH_FULL" = Some "1"
  in
  let figures_only = List.mem "--figures-only" args in
  let micro_only = List.mem "--micro-only" args in
  let jobs = jobs_of_args args in
  (* stderr, so the figure stream on stdout stays independent of the
     host's core count and the jobs setting *)
  Printf.eprintf "(bench running with %d worker domain%s)\n%!" jobs
    (if jobs = 1 then "" else "s");
  if full then print_endline "(full paper-parameter sweep)"
  else
    print_endline
      "(quick sweep: same shapes, smaller parameters; pass --full or set \
       OCD_BENCH_FULL=1 for the paper's exact sweep)";
  if not micro_only then Ocd_bench.Experiments.run_all ~full ~jobs ();
  if not figures_only then run_micro ()
