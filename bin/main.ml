(* The `ocd` command-line interface.

   Subcommands:
     ocd run        — run heuristics/baselines on a generated workload
     ocd figure     — regenerate one of the paper's figures
     ocd exact      — solve a small instance exactly (search and/or IP)
     ocd reduce     — the Dominating Set -> FOCD reduction demo
     ocd bounds     — print the §5.1 lower bounds for a workload
     ocd experiment — run an extension experiment, or `all` figures and
                      experiments
     ocd export     — dump a workload/schedule in the text codec
     ocd trace      — render a run's progress timeline
     ocd async      — run the asynchronous message-passing protocols
     ocd chaos      — crash-recovery robustness campaign for the async
                      protocols
     ocd dht        — run dht-rarest (Chord-style provider discovery)
                      against the omniscient async-local baseline
     ocd profile    — run a workload under the wall-clock/allocation
                      probe and print the per-phase table
     ocd explain    — attribute a run's makespan over its critical path

   run, async, chaos and dht also accept --trace-out FILE (Chrome
   trace-event JSON for Perfetto) and --metrics-out FILE (the
   deterministic metrics registry, byte-identical across --jobs).

   Every argument, name table and range check is defined once below and
   the subcommands are assembled from those pieces.  A bad name, an
   out-of-range value, a workload the generators reject or an
   unwritable output path is a cmdliner usage error (exit 124), raised
   before the command prints anything. *)

open Cmdliner
open Ocd_core
open Ocd_prelude

let ( let* ) = Result.bind

(* ---------------------- converters -------------------------------- *)

(* [conv] restricted to the values [ok] accepts. *)
let bounded conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = bounded Arg.int (fun n -> n >= 1) "a positive integer"
let natural = bounded Arg.int (fun n -> n >= 0) "a non-negative integer"

let probability =
  bounded Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0,1]"

(* One converter per name table.  The value comes back paired with its
   name, and the printer shows the name, so a table may hold closures
   (Arg.enum's own printer compares values). *)
let choice table =
  let parse =
    Arg.conv_parser (Arg.enum (List.map (fun ((k, _) as e) -> (k, e)) table))
  in
  Arg.conv (parse, fun ppf (k, _) -> Format.pp_print_string ppf k)

(* "$(docv) is one of ..." — generated, so it cannot go stale. *)
let alts table = "$(docv) is " ^ Arg.doc_alts_enum table ^ "."

let choice_arg table ~default names ~docv ~doc =
  Arg.(
    value
    & opt (choice table) (default, List.assoc default table)
    & info names ~docv ~doc:(doc ^ "  " ^ alts table))

(* ---------------------- name tables ------------------------------- *)

let strategies =
  Ocd_heuristics.Registry.all
  @ [
      Ocd_heuristics.Flow_step.strategy;
      Ocd_baselines.Tree_push.strategy ();
      Ocd_baselines.Split_forest.strategy ~k:4 ();
      Ocd_baselines.Fast_replica.strategy ();
      Ocd_baselines.Serial_steiner.strategy;
    ]

let strategy_table =
  List.map (fun s -> (s.Ocd_engine.Strategy.name, s)) strategies

let protocols = List.map (fun name -> (name, name)) Ocd_dht.Registry.names

let profiles =
  [ ("default", Ocd_async.Net.default); ("lockstep", Ocd_async.Net.lockstep) ]

let conditions =
  [
    ("static", fun _ -> Ocd_dynamics.Condition.static);
    ( "cross-traffic",
      fun seed ->
        Ocd_dynamics.Condition.cross_traffic ~seed:(seed + 7) ~prob:0.4
          ~severity:0.5 );
    ( "link-flaps",
      fun seed ->
        Ocd_dynamics.Condition.link_flaps ~seed:(seed + 7) ~down_prob:0.1
          ~up_prob:0.5 );
    ( "churn",
      fun seed ->
        Ocd_dynamics.Condition.churn ~seed:(seed + 7) ~protected:[ 0 ]
          ~leave_prob:0.05 ~return_prob:0.5 );
  ]

let grids =
  [
    ("smoke", Ocd_bench.Chaos.smoke_grid);
    ("default", Ocd_bench.Chaos.default_grid);
    ("failing", Ocd_bench.Chaos.failing_grid);
  ]

(* ---------------------- shared arguments -------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let n_arg ?(doc = "Vertex count.") c default =
  Arg.(value & opt c default & info [ "n" ] ~docv:"N" ~doc)

let tokens_arg ?(doc = "Token count.") c default =
  Arg.(value & opt c default & info [ "tokens" ] ~docv:"M" ~doc)

let topology_arg =
  let parse s =
    match Ocd_topology.Topology.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf k =
    Format.pp_print_string ppf (Ocd_topology.Topology.kind_name k)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Ocd_topology.Topology.Random
    & info [ "topology" ] ~docv:"KIND"
        ~doc:"Topology kind: random, transit-stub or waxman.")

let threshold_arg =
  Arg.(
    value
    & opt probability 1.0
    & info [ "threshold" ] ~docv:"T"
        ~doc:"Receiver-density threshold in [0,1] (1 = all receivers).")

let full_arg =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Use the paper's full sweep parameters.")

let jobs_arg =
  Arg.(
    value
    & opt positive (Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: the recommended domain \
           count).  Output is byte-identical for any value.")

let strategy_arg ~doc =
  Arg.(
    value
    & opt (some (choice strategy_table)) None
    & info [ "strategy" ] ~docv:"NAME" ~doc:(doc ^ "  " ^ alts strategy_table))

let protocol_arg ~doc =
  Arg.(
    value
    & opt (some (choice protocols)) None
    & info [ "protocol" ] ~docv:"NAME" ~doc:(doc ^ "  " ^ alts protocols))

let grid_arg ~default ~doc =
  choice_arg grids ~default [ "grid" ] ~docv:"GRID" ~doc

let loss_arg =
  Arg.(
    value
    & opt (some probability) None
    & info [ "loss" ] ~docv:"P" ~doc:"Override per-message loss probability.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write to $(docv) instead of stdout.")

(* ---------------------- workload ---------------------------------- *)

let build_instance ~seed ~topology ~n ~tokens ~threshold ~files ~multi_sender =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Topology.generate rng topology ~n in
  let scenario =
    if files > 1 || multi_sender then
      Scenario.subdivide_files rng ~graph ~total_tokens:tokens ~files
        ~multi_sender ()
    else if threshold < 1.0 then
      Scenario.receiver_density rng ~graph ~tokens ~threshold ()
    else Scenario.single_file rng ~graph ~tokens ()
  in
  scenario.Scenario.instance

(* The §5 workload, as [(seed, instance)].  A subcommand without one of
   the options passes a constant term in its place.  The generators'
   own preconditions (transit-stub needs n >= 8; --files must divide
   --tokens and leave a receiver per file) become usage errors here. *)
let workload ?(topology = topology_arg) ?(threshold = threshold_arg)
    ?(files = Term.const (1, false)) ?(n = n_arg positive 100)
    ?(tokens = tokens_arg natural 50) () =
  let make seed topology n tokens threshold (files, multi_sender) =
    (* n = 0 passes only `ocd exact`'s converter: the Figure 1 instance *)
    if n = 0 then Ok (seed, Figure1.instance ())
    else
      match
        build_instance ~seed ~topology ~n ~tokens ~threshold ~files
          ~multi_sender
      with
      | inst -> Ok (seed, inst)
      | exception Invalid_argument msg ->
        Error (`Msg ("invalid workload: " ^ msg))
  in
  Term.(
    term_result ~usage:true
      (const make $ seed_arg $ topology $ n $ tokens $ threshold $ files))

(* ---------------------- network profile --------------------------- *)

let network_profile (name, base) loss pace =
  ( name,
    {
      base with
      Ocd_async.Net.loss = Option.value loss ~default:base.Ocd_async.Net.loss;
      pace = Option.value pace ~default:base.Ocd_async.Net.pace;
    } )

let network =
  let profile_arg =
    choice_arg profiles ~default:"default" [ "profile" ] ~docv:"PROFILE"
      ~doc:
        "Network profile: default has latency, jitter and pacing; lockstep \
         is the synchronous-equivalent degenerate profile."
  in
  let pace_arg =
    Arg.(
      value
      & opt (some positive) None
      & info [ "pace" ] ~docv:"TICKS" ~doc:"Override ticks per round.")
  in
  Term.(const network_profile $ profile_arg $ loss_arg $ pace_arg)

(* ---------------------- observability ----------------------------- *)

(* Every file the CLI writes goes through this, so a bad path surfaces
   as a cmdliner `Msg error (exit 124) instead of a Sys_error
   backtrace. *)
let open_out_result path =
  try Ok (open_out path) with Sys_error msg -> Error (`Msg msg)

(* Opens the output files first — an unwritable path fails before the
   workload runs, not after — and yields a live scope whose sink
   streams the trace into its file as the run goes and whose registry
   [finish] renders.  With neither file the scope is the disabled one,
   which costs only its [if obs.on] guards. *)
let observe ~trace_out ~metrics_out =
  let open_opt = function
    | None -> Ok None
    | Some path -> Result.map Option.some (open_out_result path)
  in
  match (trace_out, metrics_out) with
  | None, None -> Ok (Ocd_obs.disabled, ignore)
  | _ ->
    let* trace_oc = open_opt trace_out in
    let* metrics_oc =
      match open_opt metrics_out with
      | Error _ as e ->
        Option.iter close_out trace_oc;
        e
      | ok -> ok
    in
    let sink =
      Option.fold trace_oc ~none:Ocd_obs.Sink.null ~some:Ocd_obs.Sink.jsonl
    in
    let obs = Ocd_obs.create ~sink () in
    let finish () =
      Ocd_obs.Sink.close sink;
      Option.iter close_out trace_oc;
      Option.iter
        (fun oc ->
          output_string oc (Ocd_obs.Metrics.render obs.Ocd_obs.metrics);
          close_out oc)
        metrics_oc
    in
    Ok (obs, finish)

let observed =
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's event stream to $(docv) as Chrome trace-event \
             JSON (open in Perfetto or chrome://tracing).  Timestamps are \
             simulator/engine time, so the file is byte-identical across \
             $(b,--jobs) values.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic metrics registry (counters, gauges, \
             histograms; sorted keys) to $(docv) as text.")
  in
  Term.(
    term_result
      (const (fun trace_out metrics_out -> observe ~trace_out ~metrics_out)
      $ trace_out_arg $ metrics_out_arg))

let emit ~output text =
  match output with
  | None ->
    print_string text;
    Ok ()
  | Some path ->
    let* oc = open_out_result path in
    output_string oc text;
    close_out oc;
    Ok ()

(* Trace lane and metrics prefix of the [i]th of several named runs,
   for [Pool.map_scoped]. *)
let named_lane i name = (i, name ^ "/")

let chosen_protocols = function
  | None -> Ocd_dht.Registry.names
  | Some (name, _) -> [ name ]

(* ---------------------- ocd run ----------------------------------- *)

let run_cmd =
  let run (seed, inst) strategy (obs, finish) =
    Printf.printf "instance: n=%d m=%d deficit=%d (bw_lb=%d, moves_lb=%s)\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst)
      (Bounds.bandwidth_lower_bound inst)
      (if Instance.satisfiable inst then
         string_of_int (Bounds.makespan_lower_bound inst)
       else "n/a (unsatisfiable)");
    let chosen =
      match strategy with None -> strategies | Some (_, s) -> [ s ]
    in
    Printf.printf "%-16s %10s %10s %10s %12s\n" "strategy" "makespan"
      "bandwidth" "pruned" "mean-finish";
    (* Inline (jobs 1), so each row prints as its strategy finishes;
       counters and trace events land under a "<strategy>/" prefix
       with pid = strategy index, so runs over several strategies stay
       separable in the output files. *)
    let (_ : unit list) =
      Pool.map_scoped ~obs ~jobs:1
        ~lane:(fun i s -> named_lane i s.Ocd_engine.Strategy.name)
        (fun sobs strategy ->
          let run =
            Ocd_engine.Engine.run ~obs:sobs ~strategy ~seed:(seed + 1) inst
          in
          match run.Ocd_engine.Engine.outcome with
          | Ocd_engine.Engine.Completed ->
            let m = run.Ocd_engine.Engine.metrics in
            Printf.printf "%-16s %10d %10d %10d %12.1f\n"
              run.Ocd_engine.Engine.strategy_name m.Metrics.makespan
              m.Metrics.bandwidth m.Metrics.pruned_bandwidth
              (Metrics.mean_completion m)
          | Ocd_engine.Engine.Stalled step ->
            Printf.printf "%-16s stalled at step %d\n"
              run.Ocd_engine.Engine.strategy_name step
          | Ocd_engine.Engine.Step_limit ->
            Printf.printf "%-16s hit the step limit\n"
              run.Ocd_engine.Engine.strategy_name)
        chosen
    in
    finish ()
  in
  let files =
    let files_arg =
      Arg.(
        value
        & opt positive 1
        & info [ "files" ] ~docv:"K"
            ~doc:"Number of files (must divide tokens).")
    in
    let multi_sender_arg =
      Arg.(
        value & flag
        & info [ "multi-sender" ] ~doc:"Seed each file at a random vertex.")
    in
    Term.product files_arg multi_sender_arg
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run heuristics/baselines on a generated workload")
    Term.(
      const run $ workload ~files ()
      $ strategy_arg ~doc:"Strategy to run (default: all)."
      $ observed)

(* ---------------------- ocd figure / ocd experiment --------------- *)

(* One command per Ocd_bench.Experiments table, the entry named by a
   positional argument. *)
let registry_cmd name ~doc ~docv ~what table =
  let entry =
    Arg.(
      required
      & pos 0 (some (choice table)) None
      & info [] ~docv ~doc:(what ^ "  " ^ alts table))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun (_, run) full jobs -> run ~full ~jobs)
      $ entry $ full_arg $ jobs_arg)

let figure_cmd =
  registry_cmd "figure" ~doc:"Regenerate one of the paper's figures"
    ~docv:"FIGURE" ~what:"Figure number." Ocd_bench.Experiments.figures

let experiment_cmd =
  registry_cmd "experiment"
    ~doc:"Run one of the extension experiments, or all figures and experiments"
    ~docv:"NAME" ~what:"Experiment." Ocd_bench.Experiments.experiments

(* ---------------------- ocd exact --------------------------------- *)

let exact_cmd =
  let run (_, inst) horizon use_ip =
    Printf.printf "instance: n=%d m=%d\n" (Instance.vertex_count inst)
      inst.Instance.token_count;
    (match Ocd_exact.Search.focd inst with
    | Ocd_exact.Search.Solved s ->
      Printf.printf "search FOCD: %d steps (witness: %d moves)\n"
        s.Ocd_exact.Search.objective
        (Schedule.move_count s.Ocd_exact.Search.schedule)
    | Ocd_exact.Search.Unsatisfiable -> print_endline "search FOCD: unsatisfiable"
    | Ocd_exact.Search.Budget_exceeded -> print_endline "search FOCD: budget");
    (match Ocd_exact.Search.eocd ?horizon inst with
    | Ocd_exact.Search.Solved s ->
      Printf.printf "search EOCD%s: %d moves (witness: %d steps)\n"
        (match horizon with
        | Some h -> Printf.sprintf "@%d" h
        | None -> "")
        s.Ocd_exact.Search.objective
        (Schedule.length s.Ocd_exact.Search.schedule)
    | Ocd_exact.Search.Unsatisfiable -> print_endline "search EOCD: unsatisfiable"
    | Ocd_exact.Search.Budget_exceeded -> print_endline "search EOCD: budget");
    if use_ip then begin
      match Ocd_exact.Ip_formulation.focd inst with
      | Some (tau, schedule) ->
        Printf.printf "IP FOCD: %d steps (witness: %d moves, %d variables)\n"
          tau
          (Schedule.move_count schedule)
          (Ocd_exact.Ip_formulation.variable_count inst ~horizon:tau)
      | None -> print_endline "IP FOCD: no solution within budget/horizon"
    end
  in
  let workload =
    workload
      ~topology:(Term.const Ocd_topology.Topology.Random)
      ~threshold:(Term.const 1.0)
      ~n:
        (n_arg natural 0
           ~doc:"Vertex count for a random instance (0 = the Figure 1 instance).")
      ~tokens:(tokens_arg natural 2) ()
  in
  let horizon =
    Arg.(
      value
      & opt (some natural) None
      & info [ "horizon" ] ~docv:"H" ~doc:"EOCD timestep budget.")
  in
  let use_ip =
    Arg.(value & flag & info [ "ip" ] ~doc:"Also solve the §3.4 integer program.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Solve a small instance exactly")
    Term.(const run $ workload $ horizon $ use_ip)

(* ---------------------- ocd reduce --------------------------------- *)

let reduce_cmd =
  let run seed n k p =
    let rng = Prng.create ~seed in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.bernoulli rng p then edges := (u, v, 1) :: !edges
      done
    done;
    let g = Ocd_graph.Digraph.of_edges ~vertex_count:n !edges in
    Printf.printf "graph: n=%d, %d undirected edges\n" n (List.length !edges);
    let dom = Ocd_graph.Dominating.minimum g in
    Printf.printf "minimum dominating set: {%s} (size %d)\n"
      (String.concat ", " (List.map string_of_int dom))
      (List.length dom);
    let inst = Ocd_exact.Reduction.instance g ~k in
    Printf.printf
      "reduced FOCD instance: %d vertices, %d tokens; 2-step solvable with k=%d: %b\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count k
      (Ocd_exact.Reduction.two_step_solvable g ~k);
    if List.length dom <= k then begin
      let s = Ocd_exact.Reduction.schedule_of_dominating_set g ~k ~dominating:dom in
      match Validate.check_successful inst s with
      | Ok () ->
        Printf.printf "constructive schedule: %d steps, %d moves — valid\n"
          (Schedule.length s) (Schedule.move_count s)
      | Error e -> Format.printf "constructive schedule INVALID: %a@." Validate.pp_error e
    end
  in
  let k = Arg.(value & opt natural 2 & info [ "k" ] ~docv:"K" ~doc:"Budget.") in
  let p =
    Arg.(value & opt probability 0.4 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.")
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Dominating Set -> FOCD reduction demo")
    Term.(const run $ seed_arg $ n_arg positive 6 ~doc:"Vertices." $ k $ p)

(* ---------------------- ocd bounds --------------------------------- *)

let bounds_cmd =
  let run (_, inst) =
    Printf.printf "deficit (bandwidth lower bound): %d\n"
      (Bounds.bandwidth_lower_bound inst);
    if Instance.satisfiable inst then begin
      Printf.printf "makespan lower bound (M_i(v)):   %d\n"
        (Bounds.makespan_lower_bound inst);
      Printf.printf "one-step completion possible:    %b\n"
        (Bounds.one_step_feasible inst ~have:inst.Instance.have);
      Printf.printf "serial-Steiner bandwidth (upper): %d\n"
        (Ocd_baselines.Serial_steiner.bandwidth_upper_bound inst)
    end
    else print_endline "instance is unsatisfiable"
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the §5.1 lower bounds for a workload")
    Term.(const run $ workload ())

(* ---------------------- ocd export --------------------------------- *)

let export_cmd =
  let run (seed, inst) strategy output =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Codec.instance_to_string inst);
    Option.iter
      (fun (_, strategy) ->
        let run =
          Ocd_engine.Engine.completed_exn
            (Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst)
        in
        Buffer.add_string buf
          (Codec.schedule_to_string run.Ocd_engine.Engine.schedule))
      strategy;
    emit ~output (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Dump a generated workload (and optionally a strategy's schedule) \
          in the text codec format")
    Term.(
      term_result
        (const run $ workload ()
        $ strategy_arg ~doc:"Also export this strategy's schedule."
        $ output_arg))

(* ---------------------- ocd async ---------------------------------- *)

let async_cmd =
  let run (seed, inst) protocol (profile_name, profile)
      (condition_name, condition) monitor_on jobs (obs, finish) =
    Printf.printf "instance: n=%d m=%d deficit=%d; profile=%s pace=%d loss=%.2f condition=%s\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst) profile_name
      profile.Ocd_async.Net.pace profile.Ocd_async.Net.loss condition_name;
    let runs =
      Pool.map_scoped ~obs ~jobs ~lane:named_lane
        (fun pobs name ->
          let protocol = Ocd_dht.Registry.find_exn name in
          let monitor =
            if monitor_on then Ocd_async.Monitor.create ()
            else Ocd_async.Monitor.disabled
          in
          (* built per task: a condition memoises its Markov chains in
             a Hashtbl that must not be shared across domains *)
          let r =
            Ocd_async.Runtime.run ~obs:pobs ~profile
              ~condition:(condition seed) ~monitor ~protocol ~seed inst
          in
          (r, monitor))
        (chosen_protocols protocol)
    in
    Printf.printf "%-12s %8s %8s %10s %9s %8s %8s %8s %8s\n" "protocol"
      "rounds" "ticks" "makespan" "data" "control" "retrans" "dropped"
      "goodput";
    List.iter
      (fun ((r : Ocd_async.Runtime.run), _) ->
        Printf.printf "%-12s %8s %8s %10s %9d %8d %8d %8d %8.3f\n"
          r.Ocd_async.Runtime.protocol_name
          (match r.Ocd_async.Runtime.outcome with
          | Ocd_async.Runtime.Completed ->
            string_of_int r.Ocd_async.Runtime.rounds
          | Ocd_async.Runtime.Timed_out -> "timeout")
          (match r.Ocd_async.Runtime.completion_ticks with
          | Some t -> string_of_int t
          | None -> "-")
          (Metrics.makespan_cell r.Ocd_async.Runtime.metrics)
          r.Ocd_async.Runtime.data_messages
          r.Ocd_async.Runtime.control_messages
          r.Ocd_async.Runtime.retransmissions
          r.Ocd_async.Runtime.dropped_messages r.Ocd_async.Runtime.goodput)
      runs;
    if monitor_on then
      List.iter
        (fun ((r : Ocd_async.Runtime.run), monitor) ->
          Printf.printf "\nmonitor %s: %s\n"
            r.Ocd_async.Runtime.protocol_name
            (if Ocd_async.Monitor.ok monitor then "ok"
             else
               Printf.sprintf "%d violation(s)"
                 (Ocd_async.Monitor.count monitor));
          List.iter
            (fun (v : Ocd_async.Monitor.violation) ->
              Printf.printf "  [tick %d, node %d] %s: %s\n"
                v.Ocd_async.Monitor.tick v.Ocd_async.Monitor.node
                v.Ocd_async.Monitor.rule v.Ocd_async.Monitor.detail)
            (Ocd_async.Monitor.violations monitor))
        runs;
    finish ()
  in
  let condition_arg =
    choice_arg conditions ~default:"static" [ "condition" ] ~docv:"KIND"
      ~doc:"Fault injector, seeded from --seed."
  in
  let monitor_arg =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Enable the runtime invariant monitor (phantom arcs, possession \
             durability, false suspicion, DHT ring safety) and print its \
             violation report per protocol.")
  in
  Cmd.v
    (Cmd.info "async"
       ~doc:
         "Run the asynchronous message-passing protocols (discrete-event \
          simulation with latency, loss and retry)")
    Term.(
      const run $ workload ()
      $ protocol_arg ~doc:"Protocol to run (default: all)."
      $ network $ condition_arg $ monitor_arg $ jobs_arg $ observed)

(* ---------------------- ocd chaos ---------------------------------- *)

let chaos_cmd =
  let run seed (_, (base : Ocd_bench.Chaos.grid)) n tokens trials shrink
      shrink_out jobs (obs, finish) =
    let grid =
      {
        base with
        n = Option.value n ~default:base.n;
        tokens = Option.value tokens ~default:base.tokens;
        trials = Option.value trials ~default:base.trials;
      }
    in
    let campaign = Ocd_bench.Chaos.run ~obs ~jobs ~seed grid in
    Ocd_bench.Chaos.report campaign;
    finish ();
    if not shrink then Ok ()
    else begin
      let fails = Ocd_bench.Chaos.failures campaign in
      Printf.printf "\nshrink: %d failing trial(s)\n" (List.length fails);
      match fails with
      | [] -> Ok ()
      | (case, tag) :: _ -> (
        Printf.printf "shrinking first failure: %s (%s)\n"
          case.Ocd_bench.Chaos.protocol tag;
        match Ocd_bench.Shrink.shrink case with
        | Error e ->
          Printf.eprintf "shrink failed: %s\n" e;
          exit 1
        | Ok { minimal; tests; _ } ->
          Printf.printf
            "minimal reproducer: %d crash span(s) + %d partition window(s) \
             (from %d + %d), %d replays\n"
            (List.length minimal.downtime)
            (List.length minimal.windows)
            (List.length case.downtime)
            (List.length case.windows)
            tests;
          let* () =
            emit ~output:shrink_out (Ocd_bench.Shrink.to_string minimal)
          in
          Option.iter (Printf.printf "wrote %s\n") shrink_out;
          Ok ())
    end
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "After the campaign, replay each trial as an explicit fault \
             schedule, delta-debug the first failure down to a minimal \
             crash-span/partition-window set that still fails the same way, \
             and emit it as a replayable reproducer.")
  in
  let shrink_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shrink-out" ] ~docv:"FILE"
          ~doc:"Write the shrunk reproducer artifact to $(docv) (default: stdout).")
  in
  let trials_override =
    Arg.(
      value
      & opt (some positive) None
      & info [ "trials" ] ~docv:"T" ~doc:"Override trials per grid cell.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos campaign: a parallel sweep of the async protocols \
          over loss, link flaps, churn, node crash-recovery and partition \
          faults, with per-cell robustness aggregates, runtime invariant \
          monitoring, stall diagnoses, and optional fault-schedule shrinking")
    Term.(
      term_result
        (const run $ seed_arg
        $ grid_arg ~default:"default"
            ~doc:
              "Campaign grid: smoke is tiny (for CI); failing holds a \
               known-failing partition cell for exercising --shrink."
        $ n_arg (Arg.some positive) None
            ~doc:"Override the grid's vertex count."
        $ tokens_arg (Arg.some natural) None
            ~doc:"Override the grid's token count."
        $ trials_override $ shrink_arg $ shrink_out_arg $ jobs_arg $ observed))

(* ---------------------- ocd dht ------------------------------------ *)

let dht_cmd =
  let run (seed, inst) loss crash churn jobs (obs, finish) =
    (* A chaos cell seeded from --seed; the runs keep --seed as their
       run seed. *)
    let cell =
      {
        Ocd_bench.Chaos.label = "";
        loss = Option.value loss ~default:Ocd_async.Net.default.loss;
        flaps = false;
        churn;
        crash_prob = Option.value crash ~default:0.0;
        partition = None;
      }
    in
    (* The omniscient baseline first, then the DHT protocol it is
       measured against; both under the same profile/faults/seed. *)
    let chosen = [ "async-local"; "dht-rarest" ] in
    Printf.printf
      "instance: n=%d m=%d deficit=%d; loss=%.2f crash=%.2f churn=%b\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst)
      cell.loss cell.crash_prob churn;
    let runs =
      Pool.map_scoped ~obs ~jobs ~lane:named_lane
        (fun pobs name ->
          (* Stats are created inside the task so each worker domain
             owns its counters; Pool.map's join publishes them. *)
          let stats = Ocd_dht.Node.fresh_stats () in
          let protocol =
            if name = "dht-rarest" then Ocd_dht.Dht_rarest.protocol ~stats ()
            else Ocd_dht.Registry.find_exn name
          in
          (* The condition and fault plan memoise their chains, so each
             task derives its own: shared across domains, the tables
             race and a run can spin forever. *)
          let profile, condition, faults =
            Ocd_bench.Chaos.environment cell ~cell_seed:seed
              ~sources:(Ocd_bench.Chaos.sources_of inst)
          in
          let r =
            Ocd_async.Runtime.run ~obs:pobs ~profile ~condition ~faults
              ~protocol ~seed inst
          in
          (r, stats))
        chosen
    in
    Printf.printf "%-12s %8s %8s %10s %9s %8s %8s %8s %8s %8s\n" "protocol"
      "rounds" "ticks" "makespan" "data" "control" "retrans" "crashes"
      "restarts" "goodput";
    List.iter
      (fun ((r : Ocd_async.Runtime.run), _) ->
        Printf.printf "%-12s %8s %8s %10s %9d %8d %8d %8d %8d %8.3f\n"
          r.Ocd_async.Runtime.protocol_name
          (match r.Ocd_async.Runtime.outcome with
          | Ocd_async.Runtime.Completed ->
            string_of_int r.Ocd_async.Runtime.rounds
          | Ocd_async.Runtime.Timed_out -> "timeout")
          (match r.Ocd_async.Runtime.completion_ticks with
          | Some t -> string_of_int t
          | None -> "-")
          (Metrics.makespan_cell r.Ocd_async.Runtime.metrics)
          r.Ocd_async.Runtime.data_messages
          r.Ocd_async.Runtime.control_messages
          r.Ocd_async.Runtime.retransmissions r.Ocd_async.Runtime.crashes
          r.Ocd_async.Runtime.restarts r.Ocd_async.Runtime.goodput)
      runs;
    List.iter
      (fun (name, ((_ : Ocd_async.Runtime.run), s)) ->
        if name = "dht-rarest" then begin
          Printf.printf
            "\ndht: lookups=%d mean_hops=%.2f max_hops=%d failures=%d \
             stores=%d queries=%d joins=%d evictions=%d\n"
            s.Ocd_dht.Node.lookups
            (Ocd_dht.Node.mean_hops s)
            s.Ocd_dht.Node.max_hops s.Ocd_dht.Node.failures
            s.Ocd_dht.Node.stores s.Ocd_dht.Node.queries
            s.Ocd_dht.Node.joins s.Ocd_dht.Node.evictions;
          if obs.Ocd_obs.on then begin
            let put k v = Ocd_obs.Metrics.add obs.Ocd_obs.metrics k v in
            put "dht/evictions" s.Ocd_dht.Node.evictions;
            put "dht/failures" s.Ocd_dht.Node.failures;
            put "dht/hops" s.Ocd_dht.Node.hops;
            put "dht/joins" s.Ocd_dht.Node.joins;
            put "dht/lookups" s.Ocd_dht.Node.lookups;
            put "dht/max_hops" s.Ocd_dht.Node.max_hops;
            put "dht/queries" s.Ocd_dht.Node.queries;
            put "dht/stores" s.Ocd_dht.Node.stores
          end
        end)
      (List.combine chosen runs);
    finish ()
  in
  let crash_arg =
    Arg.(
      value
      & opt (some probability) None
      & info [ "crash" ] ~docv:"P"
          ~doc:
            "Per-round crash probability (crashed nodes lose all state and \
             restart, rejoining the DHT ring through the sources).")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"Add membership churn (sources protected), seeded from --seed.")
  in
  Cmd.v
    (Cmd.info "dht"
       ~doc:
         "Run the dht-rarest protocol (Chord-style provider discovery, no \
          global knowledge) against the omniscient async-local baseline on \
          the same instance, with optional crash/churn faults")
    Term.(
      const run $ workload ()
      $ loss_arg $ crash_arg $ churn_arg $ jobs_arg $ observed)

(* ---------------------- ocd trace ---------------------------------- *)

let trace_cmd =
  let run (seed, inst) strategy output =
    let strategy =
      Option.fold strategy ~none:Ocd_heuristics.Local_rarest.strategy ~some:snd
    in
    let run =
      Ocd_engine.Engine.completed_exn
        (Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst)
    in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf "%s on n=%d m=%d:\n\n"
      run.Ocd_engine.Engine.strategy_name
      (Instance.vertex_count inst)
      inst.Instance.token_count;
    Buffer.add_string buf
      (Ocd_engine.Trace.render ~width:40 inst run.Ocd_engine.Engine.schedule);
    let fairness = Fairness.of_schedule inst run.Ocd_engine.Engine.schedule in
    Printf.bprintf buf "\nJain fairness over forwarding load: %.3f\n"
      fairness.Fairness.jain_index;
    emit ~output (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one strategy and render its per-step progress timeline")
    Term.(
      term_result
        (const run $ workload ()
        $ strategy_arg ~doc:"Strategy to run (default: local)."
        $ output_arg))

(* ---------------------- ocd profile -------------------------------- *)

let profile_cmd =
  let workloads =
    [
      ( "run",
        fun ~obs ~jobs:_ (seed, inst) ->
          List.iter
            (fun strategy ->
              ignore
                (Ocd_engine.Engine.run ~obs ~strategy ~seed:(seed + 1) inst))
            strategies;
          Printf.sprintf "ocd profile run: n=%d m=%d, %d strategies"
            (Instance.vertex_count inst)
            inst.Instance.token_count (List.length strategies) );
      ( "async",
        fun ~obs ~jobs:_ (seed, inst) ->
          List.iter
            (fun name ->
              let protocol = Ocd_dht.Registry.find_exn name in
              ignore (Ocd_async.Runtime.run ~obs ~protocol ~seed inst))
            Ocd_dht.Registry.names;
          Printf.sprintf "ocd profile async: n=%d m=%d, %d protocols"
            (Instance.vertex_count inst)
            inst.Instance.token_count
            (List.length Ocd_dht.Registry.names) );
      ( "chaos",
        fun ~obs ~jobs (seed, _) ->
          let grid = Ocd_bench.Chaos.smoke_grid in
          ignore (Ocd_bench.Chaos.run ~obs ~jobs ~seed grid);
          Printf.sprintf "ocd profile chaos: smoke grid, %d cells x %d trials"
            (List.length grid.Ocd_bench.Chaos.cells)
            grid.Ocd_bench.Chaos.trials );
    ]
  in
  let run (_, measure) workload jobs =
    let probe = Ocd_obs.Probe.create () in
    (* A probing scope with the null sink: deterministic streams stay
       off, the probe collects wall-clock and GC deltas per phase. *)
    let obs = Ocd_obs.create ~probe () in
    let title = measure ~obs ~jobs workload in
    print_string (Ocd_obs.Probe.render ~title probe)
  in
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (choice workloads)) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            ("Workload to profile (run is the sync engine).  "
            ^ alts workloads))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the wall-clock/allocation probe and print \
          the per-phase table (strategy decide/apply phases, protocol \
          message handlers, simulator events, the busy time of each pool \
          worker, chaos cell trials).  Probe numbers are \
          non-deterministic by nature; the deterministic metrics/trace \
          streams are the --metrics-out/--trace-out flags of run, async, \
          chaos and dht.")
    Term.(
      const run $ kind_arg
      $ workload ~threshold:(Term.const 1.0) ()
      $ jobs_arg)

(* ---------------------- ocd explain -------------------------------- *)

let explain_cmd =
  let render_dec ~label ~completion dec =
    match dec with
    | None ->
      Printf.printf "%s: no completion event — the run timed out, so there is \
                     no critical path to attribute\n\n"
        label
    | Some (d : Ocd_bench.Explain.decomposition) ->
      let sum =
        List.fold_left (fun a (_, n) -> a + n) 0 d.Ocd_bench.Explain.by_category
      in
      assert (sum = d.Ocd_bench.Explain.makespan);
      (match completion with
      | Some t -> assert (t = d.Ocd_bench.Explain.makespan)
      | None -> ());
      Ocd_bench.Report.render
        (Ocd_bench.Explain.table
           ~title:(label ^ ": critical-path attribution")
           d);
      print_string (Ocd_bench.Explain.notes d);
      print_newline ()
  in
  let explain_run ~obs (seed, inst) strategy =
    let strategy =
      Option.fold strategy ~none:Ocd_heuristics.Local_rarest.strategy ~some:snd
    in
    let r = Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst in
    (match r.Ocd_engine.Engine.outcome with
    | Ocd_engine.Engine.Completed ->
      (* sync rounds are the tick unit here (pace 1): the attribution
         is the schedule's token-dependency critical path *)
      render_dec ~label:strategy.Ocd_engine.Strategy.name ~completion:None
        (Ocd_bench.Explain.of_schedule ~instance:inst
           r.Ocd_engine.Engine.schedule)
    | Ocd_engine.Engine.Stalled step ->
      Printf.printf "%s stalled at step %d — no completion to explain\n"
        strategy.Ocd_engine.Strategy.name step
    | Ocd_engine.Engine.Step_limit ->
      Printf.printf "%s hit the step limit — no completion to explain\n"
        strategy.Ocd_engine.Strategy.name);
    if obs.Ocd_obs.on then
      Printf.eprintf
        "note: run mode keeps no causal log, so the --path-out trace is \
         empty; the path applies to the async and chaos-cell modes\n"
  in
  let explain_async ~obs ~jobs (seed, inst) protocol (profile_name, profile) =
    let chosen = chosen_protocols protocol in
    Printf.printf
      "instance: n=%d m=%d deficit=%d; profile=%s pace=%d loss=%.2f\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst) profile_name
      profile.Ocd_async.Net.pace profile.Ocd_async.Net.loss;
    (* One causal log per protocol, filled in the worker, and its flow
       overlay written into the task's own scope; extraction and
       rendering happen in protocol order afterwards, so stdout and the
       --path-out file are byte-identical for any --jobs. *)
    let results =
      Pool.map_scoped ~obs ~jobs ~lane:named_lane
        (fun pobs name ->
          let protocol = Ocd_dht.Registry.find_exn name in
          let causal = Ocd_obs.Causal.create () in
          let r =
            Ocd_async.Runtime.run ~obs:pobs ~causal ~profile ~protocol ~seed
              inst
          in
          Ocd_bench.Explain.flow_overlay ~sink:pobs.Ocd_obs.sink causal;
          (r, causal))
        chosen
    in
    List.iter2
      (fun name ((r : Ocd_async.Runtime.run), causal) ->
        render_dec ~label:name
          ~completion:r.Ocd_async.Runtime.completion_ticks
          (Ocd_bench.Explain.of_causal ~pace:profile.Ocd_async.Net.pace
             ~instance:inst causal))
      chosen results
  in
  let explain_chaos_cell ~obs seed (_, grid) cell protocol trial =
    let* cell_label =
      Option.to_result cell
        ~none:
          (`Msg
             "chaos-cell needs --cell LABEL (the campaign report's env column)")
    in
    let protocol = Option.fold protocol ~none:"async-local" ~some:fst in
    let* ts =
      Result.map_error
        (fun msg -> `Msg msg)
        (Ocd_bench.Chaos.trial_setup ~seed grid ~cell_label ~protocol ~trial)
    in
    let causal = Ocd_obs.Causal.create () in
    let r =
      Ocd_async.Runtime.run ~obs ~causal ~profile:ts.Ocd_bench.Chaos.t_profile
        ~condition:ts.Ocd_bench.Chaos.t_condition
        ~faults:ts.Ocd_bench.Chaos.t_faults
        ~monitor:(Ocd_async.Monitor.create ())
        ~protocol:ts.Ocd_bench.Chaos.t_protocol
        ~seed:ts.Ocd_bench.Chaos.t_run_seed ts.Ocd_bench.Chaos.t_instance
    in
    Printf.printf "cell %s, protocol %s, trial %d (run seed %d)\n\n" cell_label
      protocol trial ts.Ocd_bench.Chaos.t_run_seed;
    Ocd_bench.Explain.flow_overlay ~sink:obs.Ocd_obs.sink causal;
    render_dec
      ~label:(cell_label ^ "/" ^ protocol)
      ~completion:r.Ocd_async.Runtime.completion_ticks
      (Ocd_bench.Explain.of_causal ~faults:ts.Ocd_bench.Chaos.t_faults
         ~pace:ts.Ocd_bench.Chaos.t_profile.Ocd_async.Net.pace
         ~instance:ts.Ocd_bench.Chaos.t_instance causal);
    Ok ()
  in
  let run (_, mode) workload protocol strategy network grid cell trial jobs
      (obs, finish) =
    Result.map finish
      (match mode with
      | `Run -> Ok (explain_run ~obs workload strategy)
      | `Async -> Ok (explain_async ~obs ~jobs workload protocol network)
      | `Chaos_cell ->
        explain_chaos_cell ~obs (fst workload) grid cell protocol trial)
  in
  let modes =
    [ ("run", `Run); ("async", `Async); ("chaos-cell", `Chaos_cell) ]
  in
  let mode_arg =
    Arg.(
      required
      & pos 0 (some (choice modes)) None
      & info [] ~docv:"MODE"
          ~doc:
            ("What to explain: run (a synchronous schedule's \
              token-dependency critical path), async (an async protocol run \
              under a live causal log), or chaos-cell (replay one chaos \
              campaign grid point).  " ^ alts modes))
  in
  let cell_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cell" ] ~docv:"LABEL"
          ~doc:
            "Chaos cell label to replay (the campaign report's env column, \
             e.g. baseline or loss=0.20+crash=0.05).")
  in
  let trial_arg =
    Arg.(
      value & opt natural 0
      & info [ "trial" ] ~docv:"T" ~doc:"Trial index within the cell.")
  in
  let path_out =
    let path_out_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "path-out" ] ~docv:"FILE"
            ~doc:
              "Write the run's trace plus its critical path as Chrome \
               trace-event JSON: the path is emitted as flow events (ph \
               s/t/f, id 1, name critical-path), which Perfetto draws as \
               arrows across the per-node tracks.  Timestamps are simulator \
               ticks, so the file is byte-identical across $(b,--jobs).")
    in
    Term.(
      term_result
        (const (fun trace_out -> observe ~trace_out ~metrics_out:None)
        $ path_out_arg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute a run's makespan tick-by-tick over its causal critical \
          path: transmit, queue, backoff, suspicion, crash-down, \
          partition-down and protocol-idle categories that sum exactly to \
          the completion time, next to the paper's lower bound")
    Term.(
      term_result
        (const run $ mode_arg $ workload ()
        $ protocol_arg
            ~doc:
              "Async protocol (async mode default: all; chaos-cell default: \
               async-local)."
        $ strategy_arg ~doc:"Strategy for run mode (default: local)."
        $ network
        $ grid_arg ~default:"smoke" ~doc:"Chaos grid for chaos-cell mode."
        $ cell_arg $ trial_arg $ jobs_arg $ path_out))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ocd" ~version:"1.0.0"
      ~doc:"The Overlay Network Content Distribution problem (PODC'05)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd;
            figure_cmd;
            exact_cmd;
            reduce_cmd;
            bounds_cmd;
            experiment_cmd;
            export_cmd;
            trace_cmd;
            async_cmd;
            chaos_cmd;
            dht_cmd;
            profile_cmd;
            explain_cmd;
          ]))
