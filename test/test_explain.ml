(* Differential tests for the causal log (Ocd_obs.Causal) and the
   critical-path attribution (Ocd_bench.Explain): the telescoping
   exact-sum property, byte-identity of instrumented vs. bare runs,
   the zero-cost-disabled discipline, and the flow-event overlay. *)

open Ocd_prelude
open Ocd_core
module Causal = Ocd_obs.Causal
module Runtime = Ocd_async.Runtime
module Explain = Ocd_bench.Explain
module Chaos = Ocd_bench.Chaos

let random_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let category_sum (d : Explain.decomposition) =
  List.fold_left (fun a (_, n) -> a + n) 0 d.Explain.by_category

let check_exact ~msg (r : Runtime.run) = function
  | None -> Alcotest.failf "%s: no decomposition" msg
  | Some (d : Explain.decomposition) ->
      Alcotest.(check (option int))
        (msg ^ ": makespan = completion_ticks")
        r.Runtime.completion_ticks (Some d.Explain.makespan);
      Alcotest.(check int)
        (msg ^ ": categories sum to makespan")
        d.Explain.makespan (category_sum d)

(* ------------------- exact sum, lockstep ---------------------------- *)

let test_lockstep_exact () =
  (* On the lockstep profile the walk must tile [0, completion_ticks)
     exactly, and every tick is transmit or protocol-idle (no loss, no
     faults, no serialization). *)
  let inst = random_instance ~seed:33 ~n:16 ~tokens:8 in
  let causal = Causal.create () in
  let r =
    Runtime.run ~causal ~profile:Ocd_async.Net.lockstep
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:5 inst
  in
  Alcotest.(check bool) "completed" true (r.Runtime.outcome = Runtime.Completed);
  let dec =
    Explain.of_causal ~pace:Ocd_async.Net.lockstep.Ocd_async.Net.pace
      ~instance:inst causal
  in
  check_exact ~msg:"lockstep" r dec;
  let d = Option.get dec in
  List.iter
    (fun (c, n) ->
      match c with
      | Explain.Transmit | Explain.Protocol_idle | Explain.Queue -> ()
      | _ ->
          Alcotest.(check int)
            (Explain.category_name c ^ " empty on clean lockstep")
            0 n)
    d.Explain.by_category;
  Alcotest.(check bool) "path has hops" true (d.Explain.path_hops >= 1);
  match d.Explain.deliveries with
  | None -> Alcotest.fail "causal decomposition carries delivery stats"
  | Some s ->
      Alcotest.(check int)
        "fresh marks mirror the runtime's count" r.Runtime.fresh_deliveries
        s.Explain.fresh

(* ------------------- exact sum, every chaos cell -------------------- *)

let test_chaos_cells_exact () =
  (* Replay trial 0 of every smoke-grid cell under a causal log: on
     every completed run the categories must sum exactly to the
     completion ticks; a timed-out run must yield no decomposition. *)
  let grid = Chaos.smoke_grid in
  List.iter
    (fun (cell : Chaos.cell) ->
      match
        Chaos.trial_setup ~seed:77 grid ~cell_label:cell.Chaos.label
          ~protocol:"async-local" ~trial:0
      with
      | Error e -> Alcotest.fail e
      | Ok ts ->
          let causal = Causal.create () in
          let r =
            Runtime.run ~causal ~profile:ts.Chaos.t_profile
              ~condition:ts.Chaos.t_condition ~faults:ts.Chaos.t_faults
              ~protocol:ts.Chaos.t_protocol ~seed:ts.Chaos.t_run_seed
              ts.Chaos.t_instance
          in
          let dec =
            Explain.of_causal ~faults:ts.Chaos.t_faults
              ~pace:ts.Chaos.t_profile.Ocd_async.Net.pace
              ~instance:ts.Chaos.t_instance causal
          in
          if r.Runtime.outcome = Runtime.Completed then
            check_exact ~msg:("cell " ^ cell.Chaos.label) r dec
          else
            Alcotest.(check bool)
              ("cell " ^ cell.Chaos.label ^ ": timeout has no path")
              true (dec = None))
    grid.Chaos.cells

let test_unknown_cell_rejected () =
  match
    Chaos.trial_setup ~seed:1 Chaos.smoke_grid ~cell_label:"no-such-cell"
      ~protocol:"async-local" ~trial:0
  with
  | Ok _ -> Alcotest.fail "bogus cell label accepted"
  | Error msg ->
      Alcotest.(check bool)
        "error lists valid labels" true
        (String.length msg > 0
        && List.exists
             (fun (c : Chaos.cell) ->
               let re = c.Chaos.label in
               let len = String.length re in
               let rec find i =
                 i + len <= String.length msg
                 && (String.sub msg i len = re || find (i + 1))
               in
               find 0)
             Chaos.smoke_grid.Chaos.cells)

(* ------------------- instrumentation is invisible ------------------- *)

let test_enabled_run_identical () =
  (* Recording draws nothing and schedules nothing: a run under a live
     causal log is event-identical to the bare run. *)
  let inst = random_instance ~seed:52 ~n:14 ~tokens:7 in
  let faults =
    Ocd_dynamics.Faults.crashes ~seed:91 ~crash_prob:0.02 ()
  in
  let go causal =
    Runtime.run ?causal ~faults
      ~profile:{ Ocd_async.Net.default with Ocd_async.Net.loss = 0.1 }
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:9 inst
  in
  let bare = go None and logged = go (Some (Causal.create ())) in
  Alcotest.(check bool)
    "schedules identical" true
    (Schedule.steps bare.Runtime.schedule
    = Schedule.steps logged.Runtime.schedule);
  Alcotest.(check int) "events identical" bare.Runtime.events
    logged.Runtime.events;
  Alcotest.(check (option int))
    "completion identical" bare.Runtime.completion_ticks
    logged.Runtime.completion_ticks;
  Alcotest.(check int) "retransmissions identical" bare.Runtime.retransmissions
    logged.Runtime.retransmissions;
  Alcotest.(check int) "drops identical" bare.Runtime.dropped_messages
    logged.Runtime.dropped_messages;
  Alcotest.(check int) "crashes identical" bare.Runtime.crashes
    logged.Runtime.crashes

let test_disabled_never_written () =
  (* The shared disabled log must never grow — every hook site guards
     on [enabled] — and a run given the disabled log must match the
     bare run exactly. *)
  let inst = random_instance ~seed:52 ~n:12 ~tokens:6 in
  let before = Causal.length Causal.disabled in
  let go causal =
    Runtime.run ?causal
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:9 inst
  in
  let bare = go None and off = go (Some Causal.disabled) in
  Alcotest.(check int)
    "disabled log untouched" before
    (Causal.length Causal.disabled);
  Alcotest.(check bool) "disabled flag" false (Causal.enabled Causal.disabled);
  Alcotest.(check bool)
    "schedules identical" true
    (Schedule.steps bare.Runtime.schedule = Schedule.steps off.Runtime.schedule);
  Alcotest.(check int) "events identical" bare.Runtime.events off.Runtime.events

(* ------------------- synchronous schedules -------------------------- *)

let test_of_schedule_exact () =
  let inst = random_instance ~seed:41 ~n:20 ~tokens:10 in
  let run =
    Ocd_engine.Engine.completed_exn
      (Ocd_engine.Engine.run
         ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:6 inst)
  in
  match Explain.of_schedule ~instance:inst run.Ocd_engine.Engine.schedule with
  | None -> Alcotest.fail "completed schedule must decompose"
  | Some d ->
      Alcotest.(check int) "sum equals makespan" d.Explain.makespan
        (category_sum d);
      Alcotest.(check int)
        "makespan is the schedule length" (Schedule.length run.Ocd_engine.Engine.schedule)
        d.Explain.makespan;
      Alcotest.(check bool) "path has hops" true (d.Explain.path_hops >= 1);
      Alcotest.(check bool)
        "sync decomposition has no delivery stats" true
        (d.Explain.deliveries = None)

let test_of_schedule_empty () =
  let inst = random_instance ~seed:41 ~n:6 ~tokens:3 in
  Alcotest.(check bool)
    "empty schedule has no path" true
    (Explain.of_schedule ~instance:inst Schedule.empty = None)

(* The tuple-keyed [of_schedule] that the flat-array walk replaced,
   kept verbatim as the differential oracle: [(dst, token)] and
   [(src, round)] tuples in polymorphic [Hashtbl]s. *)
module Hashtbl_oracle = struct
  open Explain

  let cat_idx = function
    | Transmit -> 0
    | Queue -> 1
    | Backoff -> 2
    | Suspicion -> 3
    | Crash_down -> 4
    | Partition_down -> 5
    | Protocol_idle -> 6

  let of_schedule ?(pace = 1) ~instance sched =
    let rounds = ref 0 and last_move = ref None in
    let acq = Hashtbl.create 64 and busy = Hashtbl.create 64 in
    Schedule.iter_moves sched (fun ~step m ->
        let { Move.src; dst; token } = m in
        if step + 1 > !rounds then rounds := step + 1;
        if not (Hashtbl.mem acq (dst, token)) then
          Hashtbl.replace acq (dst, token) (step + 1, src, step);
        Hashtbl.replace busy (src, step) ();
        last_move := Some (step, src, dst, token));
    match !last_move with
    | None -> None
    | Some (r_last, src0, _, tok0) ->
        let counts = Array.make 7 0 in
        let add c n = counts.(cat_idx c) <- counts.(cat_idx c) + n in
        let hops = ref 0 in
        let rec back r src token =
          incr hops;
          add Transmit 1;
          let pr, psrc, pround =
            if Bitset.mem instance.Instance.have.(src) token then (0, -1, -1)
            else
              match Hashtbl.find_opt acq (src, token) with
              | Some v -> v
              | None -> (0, -1, -1)
          in
          for g = pr to r - 1 do
            if Hashtbl.mem busy (src, g) then add Queue 1
            else add Protocol_idle 1
          done;
          if psrc >= 0 then back pround psrc token
        in
        back r_last src0 tok0;
        let scale (c, n) = (c, n * pace) in
        Some
          {
            makespan = !rounds * pace;
            by_category =
              List.map scale
                (List.map (fun c -> (c, counts.(cat_idx c))) categories);
            path_events = !hops + 1;
            path_hops = !hops;
            lower_bound = Bounds.makespan_lower_bound instance * pace;
            deliveries = None;
          }
end

let test_of_schedule_matches_oracle () =
  (* The five heuristics and the [ocd run] baselines, on single-file
     random and transit-stub instances and a multi-sender split, at
     paces 1 and 3: every validated schedule decomposes exactly as the
     oracle does. *)
  let strategies =
    Ocd_heuristics.Registry.all
    @ [
        Ocd_heuristics.Flow_step.strategy;
        Ocd_baselines.Tree_push.strategy ();
        Ocd_baselines.Split_forest.strategy ~k:4 ();
        Ocd_baselines.Fast_replica.strategy ();
        Ocd_baselines.Serial_steiner.strategy;
      ]
  in
  let instances =
    let rng = Prng.create ~seed:61 in
    let ts =
      Ocd_topology.Topology.generate rng Ocd_topology.Topology.Transit_stub
        ~n:24
    in
    [
      ("random", random_instance ~seed:41 ~n:20 ~tokens:10);
      ( "transit-stub",
        (Scenario.single_file rng ~graph:ts ~tokens:8 ()).Scenario.instance );
      ( "multi-sender",
        (Scenario.subdivide_files rng
           ~graph:(Ocd_topology.Random_graph.erdos_renyi rng ~n:18 ())
           ~total_tokens:12 ~files:3 ~multi_sender:true ())
          .Scenario.instance );
    ]
  in
  List.iter
    (fun (label, inst) ->
      List.iter
        (fun (s : Ocd_engine.Strategy.t) ->
          let sched =
            (Ocd_engine.Engine.run ~strategy:s ~seed:7 inst)
              .Ocd_engine.Engine.schedule
          in
          let msg = label ^ "/" ^ s.Ocd_engine.Strategy.name in
          Alcotest.(check bool) (msg ^ ": valid") true
            (Validate.check inst sched = Ok ());
          List.iter
            (fun pace ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: pace %d" msg pace)
                true
                (Explain.of_schedule ~pace ~instance:inst sched
                = Hashtbl_oracle.of_schedule ~pace ~instance:inst sched))
            [ 1; 3 ])
        strategies)
    instances

(* ------------------- flow overlay ----------------------------------- *)

let test_flow_overlay () =
  let inst = random_instance ~seed:33 ~n:12 ~tokens:6 in
  let causal = Causal.create () in
  ignore
    (Runtime.run ~causal
       ~protocol:(Ocd_async.Local_rarest.protocol ())
       ~seed:5 inst);
  let sink = Ocd_obs.Sink.memory () in
  Explain.flow_overlay ~sink causal;
  let evs = Ocd_obs.Sink.events sink in
  Alcotest.(check bool) "overlay emitted" true (List.length evs >= 2);
  List.iter
    (fun (e : Ocd_obs.Sink.event) ->
      Alcotest.(check string) "name" "critical-path" e.Ocd_obs.Sink.name;
      Alcotest.(check int) "flow id" 1 e.Ocd_obs.Sink.id;
      Alcotest.(check int) "pid" 0 e.Ocd_obs.Sink.pid)
    evs;
  Alcotest.(check char) "starts with ph=s" 's'
    (List.hd evs).Ocd_obs.Sink.ph;
  Alcotest.(check char) "ends with ph=f" 'f'
    (List.nth evs (List.length evs - 1)).Ocd_obs.Sink.ph;
  (* ticks along the path never decrease *)
  ignore
    (List.fold_left
       (fun prev (e : Ocd_obs.Sink.event) ->
         Alcotest.(check bool) "monotone ts" true (e.Ocd_obs.Sink.ts >= prev);
         e.Ocd_obs.Sink.ts)
       0 evs);
  (* no completion, no overlay *)
  let empty_sink = Ocd_obs.Sink.memory () in
  Explain.flow_overlay ~sink:empty_sink (Causal.create ());
  Alcotest.(check int)
    "no overlay without a Complete event" 0
    (List.length (Ocd_obs.Sink.events empty_sink))

(* ------------------- experiment smoke ------------------------------- *)

let test_jobs_deterministic () =
  (* Filling one causal log per task under the Pool and extracting in
     task order must be jobs-independent — the property the explain
     experiment, CLI and CI diff all lean on. *)
  let go jobs =
    Pool.map ~jobs
      (fun seed ->
        let inst = random_instance ~seed ~n:12 ~tokens:6 in
        let causal = Causal.create () in
        let r =
          Runtime.run ~causal
            ~protocol:(Ocd_async.Local_rarest.protocol ())
            ~seed inst
        in
        ( r.Runtime.completion_ticks,
          Causal.length causal,
          Option.map
            (fun (d : Explain.decomposition) -> d.Explain.by_category)
            (Explain.of_causal ~pace:Ocd_async.Net.default.Ocd_async.Net.pace
               ~instance:inst causal) ))
      [ 3; 4; 5; 6 ]
  in
  Alcotest.(check bool) "jobs-independent" true (go 1 = go 4)

let () =
  Alcotest.run "explain"
    [
      ( "exact-sum",
        [
          Alcotest.test_case "lockstep" `Quick test_lockstep_exact;
          Alcotest.test_case "chaos smoke cells" `Quick test_chaos_cells_exact;
          Alcotest.test_case "sync schedule" `Quick test_of_schedule_exact;
          Alcotest.test_case "empty schedule" `Quick test_of_schedule_empty;
          Alcotest.test_case "sync schedule = oracle" `Quick
            test_of_schedule_matches_oracle;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "enabled run identical" `Quick
            test_enabled_run_identical;
          Alcotest.test_case "disabled never written" `Quick
            test_disabled_never_written;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "flow overlay" `Quick test_flow_overlay;
          Alcotest.test_case "cell lookup errors" `Quick
            test_unknown_cell_rejected;
          Alcotest.test_case "jobs deterministic" `Quick
            test_jobs_deterministic;
        ] );
    ]
