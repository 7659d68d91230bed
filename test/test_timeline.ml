(* Tests for Ocd_core.Timeline: differential checks against an
   independent naive replay, plus the consumers rewired onto it. *)

open Ocd_prelude
open Ocd_core

(* ------------------------------------------------------------------ *)
(* Independent reference: the pre-Timeline possession replay, kept     *)
(* verbatim so the differential tests do not share code with the       *)
(* implementation under test.                                          *)
(* ------------------------------------------------------------------ *)

let naive_possessions (inst : Instance.t) schedule =
  let steps = Schedule.steps schedule in
  let current = Array.map Bitset.copy inst.have in
  let snapshot () = Array.map Bitset.copy current in
  let history = ref [ snapshot () ] in
  let apply moves =
    List.iter
      (fun (m : Move.t) ->
        if m.token >= 0 && m.token < inst.token_count then
          Bitset.add current.(m.dst) m.token)
      moves;
    history := snapshot () :: !history
  in
  List.iter apply steps;
  Array.of_list (List.rev !history)

let naive_completion_times (inst : Instance.t) schedule =
  let history = naive_possessions inst schedule in
  Array.mapi
    (fun v want ->
      let rec earliest i =
        if i >= Array.length history then -1
        else if Bitset.subset want history.(i).(v) then i
        else earliest (i + 1)
      in
      earliest 0)
    inst.want

let naive_deficit (inst : Instance.t) have =
  let total = ref 0 in
  Array.iteri
    (fun v want -> total := !total + Bitset.cardinal (Bitset.diff want have.(v)))
    inst.want;
  !total

let naive_satisfied (inst : Instance.t) have =
  let count = ref 0 in
  Array.iteri
    (fun v want -> if Bitset.subset want have.(v) then incr count)
    inst.want;
  !count

(* §5.1 pruning over move lists: pass 1 keeps the first delivery of
   each in-range (vertex, token) not held initially; pass 2 walks the
   steps backwards keeping a delivery iff its destination wants the
   token or forwards it in a kept later move. *)
let naive_prune (inst : Instance.t) schedule =
  let delivered = Hashtbl.create 64 in
  let first (m : Move.t) =
    m.token >= 0
    && m.token < inst.token_count
    && (not (Bitset.mem inst.have.(m.dst) m.token))
    && not (Hashtbl.mem delivered (m.dst, m.token))
    && (Hashtbl.replace delivered (m.dst, m.token) ();
        true)
  in
  let pass1 =
    List.map
      (fun ms -> List.rev (List.fold_left (fun acc m -> if first m then m :: acc else acc) [] ms))
      (Schedule.steps schedule)
  in
  let _, pass2 =
    List.fold_left
      (fun (forwarded, later) ms ->
        let kept =
          List.filter
            (fun (m : Move.t) ->
              Bitset.mem inst.want.(m.dst) m.token
              || List.mem (m.dst, m.token) forwarded)
            ms
        in
        ( List.map (fun (m : Move.t) -> (m.src, m.token)) kept @ forwarded,
          kept :: later ))
      ([], []) (List.rev pass1)
  in
  let rec drop_trailing = function
    | [] :: rest -> drop_trailing rest
    | steps -> steps
  in
  List.rev (drop_trailing (List.rev pass2))

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let single_file ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let g = Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.35 () in
  (Scenario.single_file rng ~graph:g ~tokens ~source:0 ()).Scenario.instance

let engine_schedule ~seed ~n ~tokens =
  let inst = single_file ~seed ~n ~tokens in
  let run =
    Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed
      inst
  in
  (inst, run.Ocd_engine.Engine.schedule)

let dynamic_schedule ~seed ~n ~tokens =
  let inst = single_file ~seed ~n ~tokens in
  let condition =
    Ocd_dynamics.Condition.cross_traffic ~seed ~prob:0.3 ~severity:0.5
  in
  let run =
    Ocd_dynamics.Dynamic_engine.run ~condition
      ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed inst
  in
  (inst, run.Ocd_dynamics.Dynamic_engine.schedule)

let check_against_naive (inst : Instance.t) schedule =
  let history = naive_possessions inst schedule in
  (* fold visits every boundary with the same possession state and the
     incrementally maintained counters agree with full rescans *)
  let boundaries =
    Timeline.fold inst schedule ~init:0 ~f:(fun i v ->
        Alcotest.(check int) "boundary index" i v.Timeline.step;
        Array.iteri
          (fun u bits ->
            Alcotest.(check bool)
              (Printf.sprintf "possession at boundary %d vertex %d" i u)
              true
              (Bitset.equal bits v.Timeline.have.(u)))
          history.(i);
        Alcotest.(check int) "deficit" (naive_deficit inst history.(i))
          v.Timeline.deficit;
        Alcotest.(check int) "satisfied" (naive_satisfied inst history.(i))
          v.Timeline.satisfied;
        Alcotest.(check int) "running move count"
          (List.fold_left
             (fun acc step -> acc + List.length step)
             0
             (List.filteri (fun j _ -> j < i) (Schedule.steps schedule)))
          v.Timeline.moves;
        i + 1)
  in
  Alcotest.(check int) "boundary count" (Schedule.length schedule + 1)
    boundaries;
  (* the end state agrees with the naive replay too *)
  let t = Timeline.run inst schedule in
  Alcotest.(check (array int)) "completion times"
    (naive_completion_times inst schedule)
    (Timeline.completion_times t);
  let final = Timeline.final t in
  Array.iteri
    (fun u bits ->
      Alcotest.(check bool) "final possession" true
        (Bitset.equal bits final.(u)))
    history.(Array.length history - 1);
  Alcotest.(check bool) "complete flag" (naive_deficit inst final = 0)
    (Timeline.complete t)

(* ------------------------------------------------------------------ *)
(* Differential suites                                                 *)
(* ------------------------------------------------------------------ *)

let test_differential_engine () =
  List.iter
    (fun seed ->
      let inst, schedule = engine_schedule ~seed ~n:14 ~tokens:5 in
      check_against_naive inst schedule)
    [ 1; 2; 3; 4; 5 ]

let test_differential_dynamic () =
  List.iter
    (fun seed ->
      let inst, schedule = dynamic_schedule ~seed ~n:12 ~tokens:4 in
      check_against_naive inst schedule)
    [ 11; 12; 13 ]

let test_empty_schedule () =
  let inst = single_file ~seed:7 ~n:6 ~tokens:3 in
  check_against_naive inst Schedule.empty;
  let t = Timeline.run inst Schedule.empty in
  Alcotest.(check bool) "incomplete" false (Timeline.complete t)

let test_makespan_matches_metrics () =
  let inst, schedule = engine_schedule ~seed:9 ~n:14 ~tokens:5 in
  let t = Timeline.run inst schedule in
  let m = Metrics.of_schedule inst schedule in
  Alcotest.(check bool) "complete" true (Timeline.complete t && m.Metrics.complete);
  Alcotest.(check int) "makespan agrees" m.Metrics.makespan
    (Array.fold_left max 0 (Timeline.completion_times t))

(* ------------------------------------------------------------------ *)
(* Tracker                                                             *)
(* ------------------------------------------------------------------ *)

let test_tracker_counts () =
  (* 0 holds both tokens; 1 and 2 want both.  Feed deliveries by hand
     and watch the counters move one fresh delivery at a time. *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 2); (0, 2, 2) ] in
  let inst =
    Instance.make ~graph:g ~token_count:2
      ~have:[ (0, [ 0; 1 ]) ]
      ~want:[ (1, [ 0; 1 ]); (2, [ 0; 1 ]) ]
  in
  let tr = Timeline.Tracker.create inst in
  Alcotest.(check int) "initial deficit" 4 (Timeline.Tracker.deficit tr);
  Alcotest.(check int) "source counts as satisfied" 1
    (Timeline.Tracker.satisfied tr);
  Timeline.Tracker.deliver tr ~step:1 ~dst:1 ~token:0;
  Alcotest.(check int) "deficit drains" 3 (Timeline.Tracker.deficit tr);
  Alcotest.(check bool) "not yet done" false
    (Timeline.Tracker.all_satisfied tr);
  Timeline.Tracker.deliver tr ~step:2 ~dst:1 ~token:1;
  Timeline.Tracker.deliver tr ~step:2 ~dst:2 ~token:0;
  Timeline.Tracker.deliver tr ~step:3 ~dst:2 ~token:1;
  Alcotest.(check bool) "all satisfied" true
    (Timeline.Tracker.all_satisfied tr);
  Alcotest.(check (array int)) "completion steps" [| 0; 2; 3 |]
    (Timeline.Tracker.completion_times tr)

let test_engine_fresh_deliveries_dedup () =
  (* Two sources push the same (dst, token) in the same step: the run
     must count one fresh delivery, not two. *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 2, 1); (1, 2, 1) ] in
  let inst =
    Instance.make ~graph:g ~token_count:1
      ~have:[ (0, [ 0 ]); (1, [ 0 ]) ]
      ~want:[ (2, [ 0 ]) ]
  in
  let both =
    Ocd_engine.Strategy.stateless ~name:"both" (fun ctx ->
        if ctx.Ocd_engine.Strategy.step = 0 then
          [
            { Move.src = 0; dst = 2; token = 0 };
            { Move.src = 1; dst = 2; token = 0 };
          ]
        else [])
  in
  let run = Ocd_engine.Engine.run ~strategy:both ~seed:1 inst in
  Alcotest.(check bool) "completed" true
    (run.Ocd_engine.Engine.outcome = Ocd_engine.Engine.Completed);
  Alcotest.(check int) "distinct (dst, token) pairs" 1
    run.Ocd_engine.Engine.fresh_deliveries

let test_engine_fresh_deliveries_counts_all_progress () =
  let inst, _ = engine_schedule ~seed:21 ~n:10 ~tokens:4 in
  let run =
    Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Local_rarest.strategy
      ~seed:21 inst
  in
  (* every (vertex, wanted token) hole filled is a fresh delivery, and
     relays may deliver unwanted-but-possessed tokens too *)
  let wanted_holes = naive_deficit inst inst.Instance.have in
  Alcotest.(check bool) "at least every hole filled" true
    (run.Ocd_engine.Engine.fresh_deliveries >= wanted_holes)

(* ------------------------------------------------------------------ *)
(* Rewired consumers                                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_running_sum_long_schedule () =
  (* A long sparse schedule: one move every step on a 2-cycle.  The
     old O(steps^2) moves_so_far recompute made this size painful; the
     running sum must report exact prefix sums. *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:2 [ (0, 1, 1); (1, 0, 1) ] in
  let inst =
    Instance.make ~graph:g ~token_count:1 ~have:[ (0, [ 0 ]) ]
      ~want:[ (1, [ 0 ]) ]
  in
  let steps =
    List.init 2000 (fun _ -> [ { Move.src = 0; dst = 1; token = 0 } ])
  in
  let schedule = Schedule.of_steps steps in
  let boundaries =
    Timeline.fold inst schedule ~init:0 ~f:(fun count v ->
        Alcotest.(check int)
          (Printf.sprintf "prefix sum at %d" v.Timeline.step)
          v.Timeline.step v.Timeline.moves;
        count + 1)
  in
  Alcotest.(check int) "snapshot count" 2001 boundaries

let test_trace_cdf_monotone () =
  (* the satisfied fraction per boundary is the completion CDF *)
  let inst, schedule = engine_schedule ~seed:31 ~n:14 ~tokens:5 in
  let n = float_of_int (Instance.vertex_count inst) in
  let cdf =
    List.rev
      (Timeline.fold inst schedule ~init:[] ~f:(fun acc v ->
           (v.Timeline.step, float_of_int v.Timeline.satisfied /. n) :: acc))
  in
  let rec monotone = function
    | (s1, f1) :: ((s2, f2) :: _ as rest) ->
      s1 < s2 && f1 <= f2 && monotone rest
    | [ (_, last) ] -> last = 1.0
    | [] -> false
  in
  Alcotest.(check bool) "steps increase, fraction nondecreasing to 1.0" true
    (monotone cdf)

let relay_instance () =
  (* 0 holds both tokens, 4 holds token 1; 3 wants both, 4 wants 0;
     1 and 2 want nothing and can only relay. *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:5 [] in
  Instance.make ~graph:g ~token_count:2
    ~have:[ (0, [ 0; 1 ]); (4, [ 1 ]) ]
    ~want:[ (3, [ 0; 1 ]); (4, [ 0 ]) ]

let relay_schedule () =
  let mv src dst token = { Move.src; dst; token } in
  Schedule.of_steps
    [
      (* 0 -> 2 of token 0 only feeds a later duplicate: dropped *)
      [ mv 0 1 0; mv 0 1 1; mv 0 2 0; mv 0 4 1 (* to an initial holder *) ];
      (* two first-looking deliveries of (3, 0) in one step: the first
         counts; 1 -> 2 of token 1 is a relay kept by step 2 *)
      [ mv 1 3 0; mv 2 3 0; mv 1 2 1; mv 0 1 0 (* re-delivery *) ];
      [ mv 2 3 1; mv 3 4 0 ];
      (* nothing fresh is left: every trailing step empties *)
      [ mv 1 2 0; mv 2 1 1; mv 0 1 5 (* out-of-range token *) ];
      [];
    ]

let test_prune_matches_naive () =
  let check (inst, schedule) =
    let pruned = Prune.prune inst schedule in
    Alcotest.(check (list (list (triple int int int))))
      "kept moves"
      (List.map
         (List.map (fun (m : Move.t) -> (m.src, m.dst, m.token)))
         (naive_prune inst schedule))
      (List.map
         (List.map (fun (m : Move.t) -> (m.src, m.dst, m.token)))
         (Schedule.steps pruned));
    Alcotest.(check int) "pruned bandwidth"
      (Schedule.move_count pruned)
      (Metrics.of_schedule inst schedule).Metrics.pruned_bandwidth
  in
  let inst = relay_instance () in
  check (inst, relay_schedule ());
  Alcotest.(check (list (list (triple int int int))))
    "hand-built schedule pruned as worked out"
    [ [ (0, 1, 0); (0, 1, 1) ]; [ (1, 3, 0); (1, 2, 1) ]; [ (2, 3, 1); (3, 4, 0) ] ]
    (List.map
       (List.map (fun (m : Move.t) -> (m.src, m.dst, m.token)))
       (Schedule.steps (Prune.prune inst (relay_schedule ()))));
  check (inst, Schedule.empty);
  List.iter
    (fun seed -> check (engine_schedule ~seed ~n:14 ~tokens:5))
    [ 41; 42; 43 ];
  List.iter
    (fun seed -> check (dynamic_schedule ~seed ~n:12 ~tokens:4))
    [ 11; 12; 13 ]

let test_stalled_metrics_render_na () =
  (* vertex 1 can never be served: of_schedule must keep it visible
     (completion -1, complete = false) and render makespan as n/a *)
  let g = Ocd_graph.Digraph.of_edges ~vertex_count:2 [] in
  let inst =
    Instance.make ~graph:g ~token_count:1 ~have:[ (0, [ 0 ]) ]
      ~want:[ (1, [ 0 ]) ]
  in
  let m = Metrics.of_schedule inst Schedule.empty in
  Alcotest.(check bool) "not complete" false m.Metrics.complete;
  Alcotest.(check (array int)) "never-completing vertex kept" [| 0; -1 |]
    m.Metrics.completion_times;
  Alcotest.(check string) "renders n/a" "n/a" (Metrics.makespan_cell m);
  let complete = Metrics.of_schedule inst Schedule.empty in
  Alcotest.(check string) "complete runs unchanged" "n/a"
    (Metrics.makespan_cell complete)

let test_prune_unchanged_by_rewire () =
  (* pruning still yields a valid, complete, no-larger schedule *)
  List.iter
    (fun seed ->
      let inst, schedule = engine_schedule ~seed ~n:14 ~tokens:5 in
      let pruned = Prune.prune inst schedule in
      (match Validate.check_successful inst pruned with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "pruned schedule invalid: %a" Validate.pp_error e);
      Alcotest.(check bool) "no more moves" true
        (Schedule.move_count pruned <= Schedule.move_count schedule))
    [ 41; 42; 43 ]

let () =
  Alcotest.run "ocd_timeline"
    [
      ( "differential",
        [
          Alcotest.test_case "engine schedules" `Quick test_differential_engine;
          Alcotest.test_case "dynamic schedules" `Quick
            test_differential_dynamic;
          Alcotest.test_case "empty schedule" `Quick test_empty_schedule;
          Alcotest.test_case "makespan vs metrics" `Quick
            test_makespan_matches_metrics;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "counters" `Quick test_tracker_counts;
          Alcotest.test_case "fresh dedup" `Quick
            test_engine_fresh_deliveries_dedup;
          Alcotest.test_case "fresh lower bound" `Quick
            test_engine_fresh_deliveries_counts_all_progress;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "trace running sum" `Quick
            test_trace_running_sum_long_schedule;
          Alcotest.test_case "cdf monotone" `Quick test_trace_cdf_monotone;
          Alcotest.test_case "stalled metrics n/a" `Quick
            test_stalled_metrics_render_na;
          Alcotest.test_case "prune invariants" `Quick
            test_prune_unchanged_by_rewire;
          Alcotest.test_case "prune vs naive" `Quick test_prune_matches_naive;
        ] );
    ]
