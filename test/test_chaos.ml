(* Tests for the crash-recovery and partition fault model
   (Ocd_dynamics.Faults), the stall diagnosis, the chaos campaign
   harness (Ocd_bench.Chaos) and the fault-schedule shrinker
   (Ocd_bench.Shrink). *)

open Ocd_prelude
open Ocd_core

module Faults = Ocd_dynamics.Faults
module Condition = Ocd_dynamics.Condition
module Chaos = Ocd_bench.Chaos
module Shrink = Ocd_bench.Shrink

(* --------------------------- fault plans --------------------------- *)

let test_none_plan () =
  Alcotest.(check bool) "none is none" true (Faults.is_none Faults.none);
  Alcotest.(check bool)
    "crashes plan is not none" false
    (Faults.is_none (Faults.crashes ~seed:1 ~crash_prob:0.5 ()));
  for v = 0 to 4 do
    Alcotest.(check bool) "always up" true (Faults.up Faults.none ~round:17 v);
    Alcotest.(check (list (pair int reject)))
      "no transitions" []
      (List.map
         (fun (r, _) -> (r, ()))
         (Faults.transitions Faults.none ~node:v ~horizon:50))
  done

let test_plan_determinism () =
  let plan () = Faults.crashes ~seed:42 ~crash_prob:0.2 () in
  let a = plan () and b = plan () in
  for v = 0 to 9 do
    Alcotest.(check bool)
      "transitions reproducible" true
      (Faults.transitions a ~node:v ~horizon:100
      = Faults.transitions b ~node:v ~horizon:100);
    (* query order must not matter: probe b backwards first *)
    for r = 60 downto 0 do
      ignore (Faults.up b ~round:r v)
    done;
    for r = 0 to 60 do
      Alcotest.(check bool)
        "up agrees under any query order" (Faults.up a ~round:r v)
        (Faults.up b ~round:r v)
    done
  done

let test_transitions_consistent_with_up () =
  let plan = Faults.crashes ~seed:7 ~crash_prob:0.3 ~recover_prob:0.4 () in
  for v = 0 to 7 do
    Alcotest.(check bool) "round 0 up" true (Faults.up plan ~round:0 v);
    List.iter
      (fun (r, ev) ->
        Alcotest.(check bool) "transition rounds positive" true (r >= 1);
        match ev with
        | `Crash ->
          Alcotest.(check bool) "up before crash" true (Faults.up plan ~round:(r - 1) v);
          Alcotest.(check bool) "down from crash" false (Faults.up plan ~round:r v)
        | `Restart ->
          Alcotest.(check bool) "down before restart" false
            (Faults.up plan ~round:(r - 1) v);
          Alcotest.(check bool) "up from restart" true (Faults.up plan ~round:r v))
      (Faults.transitions plan ~node:v ~horizon:80)
  done

let test_protected_nodes_never_crash () =
  let plan =
    Faults.crashes ~seed:3 ~protected:[ 2; 5 ] ~crash_prob:0.9 ()
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        "protected node has no transitions" 0
        (List.length (Faults.transitions plan ~node:v ~horizon:200));
      for r = 0 to 50 do
        Alcotest.(check bool) "protected node always up" true
          (Faults.up plan ~round:r v)
      done)
    [ 2; 5 ];
  (* sanity: an unprotected node under 0.9 crash probability does move *)
  Alcotest.(check bool)
    "unprotected node crashes" true
    (Faults.transitions plan ~node:0 ~horizon:200 <> [])

let test_to_condition_shadow () =
  let plan = Faults.crashes ~seed:11 ~crash_prob:0.5 () in
  let cond = Faults.to_condition plan in
  let checked = ref 0 in
  for r = 0 to 40 do
    for src = 0 to 3 do
      for dst = 0 to 3 do
        if src <> dst then begin
          let eff = Condition.effective cond ~step:r ~src ~dst ~base:2 in
          let expect =
            if Faults.up plan ~round:r src && Faults.up plan ~round:r dst then 2
            else 0
          in
          if expect = 0 then incr checked;
          Alcotest.(check int) "arc zeroed iff an endpoint is down" expect eff
        end
      done
    done
  done;
  Alcotest.(check bool) "some downtime was exercised" true (!checked > 0)

(* Pins the trajectories of every fault process on a fixed 40-vertex
   graph over 500 steps: link flaps per arc, churn per vertex, crash
   transitions per node, partition windows and sides.  The processes
   are pure functions of their seeds, so any difference here is a
   change to a chain's draw order, never noise. *)
let test_process_pin () =
  let horizon = 500 and n = 40 in
  let graph =
    Ocd_topology.Random_graph.erdos_renyi (Prng.create ~seed:40) ~n ()
  in
  let mix acc x = (acc * 1_000_003) lxor x in
  let over_steps f =
    let acc = ref 0 in
    for step = 1 to horizon do
      acc := f !acc step
    done;
    !acc
  in
  let flaps = Condition.link_flaps ~seed:41 ~down_prob:0.1 ~up_prob:0.5 in
  let churn =
    Condition.churn ~seed:42 ~protected:[ 0; 1 ] ~leave_prob:0.02
      ~return_prob:0.3
  in
  let crashes = Faults.crashes ~seed:43 ~protected:[ 0 ] ~crash_prob:0.05 () in
  let parts = Faults.partitions ~seed:44 ~split_prob:0.08 ~heal_prob:0.25 () in
  let pin name expected got = Alcotest.(check int) name expected got in
  pin "link_flaps" 4349700048233151815
    (over_steps (fun acc step ->
         List.fold_left
           (fun acc { Ocd_graph.Digraph.src; dst; _ } ->
             mix acc (Condition.effective flaps ~step ~src ~dst ~base:1))
           acc (Ocd_graph.Digraph.arcs graph)));
  pin "churn" 3837339429163406524
    (over_steps (fun acc step ->
         List.fold_left
           (fun acc v ->
             mix acc (Condition.effective churn ~step ~src:v ~dst:v ~base:1))
           acc (List.init n Fun.id)));
  pin "transitions" 2905385672808223659
    (List.fold_left
       (fun acc v ->
         List.fold_left
           (fun acc (r, ev) ->
             mix acc ((2 * r) + if ev = `Crash then 1 else 0))
           (mix acc v)
           (Faults.transitions crashes ~node:v ~horizon))
       0 (List.init n Fun.id));
  pin "windows" (-170280265069571501)
    (List.fold_left
       (fun acc (a, b) -> mix (mix acc a) b)
       0 (Faults.windows parts ~horizon));
  pin "separated" 3771825391235560076
    (over_steps (fun acc round ->
         List.fold_left
           (fun acc v ->
             mix acc (Bool.to_int (Faults.separated parts ~round 0 v)))
           acc (List.init n Fun.id)))

(* ------------------------- partition plans ------------------------- *)

let test_partition_determinism () =
  let plan () =
    Faults.partitions ~seed:13 ~split_prob:0.3 ~heal_prob:0.3 ()
  in
  let a = plan () and b = plan () in
  (* probe b in reverse first: query order must not matter *)
  for r = 80 downto 0 do
    ignore (Faults.partition_active b ~round:r);
    ignore (Faults.separated b ~round:r 0 5)
  done;
  let some_active = ref false in
  for r = 0 to 80 do
    Alcotest.(check bool)
      "activity agrees" (Faults.partition_active a ~round:r)
      (Faults.partition_active b ~round:r);
    if Faults.partition_active a ~round:r then some_active := true;
    for u = 0 to 5 do
      for v = 0 to 5 do
        Alcotest.(check bool)
          "separation agrees" (Faults.separated a ~round:r u v)
          (Faults.separated b ~round:r u v);
        (* two sides: u and v are apart iff exactly one is apart from 0 *)
        Alcotest.(check bool)
          "separated iff different sides"
          (Faults.partition_active a ~round:r
          && Faults.separated a ~round:r 0 u <> Faults.separated a ~round:r 0 v)
          (Faults.separated a ~round:r u v)
      done
    done
  done;
  Alcotest.(check bool) "plan did split" true !some_active

let test_windows_roundtrip () =
  let plan = Faults.partitions ~seed:21 ~split_prob:0.2 ~heal_prob:0.4 () in
  let horizon = 120 in
  let ws = Faults.windows plan ~horizon in
  Alcotest.(check bool) "some windows extracted" true (ws <> []);
  List.iter
    (fun (a, b) -> Alcotest.(check bool) "window well-formed" true (1 <= a && a < b))
    ws;
  let replay = Faults.of_windows ~seed:21 ws in
  for r = 0 to horizon do
    Alcotest.(check bool)
      "activity replays" (Faults.partition_active plan ~round:r)
      (Faults.partition_active replay ~round:r);
    for u = 0 to 7 do
      for v = 0 to 7 do
        Alcotest.(check bool)
          "separation replays byte-identically"
          (Faults.separated plan ~round:r u v)
          (Faults.separated replay ~round:r u v)
      done
    done
  done

let test_compose_crash_and_partition () =
  let crash = Faults.crashes ~seed:5 ~crash_prob:0.3 () in
  let part = Faults.of_windows ~seed:9 [ (3, 10) ] in
  let both = Faults.compose crash part in
  Alcotest.(check bool) "has partition" true (Faults.has_partition both);
  Alcotest.(check bool) "crash side kept" true
    (Faults.up both ~round:20 1 = Faults.up crash ~round:20 1);
  Alcotest.(check bool) "partition side kept" true
    (Faults.separated both ~round:5 0 1 = Faults.separated part ~round:5 0 1);
  Alcotest.(check bool)
    "two crash components rejected" true
    (match Faults.compose crash crash with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the condition shadow zeroes arcs for downed nodes AND separated pairs *)
  let cond = Faults.to_condition both in
  let zeroed = ref 0 in
  for r = 0 to 15 do
    for u = 0 to 4 do
      for v = 0 to 4 do
        if u <> v then begin
          let eff = Condition.effective cond ~step:r ~src:u ~dst:v ~base:3 in
          let expect =
            if
              Faults.up both ~round:r u
              && Faults.up both ~round:r v
              && not (Faults.separated both ~round:r u v)
            then 3
            else 0
          in
          if expect = 0 then incr zeroed;
          Alcotest.(check int) "shadow covers both fault kinds" expect eff
        end
      done
    done
  done;
  Alcotest.(check bool) "shadow exercised" true (!zeroed > 0)

(* --------------------------- diagnosis ----------------------------- *)

let harsh_timed_out_run () =
  let rng = Prng.create ~seed:19 in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:10 () in
  let inst = (Scenario.single_file rng ~graph ~tokens:5 ()).Scenario.instance in
  let faults = Faults.crashes ~seed:23 ~crash_prob:0.6 ~recover_prob:0.2 () in
  let r =
    Ocd_async.Runtime.run ~faults ~round_limit:30
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:6 inst
  in
  Alcotest.(check bool)
    "harsh faults time the run out" true
    (r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Timed_out);
  r

let test_timed_out_carries_diagnosis () =
  let r = harsh_timed_out_run () in
  match r.Ocd_async.Runtime.diagnosis with
  | None -> Alcotest.fail "timed-out run lost its diagnosis"
  | Some d ->
    Alcotest.(check bool)
      "outstanding wants recorded" true
      (d.Ocd_async.Diagnosis.outstanding <> []);
    Alcotest.(check bool)
      "sampling happened" true
      (d.Ocd_async.Diagnosis.sampled_rounds > 0);
    Alcotest.(check bool)
      "verdict renders" true
      (String.length
         (Ocd_async.Diagnosis.verdict_name d.Ocd_async.Diagnosis.verdict)
      > 0)

let test_completed_has_no_diagnosis () =
  let rng = Prng.create ~seed:29 in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:10 () in
  let inst = (Scenario.single_file rng ~graph ~tokens:5 ()).Scenario.instance in
  let r =
    Ocd_async.Runtime.run
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:8 inst
  in
  Alcotest.(check bool)
    "completed" true
    (r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Completed);
  Alcotest.(check bool)
    "no diagnosis on success" true
    (r.Ocd_async.Runtime.diagnosis = None)

let test_partition_verdict () =
  (* A permanent split: the far side's wants are unsatisfiable while
     the window is up, and the window never closes — the diagnosis must
     attribute the stall to the partition, not to the protocol. *)
  let rng = Prng.create ~seed:19 in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n:10 () in
  let inst = (Scenario.single_file rng ~graph ~tokens:5 ()).Scenario.instance in
  let faults = Faults.of_windows ~seed:3 [ (1, 10_000) ] in
  let r =
    Ocd_async.Runtime.run ~faults ~round_limit:40
      ~protocol:(Ocd_async.Local_rarest.protocol ())
      ~seed:6 inst
  in
  Alcotest.(check bool)
    "permanent split times out" true
    (r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Timed_out);
  match r.Ocd_async.Runtime.diagnosis with
  | None -> Alcotest.fail "no diagnosis"
  | Some d ->
    Alcotest.(check string)
      "verdict is unsat-partition" "unsat-partition"
      (Ocd_async.Diagnosis.verdict_name d.Ocd_async.Diagnosis.verdict);
    Alcotest.(check bool)
      "cut rounds counted" true
      (d.Ocd_async.Diagnosis.partition_cut_rounds > 0)

(* ------------------------- chaos campaign -------------------------- *)

let test_chaos_jobs_determinism () =
  let a = Chaos.run ~jobs:1 ~seed:7 Chaos.smoke_grid in
  let b = Chaos.run ~jobs:4 ~seed:7 Chaos.smoke_grid in
  Alcotest.(check bool) "aggregates identical across jobs" true (a = b)

let test_chaos_smoke_invariants () =
  let aggs = (Chaos.run ~jobs:2 ~seed:7 Chaos.smoke_grid).Chaos.aggs in
  Alcotest.(check int)
    "cells x protocols rows" 16 (List.length aggs);
  List.iter
    (fun (a : Chaos.agg) ->
      Alcotest.(check int)
        (a.Chaos.env ^ "/" ^ a.Chaos.protocol ^ ": every schedule validates")
        0 a.Chaos.invalid;
      Alcotest.(check int)
        (a.Chaos.env ^ "/" ^ a.Chaos.protocol ^ ": no monitor violations")
        0 a.Chaos.violations;
      Alcotest.(check int)
        (a.Chaos.env ^ "/" ^ a.Chaos.protocol ^ ": every timeout diagnosed")
        0 a.Chaos.undiagnosed;
      Alcotest.(check bool)
        "completed within trials" true
        (a.Chaos.completed >= 0 && a.Chaos.completed <= a.Chaos.trials))
    aggs;
  (* The acceptance bar: in a crash cell, at least one protocol
     completes every trial — it demonstrably recovers from crashes. *)
  let crash_cells =
    List.filter (fun (a : Chaos.agg) -> a.Chaos.crashes > 0) aggs
  in
  Alcotest.(check bool) "crash cells exercised" true (crash_cells <> []);
  Alcotest.(check bool)
    "some protocol recovers from crashes" true
    (List.exists
       (fun (a : Chaos.agg) -> a.Chaos.completed = a.Chaos.trials)
       crash_cells)

(* [trial_setup] is what [ocd explain chaos-cell] replays: for every
   smoke-grid cell and protocol, running each trial from its setup
   must reproduce the campaign's sums exactly. *)
let test_trial_setup_replays_campaign () =
  let seed = 7 and grid = Chaos.smoke_grid in
  let module Runtime = Ocd_async.Runtime in
  List.iter
    (fun (a : Chaos.agg) ->
      let runs =
        List.init grid.Chaos.trials (fun trial ->
            match
              Chaos.trial_setup ~seed grid ~cell_label:a.Chaos.env
                ~protocol:a.Chaos.protocol ~trial
            with
            | Error e -> Alcotest.fail e
            | Ok s ->
                let monitor = Ocd_async.Monitor.create () in
                Runtime.run ~profile:s.Chaos.t_profile
                  ~condition:s.Chaos.t_condition ~faults:s.Chaos.t_faults
                  ~monitor ~protocol:s.Chaos.t_protocol ~seed:s.Chaos.t_run_seed
                  s.Chaos.t_instance)
      in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
      let label = a.Chaos.env ^ "/" ^ a.Chaos.protocol in
      Alcotest.(check (list int))
        (label ^ ": completed, crashes, restarts, lost, failed, violations")
        [
          a.Chaos.completed;
          a.Chaos.crashes;
          a.Chaos.restarts;
          a.Chaos.lost_tokens;
          a.Chaos.failed_jobs;
          a.Chaos.violations;
        ]
        [
          sum (fun r -> if r.Runtime.outcome = Runtime.Completed then 1 else 0);
          sum (fun r -> r.Runtime.crashes);
          sum (fun r -> r.Runtime.restarts);
          sum (fun r -> r.Runtime.lost_tokens);
          sum (fun r -> r.Runtime.failed_jobs);
          sum (fun r -> r.Runtime.violations);
        ])
    (Chaos.run ~jobs:1 ~seed grid).Chaos.aggs

(* ---------------------------- shrinking ---------------------------- *)

(* A case that fails for exactly one reason — a permanent partition —
   padded with crash spans that are pure noise.  ddmin must strip the
   noise and keep the window, and the minimal case must STILL fail the
   same way when replayed (the acceptance bar for the shrinker). *)
let failing_case =
  {
    Shrink.protocol = "async-local";
    instance_seed = 42;
    n = 10;
    tokens = 4;
    loss = 0.0;
    flaps = false;
    churn = false;
    cell_seed = 5 - Chaos.part_off;
    run_seed = 43;
    round_limit = 60;
    durability = Faults.Lost_unless_source;
    groups = 2;
    downtime = [ (1, 5, 10); (2, 12, 20); (3, 30, 40) ];
    windows = [ (1, 1_000) ];
  }

let test_shrink_minimises_and_replays () =
  let tag =
    match Shrink.run_case failing_case with
    | Some t -> t
    | None -> Alcotest.fail "crafted case unexpectedly passes"
  in
  Alcotest.(check string) "fails on the partition" "stall:unsat-partition" tag;
  match Shrink.shrink failing_case with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check string) "tag preserved" tag s.Shrink.tag;
    Alcotest.(check bool)
      "within the test budget" true
      (s.Shrink.tests <= Shrink.max_tests);
    let m = s.Shrink.minimal in
    Alcotest.(check bool)
      "downtime shrank to a subset" true
      (List.for_all
         (fun span -> List.mem span failing_case.Shrink.downtime)
         m.Shrink.downtime);
    Alcotest.(check bool)
      "noise crash spans removed" true
      (List.length m.Shrink.downtime < List.length failing_case.Shrink.downtime);
    Alcotest.(check (list (pair int int)))
      "the load-bearing window survives" [ (1, 1_000) ] m.Shrink.windows;
    (* the acceptance assertion: the shrunk reproducer still fails,
       with the same tag, when replayed from scratch *)
    Alcotest.(check (option string))
      "minimal case replays to the same failure" (Some tag)
      (Shrink.run_case m)

let test_shrink_rejects_passing_case () =
  let passing = { failing_case with Shrink.downtime = []; windows = [] } in
  Alcotest.(check (option string)) "case passes" None (Shrink.run_case passing);
  Alcotest.(check bool)
    "shrink refuses a passing case" true
    (match Shrink.shrink passing with Error _ -> true | Ok _ -> false)

let test_artifact_roundtrip () =
  let c =
    {
      failing_case with
      Shrink.loss = 0.0625;
      flaps = true;
      churn = true;
      durability = Faults.Durable;
    }
  in
  let s = Shrink.to_string c in
  Alcotest.(check bool)
    "artifact is versioned" true
    (String.length s > 0
    && String.sub s 0 (String.index s '\n') = "ocd-chaos-repro v1");
  (match Shrink.of_string s with
  | Error e -> Alcotest.fail e
  | Ok c' -> Alcotest.(check bool) "roundtrips exactly" true (c = c'));
  Alcotest.(check bool)
    "garbage rejected" true
    (match Shrink.of_string "not a repro\n" with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool)
    "truncated header rejected" true
    (match Shrink.of_string "ocd-chaos-repro v1\nprotocol=async-local\n" with
    | Error _ -> true
    | Ok _ -> false)

(* Each input would replay under a tag that is not its own (or raise),
   so the reader must refuse it. *)
let test_artifact_rejects_misreplays () =
  let base = Shrink.to_string failing_case in
  let with_line key line =
    String.concat "\n"
      (List.map
         (fun l -> if String.starts_with ~prefix:key l then line else l)
         (String.split_on_char '\n' base))
  in
  List.iter
    (fun (what, artifact) ->
      Alcotest.(check bool)
        what true
        (Result.is_error (Shrink.of_string artifact)))
    [
      ("span from round 0", base ^ "down 3 0 5\n");
      ("one group", with_line "groups=" "groups=1");
      ("loss above 1", with_line "loss=" "loss=2");
      ("unknown protocol", with_line "protocol=" "protocol=nope");
      ("node out of range", base ^ "down 99 2 5\n");
      ("overlapping windows", base ^ "win 500 1200\n");
      ("overlapping spans", base ^ "down 1 7 12\n");
      ("flap seed of another cell", base ^ "flap_seed=1\n");
      ("duplicate key", base ^ "n=10\n");
    ];
  Alcotest.(check bool)
    "the unmodified artifact is accepted" true
    (Result.is_ok (Shrink.of_string base))

(* Mutation fuzz: damage one line of a valid artifact.  The reader
   never raises, and whatever it accepts replays without raising. *)
let prop_artifact_mutations =
  let lines = String.split_on_char '\n' (Shrink.to_string failing_case) in
  let values =
    [ "0"; "1"; "-1"; "2"; "3"; "9"; "99"; "0.5"; "nan"; "x"; ""; "nope";
      "durable"; "async-push"; "1 2"; "3 4 5" ]
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound (List.length lines - 1)) (int_bound 3)
        (pair (oneofl values) (pair (int_bound 40) printable)))
  in
  let mutate (i, kind, (value, (pos, ch))) =
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun j l ->
              if j <> i then [ l ]
              else
                match kind with
                | 0 -> []
                | 1 -> [ l; l ]
                | 2 -> (
                    match String.index_opt l '=' with
                    | Some k -> [ String.sub l 0 (k + 1) ^ value ]
                    | None -> [ l ^ " " ^ value ])
                | _ ->
                    if l = "" then [ String.make 1 ch ]
                    else
                      let b = Bytes.of_string l in
                      Bytes.set b (pos mod String.length l) ch;
                      [ Bytes.to_string b ])
            lines))
  in
  QCheck.Test.make ~name:"mutated artifacts never raise" ~count:300
    (QCheck.make gen) (fun m ->
      match Shrink.of_string (mutate m) with
      | Error _ -> true
      | Ok c ->
          ignore (Shrink.run_case c);
          true)

(* The campaign and the shrinker judge a trial alike: every trial's
   campaign tag is the replay tag of its explicit case.  The smoke grid
   mostly completes, so the default grid's cells on small instances,
   where trials stall and pass under every process, are checked too. *)
let test_campaign_tags_replay () =
  List.iter
    (fun (seed, grid) ->
      let campaign = Chaos.run ~jobs:2 ~seed grid in
      List.iter
        (fun (((ci, name, trial) as task), tag) ->
          Alcotest.(check (option string))
            (Printf.sprintf "cell %d %s #%d" ci name trial)
            tag
            (Shrink.run_case (Chaos.case campaign task)))
        campaign.Chaos.tags)
    [
      (7, Chaos.smoke_grid);
      (42, Chaos.failing_grid);
      (3, { Chaos.default_grid with Chaos.n = 12; tokens = 6; trials = 1 });
    ]

let test_failures_feed_the_shrinker () =
  (* The known-failing grid: the campaign evaluator and the shrinker's
     evaluator are the same function, so every reported failure must be
     shrinkable and keep its tag. *)
  let failures jobs =
    Chaos.failures (Chaos.run ~jobs ~seed:42 Chaos.failing_grid)
  in
  let fails = failures 2 in
  Alcotest.(check bool) "failing grid fails" true (fails <> []);
  Alcotest.(check bool)
    "failures deterministic across jobs" true
    (fails = failures 1);
  let case, tag = List.hd fails in
  match Shrink.shrink case with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check string) "tag preserved" tag s.Shrink.tag;
    Alcotest.(check (option string))
      "shrunk reproducer still fails" (Some tag)
      (Shrink.run_case s.Shrink.minimal)

let () =
  Alcotest.run "ocd_chaos"
    [
      ( "fault plans",
        [
          Alcotest.test_case "none plan" `Quick test_none_plan;
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "transitions vs up" `Quick
            test_transitions_consistent_with_up;
          Alcotest.test_case "protected nodes" `Quick
            test_protected_nodes_never_crash;
          Alcotest.test_case "condition shadow" `Quick test_to_condition_shadow;
          Alcotest.test_case "process pin" `Quick test_process_pin;
        ] );
      ( "partition plans",
        [
          Alcotest.test_case "determinism" `Quick test_partition_determinism;
          Alcotest.test_case "windows roundtrip" `Quick test_windows_roundtrip;
          Alcotest.test_case "compose" `Quick test_compose_crash_and_partition;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "timeouts diagnosed" `Quick
            test_timed_out_carries_diagnosis;
          Alcotest.test_case "success undiagnosed" `Quick
            test_completed_has_no_diagnosis;
          Alcotest.test_case "partition verdict" `Quick test_partition_verdict;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs determinism" `Quick
            test_chaos_jobs_determinism;
          Alcotest.test_case "smoke invariants" `Quick
            test_chaos_smoke_invariants;
          Alcotest.test_case "trial_setup replays run" `Quick
            test_trial_setup_replays_campaign;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "minimise and replay" `Quick
            test_shrink_minimises_and_replays;
          Alcotest.test_case "passing case rejected" `Quick
            test_shrink_rejects_passing_case;
          Alcotest.test_case "artifact roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "artifact rejects misreplays" `Quick
            test_artifact_rejects_misreplays;
          QCheck_alcotest.to_alcotest prop_artifact_mutations;
          Alcotest.test_case "campaign tags replay" `Quick
            test_campaign_tags_replay;
          Alcotest.test_case "failing grid shrinkable" `Quick
            test_failures_feed_the_shrinker;
        ] );
    ]
