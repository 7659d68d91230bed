open Ocd_core
open Ocd_prelude
module Runtime = Ocd_async.Runtime
module Diagnosis = Ocd_async.Diagnosis
module Monitor = Ocd_async.Monitor
module Net = Ocd_async.Net
module Faults = Ocd_dynamics.Faults

type cell = {
  label : string;
  loss : float;
  flaps : bool;
  churn : bool;
  crash_prob : float;
  partition : (float * float) option;
}

type grid = { n : int; tokens : int; trials : int; cells : cell list }

let cell ?(loss = 0.0) ?(flaps = false) ?(churn = false) ?(crash_prob = 0.0)
    ?partition () =
  let label =
    let parts =
      (if loss > 0.0 then [ Printf.sprintf "loss=%.2f" loss ] else [])
      @ (if flaps then [ "flaps" ] else [])
      @ (if churn then [ "churn" ] else [])
      @ (if crash_prob > 0.0 then [ Printf.sprintf "crash=%.2f" crash_prob ]
         else [])
      @ match partition with Some _ -> [ "part" ] | None -> []
    in
    match parts with [] -> "baseline" | ps -> String.concat "+" ps
  in
  { label; loss; flaps; churn; crash_prob; partition }

let smoke_grid =
  {
    n = 12;
    tokens = 6;
    trials = 2;
    cells =
      [
        cell ();
        cell ~loss:0.05 ~crash_prob:0.05 ();
        cell ~flaps:true ~crash_prob:0.10 ();
        cell ~crash_prob:0.05 ~partition:(0.08, 0.25) ();
      ];
  }

let default_grid =
  {
    n = 24;
    tokens = 10;
    trials = 3;
    cells =
      (List.concat_map
         (fun loss ->
           List.concat_map
             (fun (flaps, churn) ->
               List.map
                 (fun crash_prob -> cell ~loss ~flaps ~churn ~crash_prob ())
                 [ 0.0; 0.10 ])
             [ (false, false); (true, false); (false, true) ])
         [ 0.0; 0.10 ]
      @ [
          cell ~loss:0.10 ~flaps:true ~churn:true ~crash_prob:0.20 ();
          cell ~partition:(0.08, 0.25) ();
          cell ~crash_prob:0.10 ~partition:(0.08, 0.25) ();
          cell ~loss:0.10 ~crash_prob:0.10 ~partition:(0.08, 0.25) ();
        ])
  }

(* A grid built to fail: near-certain split, near-never heal, one
   trial.  The network spends essentially the whole horizon cut in
   two, so every protocol times out with a partition verdict — the
   deterministic input for the CI `--shrink` smoke. *)
let failing_grid =
  {
    n = 10;
    tokens = 4;
    trials = 1;
    cells = [ cell ~crash_prob:0.05 ~partition:(0.9, 0.02) () ];
  }

type agg = {
  env : string;
  protocol : string;
  trials : int;
  completed : int;
  p95_ticks : float option;
  retrans_mean : float;
  duplicates_mean : float;
  crashes : int;
  restarts : int;
  lost_tokens : int;
  failed_jobs : int;
  verdicts : (string * int) list;
  invalid : int;
  violations : int;
  undiagnosed : int;
}

(* One trial's observation — everything aggregation needs, nothing
   else, so the Pool tasks stay cheap to collect. *)
type obs = {
  o_ticks : int option;
  o_retrans : int;
  o_dup : int;
  o_crashes : int;
  o_restarts : int;
  o_lost : int;
  o_failed : int;
  o_verdict : string option;
  o_valid : bool;
  o_violations : int;
  o_undiagnosed : bool;
}

let verdict_names =
  [ "unsat-partition"; "unsat-window"; "gave-up"; "protocol-stall" ]

(* Per-cell seed offsets for the four stochastic processes.  These are
   the contract with Shrink.case extraction in [failures]: the flap and
   churn seeds are carried into the case verbatim, and the crash and
   partition plans are re-derived from theirs before being flattened to
   explicit spans/windows. *)
let flap_off = 11
let churn_off = 13
let crash_off = 17
let part_off = 19

(* One (cell, trial) grid point, derived from the campaign seed and
   the grid coordinates alone.  [run], [failures] and [trial_setup] all
   derive their trials here, so a replayed trial cannot drift from the
   campaign's.  Condition and Faults memoise Markov chains in a
   Hashtbl: derive a point inside the Pool task that uses it, never
   share one across domains. *)
type point = {
  p_cell : cell;
  p_part_seed : int;
  p_run_seed : int;
  p_flap_seed : int option;
  p_churn_seed : int option;
  p_profile : Net.profile;
  p_condition : Ocd_dynamics.Condition.t;
  p_faults : Faults.t;
}

let point ~seed ~sources cells ~ci ~trial =
  let c = cells.(ci) in
  let cell_seed = seed + (7919 * ci) in
  let flap_seed = if c.flaps then Some (cell_seed + flap_off) else None in
  let churn_seed = if c.churn then Some (cell_seed + churn_off) else None in
  let crash =
    if c.crash_prob > 0.0 then
      Faults.crashes ~seed:(cell_seed + crash_off) ~crash_prob:c.crash_prob ()
    else Faults.none
  in
  let part =
    match c.partition with
    | Some (split_prob, heal_prob) ->
        Faults.partitions ~seed:(cell_seed + part_off) ~split_prob ~heal_prob ()
    | None -> Faults.none
  in
  {
    p_cell = c;
    p_part_seed = cell_seed + part_off;
    p_run_seed = seed + (31 * trial) + 1;
    p_flap_seed = flap_seed;
    p_churn_seed = churn_seed;
    p_profile = { Net.default with Net.loss = c.loss };
    p_condition = Shrink.condition_of ~flap_seed ~churn_seed ~sources;
    p_faults = Faults.compose crash part;
  }

(* Task grid: cells outer, protocols (registry order) inner, trials
   innermost. *)
let tasks (grid : grid) =
  List.concat_map
    (fun ci ->
      List.concat_map
        (fun name ->
          List.map (fun trial -> (ci, name, trial)) (Order.range grid.trials))
        Ocd_dht.Registry.names)
    (Order.range (List.length grid.cells))

type trial_setup = {
  t_instance : Instance.t;
  t_profile : Net.profile;
  t_condition : Ocd_dynamics.Condition.t;
  t_faults : Faults.t;
  t_run_seed : int;
  t_protocol : Ocd_async.Protocol.t;
  t_cell : cell;
}

let trial_setup ~seed grid ~cell_label ~protocol ~trial =
  let cells = Array.of_list grid.cells in
  let rec find i =
    if i >= Array.length cells then None
    else if cells.(i).label = cell_label then Some i
    else find (i + 1)
  in
  match find 0 with
  | None ->
      Error
        (Printf.sprintf "unknown cell %S (grid has: %s)" cell_label
           (String.concat ", "
              (List.map (fun c -> c.label) grid.cells)))
  | Some ci -> (
      match Ocd_dht.Registry.find protocol with
      | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
      | Some p ->
          if trial < 0 || trial >= grid.trials then
            Error
              (Printf.sprintf "trial %d out of range (grid has %d)" trial
                 grid.trials)
          else
            let inst = Shrink.instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
            let sources = Shrink.sources_of inst ~n:grid.n in
            let pt = point ~seed ~sources cells ~ci ~trial in
            Ok
              {
                t_instance = inst;
                t_profile = pt.p_profile;
                t_condition = pt.p_condition;
                t_faults = pt.p_faults;
                t_run_seed = pt.p_run_seed;
                t_protocol = p;
                t_cell = pt.p_cell;
              })

let run ?(obs = Ocd_obs.disabled) ?(jobs = 1) ~seed grid =
  let inst = Shrink.instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
  let sources = Shrink.sources_of inst ~n:grid.n in
  let cells = Array.of_list grid.cells in
  let protocols = Ocd_dht.Registry.names in
  (* Every seed is a function of the base seed and grid coordinates
     only, so the observation list is identical for any [jobs]. *)
  let tasks = tasks grid in
  let probe = Ocd_obs.probe obs in
  (* Each task runs its Runtime under a child scope (fresh registry and
     memory sink), so worker domains never share mutable observability
     state; children are absorbed in task order afterwards, which keeps
     the merged metrics and trace byte-identical for any [jobs]. *)
  let results =
    Pool.map ~obs ~jobs
      (fun (ci, name, trial) ->
        let pt = point ~seed ~sources cells ~ci ~trial in
        let task_obs = Ocd_obs.child obs in
        let protocol = Ocd_dht.Registry.find_exn name in
        let monitor = Monitor.create () in
        let r =
          let go () =
            Runtime.run ~obs:task_obs ~profile:pt.p_profile
              ~condition:pt.p_condition ~faults:pt.p_faults ~monitor ~protocol
              ~seed:pt.p_run_seed inst
          in
          (* Per-cell wall time: call count per label is
             trials × protocols, so the profile row gives trials/sec. *)
          match probe with
          | None -> go ()
          | Some p -> Ocd_obs.Probe.time p ("chaos/" ^ pt.p_cell.label) go
        in
        let completed = r.Runtime.outcome = Runtime.Completed in
        let valid =
          let checker =
            if completed then Validate.check_successful else Validate.check
          in
          match checker inst r.Runtime.schedule with
          | Ok () -> true
          | Error _ -> false
        in
        ( {
            o_ticks = r.Runtime.completion_ticks;
            o_retrans = r.Runtime.retransmissions;
            o_dup = r.Runtime.duplicate_deliveries;
            o_crashes = r.Runtime.crashes;
            o_restarts = r.Runtime.restarts;
            o_lost = r.Runtime.lost_tokens;
            o_failed = r.Runtime.failed_jobs;
            o_verdict =
              Option.map
                (fun (d : Diagnosis.t) ->
                  Diagnosis.verdict_name d.Diagnosis.verdict)
                r.Runtime.diagnosis;
            o_valid = valid;
            o_violations = r.Runtime.violations;
            o_undiagnosed =
              (not completed)
              && (match r.Runtime.diagnosis with
                 | None -> true
                 | Some d -> d.Diagnosis.outstanding = []);
          },
          task_obs ))
      tasks
  in
  if obs.Ocd_obs.on then
    List.iter2
      (fun (ci, name, _trial) (_, task_obs) ->
        let prefix = "chaos/" ^ cells.(ci).label ^ "/" ^ name ^ "/" in
        (* pid in the merged trace = task index would also work, but the
           cell index groups a cell's trials into one Perfetto process
           row, which reads better and is equally jobs-independent. *)
        Ocd_obs.absorb ~into:obs ~pid:ci ~prefix task_obs)
      tasks results;
  let obs_arr = Array.of_list (List.map fst results) in
  let num_protocols = List.length protocols in
  List.concat
    (List.mapi
       (fun ci c ->
         List.mapi
           (fun pi name ->
             let base = ((ci * num_protocols) + pi) * grid.trials in
             let os =
               List.init grid.trials (fun t -> obs_arr.(base + t))
             in
             let completed_ticks =
               List.filter_map (fun o -> o.o_ticks) os
             in
             let sum f = List.fold_left (fun acc o -> acc + f o) 0 os in
             let mean f =
               float_of_int (sum f) /. float_of_int grid.trials
             in
             {
               env = c.label;
               protocol = name;
               trials = grid.trials;
               completed = List.length completed_ticks;
               p95_ticks =
                 (match completed_ticks with
                 | [] -> None
                 | ts ->
                     Some
                       (Stats.percentile (List.map float_of_int ts) 0.95));
               retrans_mean = mean (fun o -> o.o_retrans);
               duplicates_mean = mean (fun o -> o.o_dup);
               crashes = sum (fun o -> o.o_crashes);
               restarts = sum (fun o -> o.o_restarts);
               lost_tokens = sum (fun o -> o.o_lost);
               failed_jobs = sum (fun o -> o.o_failed);
               verdicts =
                 List.map
                   (fun vn ->
                     ( vn,
                       List.length
                         (List.filter (fun o -> o.o_verdict = Some vn) os) ))
                   verdict_names;
               invalid =
                 List.length (List.filter (fun o -> not o.o_valid) os);
               violations = sum (fun o -> o.o_violations);
               undiagnosed =
                 List.length (List.filter (fun o -> o.o_undiagnosed) os);
             })
           protocols)
       (Array.to_list cells))

(* Failing trials, re-expressed.  Each grid task is converted to an
   explicit Shrink.case — crash and partition plans flattened to
   literal spans/windows via Faults.downtime/Faults.windows, which the
   Faults extraction contract guarantees replay byte-identically — and
   evaluated through Shrink.run_case, the same evaluator ddmin probes
   with.  So a case this function returns is failing *by that
   evaluator's own judgement*, and Shrink.shrink cannot reject it. *)
let failures ?(jobs = 1) ~seed grid =
  let inst = Shrink.instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
  let sources = Shrink.sources_of inst ~n:grid.n in
  let round_limit = Runtime.default_round_limit inst in
  let cells = Array.of_list grid.cells in
  let results =
    Pool.map ~jobs
      (fun (ci, name, trial) ->
        let pt = point ~seed ~sources cells ~ci ~trial in
        let faults = pt.p_faults in
        let case =
          {
            Shrink.protocol = name;
            instance_seed = seed;
            n = grid.n;
            tokens = grid.tokens;
            loss = pt.p_cell.loss;
            flap_seed = pt.p_flap_seed;
            churn_seed = pt.p_churn_seed;
            run_seed = pt.p_run_seed;
            round_limit;
            durability = Faults.durability faults;
            part_seed = pt.p_part_seed;
            groups = 2;
            downtime = Faults.downtime faults ~n:grid.n ~horizon:round_limit;
            windows = Faults.windows faults ~horizon:round_limit;
          }
        in
        (case, Shrink.run_case case))
      (tasks grid)
  in
  List.filter_map
    (fun (case, outcome) -> Option.map (fun tag -> (case, tag)) outcome)
    results

let verdict_cell verdicts =
  let nonzero =
    List.filter_map
      (fun (vn, c) -> if c > 0 then Some (Printf.sprintf "%s:%d" vn c) else None)
      verdicts
  in
  match nonzero with [] -> "-" | vs -> String.concat " " vs

let report ?(obs = Ocd_obs.disabled) ?(jobs = 1) ~seed grid =
  Report.section "Chaos campaign: crash-recovery robustness (Ocd_async)";
  let aggs = run ~obs ~jobs ~seed grid in
  let table =
    Report.create ~title:"chaos"
      ~columns:
        [
          "env";
          "protocol";
          "done";
          "p95_ticks";
          "retrans";
          "dup";
          "crashes";
          "restarts";
          "lost";
          "failed";
          "verdicts";
          "validate";
        ]
  in
  List.iter
    (fun a ->
      Report.row table
        [
          a.env;
          a.protocol;
          Printf.sprintf "%d/%d" a.completed a.trials;
          (match a.p95_ticks with
          | Some t -> Printf.sprintf "%.0f" t
          | None -> "-");
          Printf.sprintf "%.1f" a.retrans_mean;
          Printf.sprintf "%.1f" a.duplicates_mean;
          string_of_int a.crashes;
          string_of_int a.restarts;
          string_of_int a.lost_tokens;
          string_of_int a.failed_jobs;
          verdict_cell a.verdicts;
          (match (a.invalid, a.violations) with
          | 0, 0 -> "ok"
          | bad, 0 -> Printf.sprintf "%d bad" bad
          | 0, viol -> Printf.sprintf "%d viol" viol
          | bad, viol -> Printf.sprintf "%d bad %d viol" bad viol);
        ])
    aggs;
  Report.render table;
  let undiagnosed = List.fold_left (fun acc a -> acc + a.undiagnosed) 0 aggs in
  if undiagnosed > 0 then
    Report.note "WARNING: %d timed-out runs carried no diagnosis" undiagnosed;
  let invalid = List.fold_left (fun acc a -> acc + a.invalid) 0 aggs in
  if invalid > 0 then
    Report.note "WARNING: %d schedules failed validation" invalid;
  let violations = List.fold_left (fun acc a -> acc + a.violations) 0 aggs in
  if violations > 0 then
    Report.note "WARNING: %d runtime invariant violations" violations
