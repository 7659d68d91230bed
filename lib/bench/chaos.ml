open Ocd_core
open Ocd_prelude
module Runtime = Ocd_async.Runtime
module Diagnosis = Ocd_async.Diagnosis
module Monitor = Ocd_async.Monitor
module Net = Ocd_async.Net
module Condition = Ocd_dynamics.Condition
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

(* The campaign instance: an Erdős–Rényi graph and a single-file
   scenario drawn from one PRNG stream. *)
let instance_of ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let sources_of inst =
  List.filter
    (fun v -> not (Bitset.is_empty inst.Instance.have.(v)))
    (Order.range (Instance.vertex_count inst))

(* Offsets from a cell's seed to the seeds of its four processes. *)
let flap_off = 11
let churn_off = 13
let crash_off = 17
let part_off = 19

let environment c ~cell_seed ~sources =
  let links =
    (if c.flaps then
       [
         Condition.link_flaps ~seed:(cell_seed + flap_off) ~down_prob:0.1
           ~up_prob:0.5;
       ]
     else [])
    @
    if c.churn then
      [
        Condition.churn ~seed:(cell_seed + churn_off) ~protected:sources
          ~leave_prob:0.02 ~return_prob:0.3;
      ]
    else []
  in
  (* folding from [static] keeps a cell without link processes
     physically [static], which Runtime's lockstep fast path tests *)
  let condition = List.fold_left Condition.compose Condition.static links in
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
  ({ Net.default with Net.loss = c.loss }, condition, Faults.compose crash part)

let classify inst (r : Runtime.run) monitor =
  let completed = r.Runtime.outcome = Runtime.Completed in
  let checker =
    if completed then Validate.check_successful else Validate.check
  in
  if Result.is_error (checker inst r.Runtime.schedule) then
    Some "invalid-schedule"
  else if Monitor.count monitor > 0 then
    Some
      ("monitor:"
      ^
      match Monitor.violations monitor with
      | v :: _ -> v.Monitor.rule
      | [] -> "uncaptured")
  else if not completed then
    Some
      ("stall:"
      ^
      match r.Runtime.diagnosis with
      | Some d -> Diagnosis.verdict_name d.Diagnosis.verdict
      | None -> "undiagnosed")
  else None

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
  o_tag : string option;
  o_violations : int;
  o_undiagnosed : bool;
}

let verdict_names =
  [ "unsat-partition"; "unsat-window"; "gave-up"; "protocol-stall" ]

(* A trial's seeds, from the campaign seed and its grid coordinates
   alone: [run], [trial_setup] and [case] all derive them here, so a
   replayed trial cannot drift from the campaign's. *)
let cell_seed ~seed ci = seed + (7919 * ci)
let run_seed ~seed trial = seed + (31 * trial) + 1

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
  t_condition : Condition.t;
  t_faults : Faults.t;
  t_run_seed : int;
  t_protocol : Ocd_async.Protocol.t;
  t_cell : cell;
}

let trial_setup ~seed (grid : grid) ~cell_label ~protocol ~trial =
  match
    List.find_opt (fun (_, c) -> c.label = cell_label)
      (List.mapi (fun ci c -> (ci, c)) grid.cells)
  with
  | None ->
      Error
        (Printf.sprintf "unknown cell %S (grid has: %s)" cell_label
           (String.concat ", " (List.map (fun c -> c.label) grid.cells)))
  | Some (ci, cell) -> (
      match Ocd_dht.Registry.find protocol with
      | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
      | Some p ->
          if trial < 0 || trial >= grid.trials then
            Error
              (Printf.sprintf "trial %d out of range (grid has %d)" trial
                 grid.trials)
          else
            let inst = instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
            let t_profile, t_condition, t_faults =
              environment cell ~cell_seed:(cell_seed ~seed ci)
                ~sources:(sources_of inst)
            in
            Ok
              {
                t_instance = inst;
                t_profile;
                t_condition;
                t_faults;
                t_run_seed = run_seed ~seed trial;
                t_protocol = p;
                t_cell = cell;
              })

type case = {
  protocol : string;
  instance_seed : int;
  n : int;
  tokens : int;
  loss : float;
  flaps : bool;
  churn : bool;
  cell_seed : int;
  run_seed : int;
  round_limit : int;
  durability : Faults.durability;
  groups : int;
  downtime : (int * int * int) list;
  windows : (int * int) list;
}

type campaign = {
  seed : int;
  grid : grid;
  aggs : agg list;
  tags : ((int * string * int) * string option) list;
}

let run ?(obs = Ocd_obs.disabled) ?(jobs = 1) ~seed (grid : grid) =
  let inst = instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
  let sources = sources_of inst in
  let cells = Array.of_list grid.cells in
  let protocols = Ocd_dht.Registry.names in
  (* Every seed is a function of the base seed and grid coordinates
     only, so the observation list is identical for any [jobs]. *)
  let tasks = tasks grid in
  let probe = Ocd_obs.probe obs in
  (* The condition and fault plan memoise their chains, so each task
     derives its own.  A cell's trials share one trace lane (pid = cell
     index), which groups them into one Perfetto process row. *)
  let results =
    Pool.map_scoped ~obs ~jobs
      ~lane:(fun _ (ci, name, _) ->
        (ci, "chaos/" ^ cells.(ci).label ^ "/" ^ name ^ "/"))
      (fun task_obs (ci, name, trial) ->
        let profile, condition, faults =
          environment cells.(ci) ~cell_seed:(cell_seed ~seed ci) ~sources
        in
        let protocol = Ocd_dht.Registry.find_exn name in
        let monitor = Monitor.create () in
        let r =
          let go () =
            Runtime.run ~obs:task_obs ~profile ~condition ~faults ~monitor
              ~protocol ~seed:(run_seed ~seed trial) inst
          in
          (* Per-cell wall time: call count per label is
             trials × protocols, so the profile row gives trials/sec. *)
          match probe with
          | None -> go ()
          | Some p -> Ocd_obs.Probe.time p ("chaos/" ^ cells.(ci).label) go
        in
        {
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
          o_tag = classify inst r monitor;
          o_violations = r.Runtime.violations;
          o_undiagnosed =
            r.Runtime.outcome <> Runtime.Completed
            && (match r.Runtime.diagnosis with
               | None -> true
               | Some d -> d.Diagnosis.outstanding = []);
        })
      tasks
  in
  let obs_arr = Array.of_list results in
  let num_protocols = List.length protocols in
  let aggs =
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
               let count p = List.length (List.filter p os) in
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
                     (fun vn -> (vn, count (fun o -> o.o_verdict = Some vn)))
                     verdict_names;
                 invalid = count (fun o -> o.o_tag = Some "invalid-schedule");
                 violations = sum (fun o -> o.o_violations);
                 undiagnosed = count (fun o -> o.o_undiagnosed);
               })
             protocols)
         grid.cells)
  in
  {
    seed;
    grid;
    aggs;
    tags = List.map2 (fun task o -> (task, o.o_tag)) tasks results;
  }

(* A trial re-expressed as an explicit case: its crash and partition
   plans flattened to literal spans and windows, which the Faults
   extraction contract guarantees replay byte-identically within the
   round limit. *)
let case { seed; grid; _ } (ci, protocol, trial) =
  let inst = instance_of ~seed ~n:grid.n ~tokens:grid.tokens in
  let round_limit = Runtime.default_round_limit inst in
  let cell = List.nth grid.cells ci in
  let cell_seed = cell_seed ~seed ci in
  let _, _, faults = environment cell ~cell_seed ~sources:(sources_of inst) in
  {
    protocol;
    instance_seed = seed;
    n = grid.n;
    tokens = grid.tokens;
    loss = cell.loss;
    flaps = cell.flaps;
    churn = cell.churn;
    cell_seed;
    run_seed = run_seed ~seed trial;
    round_limit;
    durability = Faults.durability faults;
    groups = 2;
    downtime = Faults.downtime faults ~n:grid.n ~horizon:round_limit;
    windows = Faults.windows faults ~horizon:round_limit;
  }

let failures campaign =
  List.filter_map
    (fun (task, tag) -> Option.map (fun tag -> (case campaign task, tag)) tag)
    campaign.tags

let verdict_cell verdicts =
  let nonzero =
    List.filter_map
      (fun (vn, c) -> if c > 0 then Some (Printf.sprintf "%s:%d" vn c) else None)
      verdicts
  in
  match nonzero with [] -> "-" | vs -> String.concat " " vs

let report { aggs; _ } =
  Report.section "Chaos campaign: crash-recovery robustness (Ocd_async)";
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
