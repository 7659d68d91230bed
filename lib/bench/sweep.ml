open Ocd_core
open Ocd_prelude

type aggregate = {
  strategy : string;
  completed : int;
  moves : Stats.summary option;
  bandwidth : Stats.summary;
  pruned : Stats.summary;
}

type point_result = {
  x_label : string;
  bandwidth_lb : int;
  makespan_lb : int option;
  aggregates : aggregate list;
}

type point_spec = {
  label : string;
  point_seed : int;
  build : Prng.t -> Instance.t;
}

let run_point ?(trials = 3) ?(jobs = 1) ~seed ~strategies ~x_label build =
  let rng = Prng.create ~seed in
  let instance = build rng in
  (* One task per (strategy, trial) cell.  Each task derives its engine
     seed from the explicit base seed alone, so the grid can run on any
     number of domains without changing a single byte of output. *)
  let grid =
    List.concat_map
      (fun strategy -> List.map (fun trial -> (strategy, trial)) (Order.range trials))
      strategies
  in
  let metrics =
    Array.of_list
      (Pool.map ~jobs
         (fun (strategy, trial) ->
           let run =
             Ocd_engine.Engine.run ~strategy ~seed:(seed + (31 * trial)) instance
           in
           run.Ocd_engine.Engine.metrics)
         grid)
  in
  let aggregates =
    List.mapi
      (fun i strategy ->
        let results = Array.to_list (Array.sub metrics (i * trials) trials) in
        (* A makespan only exists for trials that completed: a stalled
           or step-limited run must surface as n/a, not as the finite
           step count it happened to reach.  Bandwidth (moves actually
           spent) is meaningful either way. *)
        let complete = List.filter (fun m -> m.Metrics.complete) results in
        {
          strategy = strategy.Ocd_engine.Strategy.name;
          completed = List.length complete;
          moves =
            (match complete with
            | [] -> None
            | ms ->
              Some
                (Stats.summarize_ints
                   (List.map (fun m -> m.Metrics.makespan) ms)));
          bandwidth =
            Stats.summarize_ints (List.map (fun m -> m.Metrics.bandwidth) results);
          pruned =
            Stats.summarize_ints
              (List.map (fun m -> m.Metrics.pruned_bandwidth) results);
        })
      strategies
  in
  {
    x_label;
    bandwidth_lb = Bounds.bandwidth_lower_bound instance;
    makespan_lb =
      (if Instance.satisfiable instance then
         Some (Bounds.makespan_lower_bound instance)
       else None);
    aggregates;
  }

let run_sweep ?(trials = 3) ?(jobs = 1) ~strategies points =
  Pool.map ~jobs
    (fun { label; point_seed; build } ->
      run_point ~trials ~jobs ~seed:point_seed ~strategies ~x_label:label build)
    points

let makespan_lb_cell = function
  | Some lb -> string_of_int lb
  | None -> "-"

let moves_cell = function
  | Some (s : Stats.summary) -> Printf.sprintf "%.1f" s.Stats.mean
  | None -> "n/a"

let table ~title ~x_column points =
  let table =
    Report.create ~title
      ~columns:
        [
          x_column;
          "strategy";
          "moves";
          "bandwidth";
          "pruned_bw";
          "bw_lb";
          "moves_lb";
        ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          Report.row table
            [
              p.x_label;
              a.strategy;
              moves_cell a.moves;
              Printf.sprintf "%.0f" a.bandwidth.Stats.mean;
              Printf.sprintf "%.0f" a.pruned.Stats.mean;
              string_of_int p.bandwidth_lb;
              makespan_lb_cell p.makespan_lb;
            ])
        p.aggregates)
    points;
  table

let report ~title ~x_column points =
  Report.render (table ~title ~x_column points)
