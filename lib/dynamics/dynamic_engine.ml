open Ocd_core
module Engine = Ocd_engine.Engine

type run = {
  strategy_name : string;
  seed : int;
  outcome : Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  dropped_moves : int;
  fresh_deliveries : int;
}

(* The strategy sees the effective topology of each step (or the
   static one if everything is down, where every move is then
   refused); moves beyond an arc's effective capacity are dropped. *)
let run ?stall_patience ~condition ~strategy ~seed (inst : Instance.t) =
  let visible step =
    match Condition.graph_at condition ~step inst.graph with
    | Some graph -> Instance.with_graph inst graph
    | None -> inst
  in
  let admission =
    Engine.Lossy
      {
        visible;
        capacity = Condition.effective condition;
        route = (fun _ -> [||]);
        link_capacity = [||];
      }
  in
  let r =
    Engine.rounds ?stall_patience ~admission ~completion:Engine.Wants
      ~strategy ~seed inst
  in
  {
    strategy_name = strategy.Ocd_engine.Strategy.name;
    seed;
    outcome = r.Engine.ended;
    schedule = r.Engine.recorded;
    metrics = Metrics.of_schedule inst r.Engine.recorded;
    dropped_moves = r.Engine.dropped;
    fresh_deliveries = r.Engine.delivered;
  }
