let all =
  [
    Round_robin.strategy;
    Random_push.strategy;
    Local_rarest.strategy;
    Bandwidth_saver.strategy;
    Global_greedy.strategy;
  ]

let names = List.map (fun s -> s.Ocd_engine.Strategy.name) all
