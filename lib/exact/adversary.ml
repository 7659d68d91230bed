open Ocd_core
open Ocd_graph

let instance ~distance ~decoys ~wanted =
  if distance < 1 then invalid_arg "Adversary.instance: distance < 1";
  if decoys < 0 then invalid_arg "Adversary.instance: negative decoys";
  if wanted < 0 || wanted > decoys then
    invalid_arg "Adversary.instance: wanted out of range";
  let n = distance + 1 in
  let edges = List.init distance (fun i -> (i, i + 1, 1)) in
  let graph = Digraph.of_edges ~vertex_count:n edges in
  Instance.make ~graph ~token_count:(decoys + 1)
    ~have:[ (0, List.init (decoys + 1) Fun.id) ]
    ~want:[ (distance, [ wanted ]) ]

let optimal_makespan ~distance = distance
