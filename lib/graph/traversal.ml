let bfs_levels_multi g roots =
  let n = Digraph.vertex_count g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  let start root =
    if dist.(root) = -1 then begin
      dist.(root) <- 0;
      Queue.add root queue
    end
  in
  List.iter start roots;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Digraph.View.iter
      (fun v _ ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Digraph.succ g u)
  done;
  dist

let bfs_levels g root = bfs_levels_multi g [ root ]

let reachable g root =
  let dist = bfs_levels g root in
  Array.map (fun d -> d >= 0) dist
