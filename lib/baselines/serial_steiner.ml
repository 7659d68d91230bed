open Ocd_core
open Ocd_prelude

(* Orient a Steiner tree's arcs into BFS waves from the holder set:
   wave w carries the arcs whose source sits at depth w. *)
let waves_of_tree (tree : Ocd_graph.Steiner.t) ~holders ~vertex_count =
  let depth = Array.make vertex_count (-1) in
  List.iter (fun h -> depth.(h) <- 0) holders;
  let children = Array.make vertex_count [] in
  List.iter
    (fun (u, v) -> children.(u) <- v :: children.(u))
    tree.Ocd_graph.Steiner.arcs;
  let queue = Queue.create () in
  List.iter (fun h -> Queue.add h queue) holders;
  let max_depth = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if depth.(v) = -1 then begin
          depth.(v) <- depth.(u) + 1;
          max_depth := Int.max !max_depth depth.(v);
          Queue.add v queue
        end)
      children.(u)
  done;
  let waves = Array.make !max_depth [] in
  List.iter
    (fun (u, v) ->
      if depth.(u) >= 0 then waves.(depth.(u)) <- (u, v) :: waves.(depth.(u)))
    tree.Ocd_graph.Steiner.arcs;
  waves

let steiner_tree (inst : Instance.t) token =
  let holders = Instance.holders inst token in
  let wanters =
    List.filter
      (fun v -> not (Bitset.mem inst.have.(v) token))
      (Instance.wanters inst token)
  in
  if wanters = [] then None
  else begin
    let tree =
      Ocd_graph.Steiner.takahashi_matsuyama inst.graph ~sources:holders
        ~terminals:wanters
    in
    if not (Ocd_graph.Steiner.covers_all tree) then
      invalid_arg "Serial_steiner: instance unsatisfiable";
    Some (tree, holders)
  end

let plan (inst : Instance.t) =
  let n = Instance.vertex_count inst in
  let steps = ref [] in
  for token = 0 to inst.token_count - 1 do
    match steiner_tree inst token with
    | None -> ()
    | Some (tree, holders) ->
      let waves = waves_of_tree tree ~holders ~vertex_count:n in
      Array.iter
        (fun wave ->
          let moves =
            List.map (fun (src, dst) -> { Move.src; dst; token }) wave
          in
          steps := moves :: !steps)
        waves
  done;
  Schedule.of_steps (List.rev !steps)

let bandwidth_upper_bound (inst : Instance.t) =
  let acc = ref 0 in
  for token = 0 to inst.token_count - 1 do
    match steiner_tree inst token with
    | None -> ()
    | Some (tree, _) -> acc := !acc + Ocd_graph.Steiner.cost tree
  done;
  !acc

let strategy =
  let make inst _rng =
    let steps = Array.of_list (Schedule.steps (plan inst)) in
    fun (ctx : Ocd_engine.Strategy.context) ->
      if ctx.step < Array.length steps then steps.(ctx.step) else []
  in
  { Ocd_engine.Strategy.name = "serial-steiner"; make }
