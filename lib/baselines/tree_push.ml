open Ocd_core
open Ocd_graph

let strategy ?source () =
  let make (inst : Instance.t) _rng =
    let source =
      match source with Some s -> s | None -> Baseline_util.default_source inst
    in
    let tree = Baseline_util.widest_path_tree inst.graph ~root:source in
    (* Tree arcs with their capacities, fixed for the whole run. *)
    let arcs =
      List.concat
        (List.map
           (fun p ->
             List.map
               (fun c -> (p, c, Digraph.capacity inst.graph p c))
               tree.Disjoint_trees.children.(p))
           (Digraph.vertices inst.graph))
    in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let buf = ctx.scratch.Ocd_engine.Strategy.tokens_a in
      List.concat_map
        (fun (src, dst, cap) ->
          Baseline_util.send_down_arc ~buf ~have:ctx.have ~src ~dst ~cap
            ~only:None ())
        arcs
  in
  { Ocd_engine.Strategy.name = "tree-push"; make }
