open Ocd_core
open Ocd_prelude
open Ocd_graph

let strategy ?source ~k () =
  if k <= 0 then invalid_arg "Split_forest.strategy: k <= 0";
  let make (inst : Instance.t) _rng =
    let source =
      match source with Some s -> s | None -> Baseline_util.default_source inst
    in
    let forest = Disjoint_trees.extract inst.graph ~root:source ~k in
    let forest =
      if forest = [] then
        (* No disjoint decomposition: degenerate to one BFS tree. *)
        [ Baseline_util.widest_path_tree inst.graph ~root:source ]
      else forest
    in
    let tree_count = List.length forest in
    (* stripe i = tokens with id ≡ i mod tree_count *)
    let stripes =
      Array.init tree_count (fun i ->
          let s = Bitset.create inst.token_count in
          let rec fill t =
            if t < inst.token_count then begin
              Bitset.add s t;
              fill (t + tree_count)
            end
          in
          fill i;
          s)
    in
    let arcs_of_tree tree =
      List.concat
        (List.map
           (fun p ->
             List.map
               (fun c -> (p, c, Digraph.capacity inst.graph p c))
               tree.Disjoint_trees.children.(p))
           (Digraph.vertices inst.graph))
    in
    let striped_arcs =
      List.mapi (fun i tree -> (stripes.(i), arcs_of_tree tree)) forest
    in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let buf = ctx.scratch.Ocd_engine.Strategy.tokens_a in
      List.concat_map
        (fun (stripe, arcs) ->
          List.concat_map
            (fun (src, dst, cap) ->
              Baseline_util.send_down_arc ~buf ~have:ctx.have ~src ~dst ~cap
                ~only:(Some stripe) ())
            arcs)
        striped_arcs
  in
  { Ocd_engine.Strategy.name = Printf.sprintf "split-forest-%d" k; make }
