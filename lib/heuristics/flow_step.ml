open Ocd_core
open Ocd_prelude
open Ocd_graph

(* Exact assignment of [tokens] (wanted, missing) to holding in-arcs
   within capacities: returns (token, pred-index) pairs. *)
let assign_exact ~have ~preds tokens =
  match tokens with
  | [] -> []
  | tokens ->
    let count = List.length tokens in
    let token_node i = 2 + i in
    let arc_node i = 2 + count + i in
    let flow =
      Maxflow.create ~node_count:(2 + count + Digraph.View.length preds)
    in
    List.iteri
      (fun i _ -> Maxflow.add_edge flow ~src:0 ~dst:(token_node i) ~capacity:1)
      tokens;
    Digraph.View.iteri
      (fun i u cap ->
        Maxflow.add_edge flow ~src:(arc_node i) ~dst:1 ~capacity:cap;
        List.iteri
          (fun j t ->
            if Bitset.Rows.mem have u t then
              Maxflow.add_edge flow ~src:(token_node j) ~dst:(arc_node i)
                ~capacity:1)
          tokens)
      preds;
    ignore (Maxflow.max_flow flow ~source:0 ~sink:1);
    let token_array = Array.of_list tokens in
    List.filter_map
      (fun (a, b, _) ->
        (* token -> arc edges carry the assignment *)
        if a >= token_node 0 && a < arc_node 0 && b >= arc_node 0 then
          Some (token_array.(a - 2), b - 2 - count)
        else None)
      (Maxflow.flow_on_edges flow)

let strategy =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    let tracked = Aggregates.tracked inst in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let agg = tracked ctx in
      let scratch = ctx.scratch in
      let wanted = scratch.Ocd_engine.Strategy.tokens_b in
      let missing = scratch.Ocd_engine.Strategy.tokens_a in
      let order = scratch.Ocd_engine.Strategy.order in
      let moves = ref [] in
      for dst = 0 to n - 1 do
        let preds = Digraph.pred graph dst in
        if Digraph.View.length preds > 0 then begin
          Bitset.assign wanted inst.want.(dst);
          Bitset.Rows.diff_into wanted ctx.have dst;
          let assigned =
            assign_exact ~have:ctx.have ~preds (Bitset.elements wanted)
          in
          let budget =
            Ocd_engine.Strategy.budget scratch (Digraph.View.length preds)
          in
          Digraph.View.caps_into preds budget;
          List.iter
            (fun (token, i) ->
              budget.(i) <- budget.(i) - 1;
              let src = Digraph.View.dst preds i in
              moves := { Move.src; dst; token } :: !moves)
            assigned;
          (* Fill leftover budget with rarest-first relay flooding
             (tokens the vertex lacks and was not just assigned). *)
          Bitset.fill missing;
          Bitset.Rows.diff_into missing ctx.have dst;
          List.iter (fun (token, _) -> Bitset.remove missing token) assigned;
          Int_vec.clear order;
          Bitset.iter (fun t -> Int_vec.push order t) missing;
          Int_vec.stable_sort_by_key agg.Aggregates.have_count order;
          Int_vec.iter
            (fun token ->
              ignore
                (Ocd_engine.Strategy.assign_first_holder ctx preds budget ~dst
                   token moves))
            order
        end
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "flow-step"; make }
