open Ocd_core
open Ocd_prelude
open Ocd_graph

let strategy =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    let m = inst.token_count in
    let tracked = Aggregates.tracked inst in
    (* Per-run reusable buffers: the working holder counts and the
       vertex processing order are refilled in place each step. *)
    let working = Array.make (Int.max 1 m) 0 in
    let vertex_order = Array.make n 0 in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let agg = tracked ctx in
      (* Working holder counts: assignments of this step count as
         (future) holders so later greedy choices favour other
         tokens. *)
      Array.blit agg.Aggregates.have_count 0 working 0 m;
      let scratch = ctx.scratch in
      let wanted = scratch.Ocd_engine.Strategy.tokens_b in
      let extra = scratch.Ocd_engine.Strategy.tokens_a in
      let order = scratch.Ocd_engine.Strategy.order in
      let moves = ref [] in
      for v = 0 to n - 1 do
        vertex_order.(v) <- v
      done;
      Prng.shuffle ctx.rng vertex_order;
      let process dst =
        let preds = Digraph.pred graph dst in
        if Digraph.View.length preds > 0 then begin
          let budget =
            Ocd_engine.Strategy.budget scratch (Digraph.View.length preds)
          in
          Digraph.View.caps_into preds budget;
          let assign token =
            if
              Ocd_engine.Strategy.assign_first_holder ctx preds budget ~dst
                token moves
            then working.(token) <- working.(token) + 1
          in
          let assign_by_working tokens =
            Int_vec.clear order;
            Bitset.iter (fun t -> Int_vec.push order t) tokens;
            Int_vec.stable_sort_by_key working order;
            Int_vec.iter assign order
          in
          Bitset.assign wanted inst.want.(dst);
          Bitset.Rows.diff_into wanted ctx.have dst;
          assign_by_working wanted;
          Bitset.fill extra;
          Bitset.Rows.diff_into extra ctx.have dst;
          Bitset.diff_into extra wanted;
          assign_by_working extra
        end
      in
      Array.iter process vertex_order;
      !moves
  in
  { Ocd_engine.Strategy.name = "global"; make }
