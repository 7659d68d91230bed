open Ocd_core
open Ocd_prelude
open Ocd_graph

(* For each token, the set of vertices that qualify as relays this
   turn: closest one-hop-knowledge vertices to some needer.  A vertex
   is one-hop for a token when it lacks it and an in-neighbour holds
   it; [reach.(u)] gathers those tokens once per step, word by word
   (the union of u's in-neighbours' rows minus u's own row).  The
   Voronoi labelling is a multi-source BFS over the CSR rows seeded
   with the one-hop set (label.(x) = the source closest to x, ties
   broken by FIFO order, -1 when unreachable); [fifo] holds each
   vertex at most once.  All buffers are caller-owned and reused
   across steps. *)
let relay_tokens (inst : Instance.t) have ~relay ~reach ~label ~needers ~fifo
    =
  let n = Instance.vertex_count inst in
  let { Digraph.row_off; row_dst; _ } = Digraph.succ_rows inst.graph in
  let pred = Digraph.pred_rows inst.graph in
  for u = 0 to n - 1 do
    let r = reach.(u) in
    Bitset.clear r;
    for i = pred.row_off.(u) to pred.row_off.(u + 1) - 1 do
      Bitset.Rows.union_into r have pred.row_dst.(i)
    done;
    Bitset.Rows.diff_into r have u
  done;
  Array.iter Bitset.clear relay;
  for token = 0 to inst.token_count - 1 do
    Int_vec.clear needers;
    for x = 0 to n - 1 do
      if Bitset.mem inst.want.(x) token && not (Bitset.Rows.mem have x token)
      then Int_vec.push needers x
    done;
    if Int_vec.length needers > 0 then begin
      Array.fill label 0 n (-1);
      (* Seed in descending vertex order: the historical code built
         the one-hop set by prepending during an ascending scan, and
         BFS tie-breaking follows seed order. *)
      let tail = ref 0 in
      for u = n - 1 downto 0 do
        if Bitset.mem reach.(u) token then begin
          label.(u) <- u;
          fifo.(!tail) <- u;
          incr tail
        end
      done;
      let head = ref 0 in
      while !head < !tail do
        let u = fifo.(!head) in
        incr head;
        for i = row_off.(u) to row_off.(u + 1) - 1 do
          let v = row_dst.(i) in
          if label.(v) = -1 then begin
            label.(v) <- label.(u);
            fifo.(!tail) <- v;
            incr tail
          end
        done
      done;
      Int_vec.iter
        (fun x ->
          let closest = label.(x) in
          if closest >= 0 then Bitset.add relay.(closest) token)
        needers
    end
  done

let strategy =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    let tracked = Aggregates.tracked inst in
    (* Per-run buffers for the relay computation. *)
    let relay = Array.init n (fun _ -> Bitset.create inst.token_count) in
    let reach = Array.init n (fun _ -> Bitset.create inst.token_count) in
    let label = Array.make (Int.max 1 n) (-1) in
    let needers = Int_vec.create () in
    let fifo = Array.make (Int.max 1 n) 0 in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let agg = tracked ctx in
      relay_tokens ctx.instance ctx.have ~relay ~reach ~label ~needers ~fifo;
      let scratch = ctx.scratch in
      let wanted = scratch.Ocd_engine.Strategy.tokens_b in
      let relayed = scratch.Ocd_engine.Strategy.tokens_a in
      let order = scratch.Ocd_engine.Strategy.order in
      let moves = ref [] in
      for dst = 0 to n - 1 do
        Bitset.assign wanted inst.want.(dst);
        Bitset.Rows.diff_into wanted ctx.have dst;
        Bitset.assign relayed relay.(dst);
        Bitset.Rows.diff_into relayed ctx.have dst;
        Bitset.diff_into relayed wanted;
        if not (Bitset.is_empty wanted && Bitset.is_empty relayed) then begin
          let preds = Digraph.pred graph dst in
          let budget =
            Ocd_engine.Strategy.budget scratch (Digraph.View.length preds)
          in
          Digraph.View.caps_into preds budget;
          (* Pull wanted tokens rarest-first, then relay duty. *)
          let assign_by_rarity set =
            Int_vec.clear order;
            Bitset.iter (fun t -> Int_vec.push order t) set;
            Int_vec.stable_sort_by_key agg.Aggregates.have_count order;
            Int_vec.iter
              (fun token ->
                ignore
                  (Ocd_engine.Strategy.assign_first_holder ctx preds budget
                     ~dst token moves))
              order
          in
          assign_by_rarity wanted;
          assign_by_rarity relayed
        end
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "bandwidth"; make }
