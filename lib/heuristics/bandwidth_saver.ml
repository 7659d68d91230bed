open Ocd_core
open Ocd_prelude
open Ocd_graph

(* For each token, the set of vertices that qualify as relays this
   turn: closest one-hop-knowledge vertices to some needer.  The
   Voronoi labelling is a multi-source BFS seeded with the one-hop set
   (label.(x) = the source closest to x, ties broken by queue order,
   -1 when unreachable).  All buffers are caller-owned and reused
   across steps. *)
let relay_tokens (inst : Instance.t) have ~relay ~label ~needers ~one_hop
    ~queue =
  let g = inst.graph in
  let n = Instance.vertex_count inst in
  Array.iter Bitset.clear relay;
  for token = 0 to inst.token_count - 1 do
    Int_vec.clear needers;
    for x = 0 to n - 1 do
      if Bitset.mem inst.want.(x) token && not (Bitset.Rows.mem have x token)
      then Int_vec.push needers x
    done;
    if Int_vec.length needers > 0 then begin
      (* One-hop set: lacks the token, an in-neighbour holds it. *)
      Int_vec.clear one_hop;
      for u = 0 to n - 1 do
        if
          (not (Bitset.Rows.mem have u token))
          && Digraph.View.exists
               (fun w _ -> Bitset.Rows.mem have w token)
               (Digraph.pred g u)
        then Int_vec.push one_hop u
      done;
      if Int_vec.length one_hop > 0 then begin
        Array.fill label 0 n (-1);
        Queue.clear queue;
        (* Seed in descending vertex order: the historical code built
           the one-hop set by prepending during an ascending scan, and
           BFS tie-breaking follows seed order. *)
        for k = Int_vec.length one_hop - 1 downto 0 do
          let s = Int_vec.get one_hop k in
          if label.(s) = -1 then begin
            label.(s) <- s;
            Queue.add s queue
          end
        done;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          Digraph.View.iter
            (fun v _ ->
              if label.(v) = -1 then begin
                label.(v) <- label.(u);
                Queue.add v queue
              end)
            (Digraph.succ g u)
        done;
        Int_vec.iter
          (fun x ->
            let closest = label.(x) in
            if closest >= 0 then Bitset.add relay.(closest) token)
          needers
      end
    end
  done

let strategy =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    let tracked = Aggregates.tracked inst in
    (* Per-run buffers for the relay computation. *)
    let relay = Array.init n (fun _ -> Bitset.create inst.token_count) in
    let label = Array.make (max 1 n) (-1) in
    let needers = Int_vec.create () in
    let one_hop = Int_vec.create () in
    let queue = Queue.create () in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let agg = tracked ctx in
      relay_tokens ctx.instance ctx.have ~relay ~label ~needers ~one_hop
        ~queue;
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
