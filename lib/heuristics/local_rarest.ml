open Ocd_core
open Ocd_prelude
open Ocd_graph

(* Fill [order] with the tokens of [tokens] in ascending-rarity order
   with random tie-breaking: shuffle once, then stable-sort by holder
   count — the same element sequence (and the same rng draws) as the
   historical list-based shuffle + [Order.sort_by]. *)
let rank_by_rarity rng (agg : Aggregates.t) tokens (order : Int_vec.t) =
  Int_vec.clear order;
  Bitset.iter (fun t -> Int_vec.push order t) tokens;
  Int_vec.shuffle rng order;
  Int_vec.stable_sort_by_key agg.Aggregates.have_count order

(* [holding_preds.(v)] counts in-neighbours of [v] that hold at least
   one token.  While content spreads, most vertices have none — their
   whole candidate scan is provably empty, and [subdivided_requests]
   skips it (and the per-neighbour possession reads) on this counter
   alone.  The arcs counted are those of the run's instance, not of
   the step's visible graph: under [Dynamic_engine] every visible
   graph is a subgraph of it, so a zero stays exact on a step where
   an arc that was down at step 0 is back up.  Possession only grows,
   so a vertex's first token bumps the counter of each out-neighbour
   exactly once: the listener sees the kernel's rows after the
   delivery, so a first token is the only bit set. *)
let holding_preds_tracked (inst : Instance.t) =
  let cell = ref None in
  fun (ctx : Ocd_engine.Strategy.context) ->
    match !cell with
    | Some hp -> hp
    | None ->
      let n = Instance.vertex_count inst in
      let have = ctx.have in
      let succ = Digraph.succ_rows inst.graph in
      let s_off = succ.Digraph.row_off and s_dst = succ.Digraph.row_dst in
      let holding_preds = Array.make n 0 in
      let bump v =
        for i = s_off.(v) to s_off.(v + 1) - 1 do
          let u = s_dst.(i) in
          holding_preds.(u) <- holding_preds.(u) + 1
        done
      in
      let nonzero v =
        let c = ref 0 in
        for j = 0 to Bitset.Rows.stride have - 1 do
          if Bitset.Rows.word have v j <> 0 then incr c
        done;
        !c
      in
      for v = 0 to n - 1 do
        if nonzero v > 0 then bump v
      done;
      Ocd_engine.Strategy.on_deliver ctx (fun ~dst ~token ->
          let bpw = Bitset.bits_per_word in
          if
            Bitset.Rows.word have dst (token / bpw) = 1 lsl (token mod bpw)
            && nonzero dst = 1
          then bump dst);
      cell := Some holding_preds;
      holding_preds

(* The request-assignment core of [strategy]: rank the tokens each
   vertex lacks by the supplied rarity aggregate, then assign each to one holding in-neighbour at random
   (the "request" subdivision).  Possession is read word by word from
   the kernel's rows, so the missing set, the availability test and
   the candidate scan are integer arithmetic.
   Every rng draw is that of the plain per-token scan:

   - missing tokens are listed in ascending order and ranked by
     [Int_vec.shuffle] then [Int_vec.stable_sort_by_key]; the shuffle's
     draw bounds depend only on the missing-token count;
   - a token no in-neighbour holds finds no candidate and draws
     nothing, so the per-vertex availability mask [avail] skips its
     scan, and a vertex with nothing available (or no holding
     in-neighbour at all) consumes only the shuffle draws, through
     [Prng.skip_int];
   - the mirror-index pick [c - 1 - draw] keeps the candidate the
     historical descending candidate list chose for the same draw. *)
let subdivided_requests (inst : Instance.t) (ctx : Ocd_engine.Strategy.context)
    agg holding_preds =
  let rows = Digraph.pred_rows ctx.instance.Instance.graph in
  let row_off = rows.Digraph.row_off
  and row_dst = rows.Digraph.row_dst
  and row_cap = rows.Digraph.row_cap in
  let n = Instance.vertex_count inst in
  let have = ctx.have and stride = Bitset.Rows.stride ctx.have in
  let bpw = Bitset.bits_per_word in
  let rng = ctx.rng and scratch = ctx.scratch in
  let order = scratch.Ocd_engine.Strategy.order in
  let rank = agg.Aggregates.have_count in
  (* The last word of the full token set; every other word is -1. *)
  let tail = inst.token_count - ((stride - 1) * bpw) in
  let last = if tail = bpw then -1 else (1 lsl tail) - 1 in
  let missing = Array.make stride 0 and avail = Array.make stride 0 in
  (* Only the shuffle draws: their bounds depend on the missing-token
     count alone. *)
  let skip_shuffle () =
    let count = ref 0 in
    for j = 0 to stride - 1 do
      count := !count + Bitset.popcount missing.(j)
    done;
    for i = !count - 1 downto 1 do
      Prng.skip_int rng (i + 1)
    done
  in
  let moves = ref [] in
  for dst = 0 to n - 1 do
    let lacks = ref false in
    for j = 0 to stride - 1 do
      let m =
        (if j = stride - 1 then last else -1)
        land lnot (Bitset.Rows.word have dst j)
      in
      missing.(j) <- m;
      if m <> 0 then lacks := true
    done;
    if !lacks then
      if holding_preds.(dst) = 0 then skip_shuffle ()
      else begin
        let base = row_off.(dst) in
        let plen = row_off.(dst + 1) - base in
        (* Copy the in-neighbours' words into one row per word index
           and take their union: initial budgets are arc capacities
           (strictly positive by construction), so a token outside
           [avail] can never gain a candidate. *)
        let elig = Ocd_engine.Strategy.elig scratch (plen * stride) in
        let any = ref false in
        for j = 0 to stride - 1 do
          let row = j * plen and u = ref 0 in
          for i = 0 to plen - 1 do
            let w = Bitset.Rows.word have row_dst.(base + i) j in
            elig.(row + i) <- w;
            u := !u lor w
          done;
          avail.(j) <- !u land missing.(j);
          if avail.(j) <> 0 then any := true
        done;
        if not !any then skip_shuffle ()
        else begin
          let budget = Ocd_engine.Strategy.budget scratch plen in
          let cand = Ocd_engine.Strategy.cand scratch plen in
          Int_vec.clear order;
          for j = 0 to stride - 1 do
            let x = ref missing.(j) and t = ref (j * bpw) in
            while !x <> 0 do
              if !x land 1 <> 0 then Int_vec.push order !t;
              x := !x lsr 1;
              incr t
            done
          done;
          Int_vec.shuffle rng order;
          Int_vec.stable_sort_by_key rank order;
          Array.blit row_cap base budget 0 plen;
          for k = 0 to Int_vec.length order - 1 do
            let token = Int_vec.get order k in
            let j = token / bpw and b = 1 lsl (token mod bpw) in
            if avail.(j) land b <> 0 then begin
              let row = j * plen and c = ref 0 in
              for i = 0 to plen - 1 do
                if budget.(i) > 0 && elig.(row + i) land b <> 0 then begin
                  cand.(!c) <- i;
                  incr c
                end
              done;
              let c = !c in
              if c > 0 then begin
                let i = cand.(c - 1 - Prng.int rng c) in
                budget.(i) <- budget.(i) - 1;
                moves :=
                  { Move.src = row_dst.(base + i); dst; token } :: !moves
              end
            end
          done
        end
      end
  done;
  !moves

let strategy =
  let make inst _rng =
    let tracked = Aggregates.tracked inst in
    let holding_preds = holding_preds_tracked inst in
    fun (ctx : Ocd_engine.Strategy.context) ->
      subdivided_requests inst ctx (tracked ctx) (holding_preds ctx)
  in
  { Ocd_engine.Strategy.name = "local"; make }

let strategy_without_subdivision =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    let tracked = Aggregates.tracked inst in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let agg = tracked ctx in
      let scratch = ctx.scratch in
      let useful = scratch.Ocd_engine.Strategy.tokens_a in
      let order = scratch.Ocd_engine.Strategy.order in
      let moves = ref [] in
      for src = 0 to n - 1 do
        if not (Bitset.Rows.is_empty ctx.have src) then
          Digraph.View.iter
            (fun dst cap ->
              Bitset.Rows.into useful ctx.have src;
              Bitset.Rows.diff_into useful ctx.have dst;
              rank_by_rarity ctx.rng agg useful order;
              let take = Int.min cap (Int_vec.length order) in
              for k = 0 to take - 1 do
                moves :=
                  { Move.src; dst; token = Int_vec.get order k } :: !moves
              done)
            (Digraph.succ graph src)
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "local-nosubdiv"; make }
