open Ocd_core
open Ocd_prelude
open Ocd_graph

(* Partition the token ids into contiguous chunks, one per out-arc of
   the source, sized proportionally to arc capacity. *)
let chunk_assignment (inst : Instance.t) source =
  let arcs = Digraph.succ inst.graph source in
  let deg = Digraph.View.length arcs in
  let total_cap =
    Int.max 1 (Digraph.View.fold (fun a _ c -> a + c) 0 arcs)
  in
  let m = inst.token_count in
  let chunks = Array.init deg (fun _ -> Bitset.create m) in
  let cursor = ref 0 in
  Digraph.View.iteri
    (fun i _ cap ->
      let share =
        if i = deg - 1 then m - !cursor
        else m * cap / total_cap
      in
      for t = !cursor to Int.min (m - 1) (!cursor + share - 1) do
        Bitset.add chunks.(i) t
      done;
      cursor := !cursor + share)
    arcs;
  chunks

let strategy ?source () =
  let make (inst : Instance.t) _rng =
    let source =
      match source with Some s -> s | None -> Baseline_util.default_source inst
    in
    let out = Digraph.succ inst.graph source in
    let chunks = chunk_assignment inst source in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let buf = ctx.scratch.Ocd_engine.Strategy.tokens_a in
      let outside = ctx.scratch.Ocd_engine.Strategy.tokens_b in
      let moves = ref [] in
      (* Source: push each chunk down its own arc first; any leftover
         arc capacity carries ordinary exchange traffic (on a general
         mesh — unlike FastReplica's clique — a neighbour may be
         reachable only through the source, so the source must
         eventually serve beyond its chunk). *)
      Digraph.View.iteri
        (fun i dst cap ->
          let chunked =
            Baseline_util.send_down_arc ~buf ~have:ctx.have ~src:source ~dst
              ~cap ~only:(Some chunks.(i)) ()
          in
          let spare = cap - List.length chunked in
          let rest =
            if spare <= 0 then []
            else begin
              Bitset.fill outside;
              Bitset.diff_into outside chunks.(i);
              Baseline_util.send_down_arc ~buf ~have:ctx.have ~src:source ~dst
                ~cap:spare ~only:(Some outside) ()
            end
          in
          moves := chunked @ rest @ !moves)
        out;
      (* Everyone else: pairwise exchange of whatever helps. *)
      for src = 0 to Instance.vertex_count inst - 1 do
        if src <> source && not (Bitset.Rows.is_empty ctx.have src) then
          Digraph.View.iter
            (fun dst cap ->
              moves :=
                Baseline_util.send_down_arc ~buf ~have:ctx.have ~src ~dst ~cap
                  ~only:None ()
                @ !moves)
            (Digraph.succ inst.graph src)
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "fast-replica"; make }
