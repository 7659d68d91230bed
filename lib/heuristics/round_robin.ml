open Ocd_core
open Ocd_prelude
open Ocd_graph

let strategy =
  let make (inst : Instance.t) _rng =
    let base = inst.graph in
    let { Digraph.row_off; row_dst; row_cap } = Digraph.succ_rows base in
    let n = Instance.vertex_count inst in
    (* One cursor per arc, indexed by the arc's slot in the run's
       graph: the token id to try next.  Runners that show a subgraph
       per step (link flaps) keep the base graph's slots. *)
    let cursors = Array.make (Digraph.arc_count base) 0 in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let have = ctx.have in
      let moves = ref [] in
      (* The next [min cap available] tokens [src] holds from the
         slot's cursor, cyclically; the cursor ends one past the last
         token sent. *)
      let send src dst slot cap available =
        let cursor = ref cursors.(slot)
        and left = ref (Int.min cap available) in
        while !left > 0 do
          let token = Bitset.Rows.next_member have src !cursor in
          if token < 0 then cursor := 0
          else begin
            moves := { Move.src; dst; token } :: !moves;
            cursor := token + 1;
            decr left
          end
        done;
        cursors.(slot) <- !cursor
      in
      let graph = ctx.instance.Instance.graph in
      for src = 0 to n - 1 do
        let available = Bitset.Rows.cardinal have src in
        if available > 0 then
          if graph == base then
            for slot = row_off.(src) to row_off.(src + 1) - 1 do
              send src row_dst.(slot) slot row_cap.(slot) available
            done
          else
            Digraph.View.iter
              (fun dst cap ->
                send src dst (Digraph.slot base src dst) cap available)
              (Digraph.succ graph src)
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "round-robin"; make }
