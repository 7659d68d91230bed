open Ocd_core
open Ocd_prelude
open Ocd_graph

(* Next [count] tokens of [have] starting at the cursor, cyclically.
   Returns the chosen tokens and the new cursor (one past the last
   token sent). *)
let take_cyclic have cursor count =
  let m = Bitset.capacity have in
  let available = Bitset.cardinal have in
  let take = min count available in
  let rec go cursor taken acc =
    if taken = take then (List.rev acc, cursor)
    else
      match Bitset.next_member have cursor with
      | Some t -> go (t + 1) (taken + 1) (t :: acc)
      | None -> go 0 taken acc (* wrap around *)
  in
  if take = 0 then ([], cursor) else go (cursor mod max 1 m) 0 []

let strategy =
  let make inst _rng =
    let n = Instance.vertex_count inst in
    (* cursor per arc, int-packed key [src * n + dst] *)
    let cursors = Hashtbl.create (4 * n) in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let graph = ctx.instance.Instance.graph in
      let have = ctx.scratch.Ocd_engine.Strategy.tokens_a in
      let moves = ref [] in
      for src = 0 to n - 1 do
        Bitset.Rows.into have ctx.have src;
        if not (Bitset.is_empty have) then
          Digraph.View.iter
            (fun dst cap ->
              let arc = (src * n) + dst in
              let cursor =
                Option.value (Hashtbl.find_opt cursors arc) ~default:0
              in
              let tokens, cursor' = take_cyclic have cursor cap in
              Hashtbl.replace cursors arc cursor';
              List.iter
                (fun token -> moves := { Move.src; dst; token } :: !moves)
                tokens)
            (Digraph.succ graph src)
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "round-robin"; make }
