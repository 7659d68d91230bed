open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph

let protocol () =
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let preds = Digraph.pred graph v in
    let succs = Digraph.succ graph v in
    (* What we believe each out-neighbour holds, by slot in [succs]:
       last announcement, refined by acks and by our own optimistic
       pushes.  Only out-neighbours announce and ack to us. *)
    let belief : Bitset.t option array =
      Array.make (Digraph.View.length succs) None
    in
    let believed i =
      match belief.(i) with
      | Some s -> s
      | None ->
          let s = Bitset.create inst.token_count in
          belief.(i) <- Some s;
          s
    in
    (* Tokens already pushed once to each out-neighbour, by slot in
       [succs], for the retransmission counter. *)
    let pushed =
      Array.init (Digraph.View.length succs) (fun _ ->
          Bitset.create inst.token_count)
    in
    (* Out-neighbours announce (and ack) every round, so silence beyond
       four rounds marks a peer down: capacity is better spent on live
       neighbours.  A restarted peer's first announce both clears the
       suspicion and resets our belief to its post-crash truth, which
       re-triggers pushes for anything it lost. *)
    let detector = Detector.create ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) () in
    let push () =
      if not (ctx.finished ()) then
        Digraph.View.iteri
          (fun i dst cap ->
            if not (Detector.suspected detector dst) then begin
            let target = believed i in
            let useful = ctx.have_copy () in
            Bitset.diff_into useful target;
            let candidates = Array.of_list (Bitset.elements useful) in
            Prng.shuffle ctx.rng candidates;
            let count = Int.min cap (Array.length candidates) in
            let sent = pushed.(i) in
            for k = 0 to count - 1 do
              let token = candidates.(k) in
              if Bitset.mem sent token then ctx.note_retransmission ()
              else Bitset.add sent token;
              Bitset.add target token;
              ctx.send ~dst (Message.Data token)
            done
            end)
          succs
    in
    let rec round () =
      if not (ctx.finished ()) then begin
        let snapshot = ctx.have_copy () in
        Digraph.View.iter
          (fun src _ -> ctx.send ~dst:src (Message.Announce (Bitset.copy snapshot)))
          preds;
        ctx.after 1 push;
        ctx.after ctx.pace round
      end
    in
    let on_message ~src msg =
      Detector.heard detector src;
      match msg with
      | Message.Announce s ->
          let i = Digraph.View.index succs src in
          if i >= 0 then belief.(i) <- Some s
      | Message.Data token ->
          ignore (ctx.receive ~src token);
          ctx.send ~dst:src (Message.Ack token)
      | Message.Ack token ->
          let i = Digraph.View.index succs src in
          if i >= 0 then Bitset.add (believed i) token
      | Message.Request _ | Message.State _ | Message.Dht _ -> ()
    in
    { Protocol.on_start = round; on_message }
  in
  { Protocol.name = "async-push"; init }
