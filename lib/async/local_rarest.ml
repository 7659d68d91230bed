open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph

(* One vertex's pull round over its view of in-neighbour possession,
   shared by the async node and the synchronous twin: [known i] is the
   believed possession of the [i]-th in-neighbour of [preds].
   Suspected-dead peers are invisible: they contribute neither to
   rarity nor to the candidate pool, so the node re-targets live
   holders instead of backing off against a corpse.

   Rarity is counted once per round, on the sort's first [rarity]
   call, into [counts]: that call probes [alive] once per slot with a
   belief, in slot order, exactly as the first call of a per-token
   re-scan would.  Later calls read the array.  A repeat probe at the
   same tick returns the same verdict and cannot fire a detector's
   [on_suspect] again, so dropping the repeats leaves every suspicion
   event where it was. *)
let requests ~counts ~rng ~token_count ~have ~eligible ~alive ~preds ~known =
  let counted = ref false in
  let bump token = counts.(token) <- counts.(token) + 1 in
  let rarity token =
    if not !counted then begin
      counted := true;
      Array.fill counts 0 token_count 0;
      for i = 0 to Digraph.View.length preds - 1 do
        match known i with
        | Some s when alive (Digraph.View.dst preds i) -> Bitset.iter bump s
        | _ -> ()
      done
    end;
    counts.(token)
  in
  let holds token i =
    match known i with Some s -> Bitset.mem s token | None -> false
  in
  Pull.requests ~rng ~token_count ~have ~eligible ~alive ~preds ~rarity ~holds

let protocol () =
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let preds = Digraph.pred graph v in
    let succs = Digraph.succ graph v in
    (* Latest announced possession per in-neighbour, by slot in [preds];
       only in-neighbours announce to us, and only their beliefs are
       ever read. *)
    let belief : Bitset.t option array =
      Array.make (Digraph.View.length preds) None
    in
    let pull = Pull.create ctx in
    let counts = Array.make inst.token_count 0 in
    (* Announce traffic doubles as heartbeats: every in-neighbour talks
       at least once per round, so a few silent rounds mean it is down
       (or unreachable, which warrants re-targeting just the same). *)
    let detector = Detector.create ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) () in
    let alive u = not (Detector.suspected detector u) in
    let decide () =
      if not (ctx.finished ()) then begin
        Pull.release_suspected pull ~alive;
        List.iter
          (fun (holder, token) -> Pull.request pull ~holder token)
          (requests ~counts ~rng:ctx.rng ~token_count:inst.token_count
             ~have:(ctx.have_copy ()) ~eligible:(Pull.eligible pull) ~alive
             ~preds ~known:(fun i -> belief.(i)))
      end
    in
    let rec round () =
      if not (ctx.finished ()) then begin
        let snapshot = ctx.have_copy () in
        Digraph.View.iter
          (fun dst _ -> ctx.send ~dst (Message.Announce (Bitset.copy snapshot)))
          succs;
        ctx.after 1 decide;
        ctx.after ctx.pace round
      end
    in
    let on_message ~src msg =
      Detector.heard detector src;
      match msg with
      | Message.Announce s ->
          let i = Digraph.View.index preds src in
          if i >= 0 then belief.(i) <- Some s
      | Message.Request token ->
          if ctx.has token then ctx.send ~dst:src (Message.Data token)
      | Message.Data token ->
          Pull.arrived pull token;
          ignore (ctx.receive ~src token)
      | Message.Ack _ | Message.State _ | Message.Dht _ -> ()
    in
    { Protocol.on_start = round; on_message }
  in
  { Protocol.name = "async-local"; init }

let sync_strategy ~seed =
  let make inst _engine_rng =
    let graph = inst.Instance.graph in
    let n = Instance.vertex_count inst in
    let rngs = Array.init n (fun v -> Protocol.node_rng ~seed v) in
    let held = Array.map Bitset.copy inst.Instance.have in
    let counts = Array.make inst.Instance.token_count 0 in
    fun (ctx : Ocd_engine.Strategy.context) ->
      Array.iteri (fun v s -> Bitset.Rows.into s ctx.have v) held;
      let moves = ref [] in
      for dst = 0 to n - 1 do
        let preds = Digraph.pred graph dst in
        let picks =
          requests ~counts ~rng:rngs.(dst)
            ~token_count:inst.Instance.token_count
            ~have:held.(dst)
            ~eligible:(fun _ -> true)
            ~alive:(fun _ -> true)
            ~preds
            ~known:(fun i -> Some held.(Digraph.View.dst preds i))
        in
        List.iter
          (fun (src, token) -> moves := { Move.src; dst; token } :: !moves)
          picks
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "async-local-lockstep"; make }
