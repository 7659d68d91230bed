open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph

(* The decision core shared by the async node and the synchronous twin:
   given one vertex's round-start view, pick (holder, token) requests.
   Determinism of the differential test hangs on both callers driving
   this with identical rng states and identical views, so every random
   draw lives here.  [known i] is the believed possession of the [i]-th
   in-neighbour of [preds]. *)
let requests ~rng ~token_count ~have ~eligible ~alive ~preds ~known =
  let missing = Bitset.diff (Bitset.full token_count) have in
  if Bitset.is_empty missing then []
  else begin
    (* Ascending neighbour-local rarity, random tie-breaks: shuffle
       once, then stable-sort by believed holder count (the same
       shape as the synchronous heuristic's global rarity order).
       Suspected-dead peers are invisible: they contribute neither to
       rarity nor to the candidate pool, so the node re-targets live
       holders instead of backing off against a corpse. *)
    let tokens = Array.of_list (Bitset.elements missing) in
    Prng.shuffle rng tokens;
    let rarity token =
      let count = ref 0 in
      Digraph.View.iteri
        (fun i u _ ->
          match known i with
          | Some s when alive u && Bitset.mem s token -> incr count
          | _ -> ())
        preds;
      !count
    in
    let ranked = Order.sort_by rarity (Array.to_list tokens) in
    let budget = Digraph.View.caps preds in
    let picks = ref [] in
    List.iter
      (fun token ->
        if eligible token then begin
          let candidates = ref [] in
          Digraph.View.iteri
            (fun i u _ ->
              if budget.(i) > 0 && alive u then
                match known i with
                | Some s when Bitset.mem s token ->
                    candidates := i :: !candidates
                | _ -> ())
            preds;
          match !candidates with
          | [] -> ()
          | cs ->
              let i = Prng.pick_list rng cs in
              budget.(i) <- budget.(i) - 1;
              let src = Digraph.View.dst preds i in
              picks := (src, token) :: !picks
        end)
      ranked;
    List.rev !picks
  end

let max_backoff_exp = 6

let protocol () =
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let preds = Digraph.pred graph v in
    let succs = Digraph.succ graph v in
    let n = Instance.vertex_count inst in
    (* Latest announced possession per in-neighbour, by slot in [preds];
       only in-neighbours announce to us, and only their beliefs are
       ever read. *)
    let belief : Bitset.t option array =
      Array.make (Digraph.View.length preds) None
    in
    (* token -> retry deadline; attempts survive in a separate table so
       backoff keeps growing across timeouts. *)
    let pending : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let attempts : (int, int) Hashtbl.t = Hashtbl.create 8 in
    (* token -> the holder the pending request targets, so a suspected
       crash releases the token for immediate re-targeting instead of
       waiting out its exponential backoff. *)
    let target : (int, int) Hashtbl.t = Hashtbl.create 8 in
    (* Announce traffic doubles as heartbeats: every in-neighbour talks
       at least once per round, so a few silent rounds mean it is down
       (or unreachable, which warrants re-targeting just the same). *)
    let detector = Detector.create ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) ~n () in
    let alive u = not (Detector.suspected detector u) in
    let eligible token =
      match Hashtbl.find_opt pending token with
      | None -> true
      | Some deadline -> ctx.now () >= deadline
    in
    let decide () =
      if not (ctx.finished ()) then begin
        let stale =
          Hashtbl.fold
            (fun token holder acc -> if alive holder then acc else token :: acc)
            target []
        in
        List.iter
          (fun token ->
            Hashtbl.remove pending token;
            Hashtbl.remove target token)
          stale;
        let picks =
          requests ~rng:ctx.rng ~token_count:inst.token_count
            ~have:(ctx.have_copy ()) ~eligible ~alive ~preds
            ~known:(fun i -> belief.(i))
        in
        List.iter
          (fun (holder, token) ->
            let a =
              match Hashtbl.find_opt attempts token with Some a -> a | None -> 0
            in
            if a > 0 then ctx.note_retransmission ();
            Hashtbl.replace attempts token (a + 1);
            let backoff = ctx.pace * (1 lsl min a max_backoff_exp) in
            Hashtbl.replace pending token (ctx.now () + backoff);
            Hashtbl.replace target token holder;
            ctx.send ~dst:holder (Message.Request token))
          picks
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
          Hashtbl.remove pending token;
          Hashtbl.remove target token;
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
    fun (ctx : Ocd_engine.Strategy.context) ->
      let moves = ref [] in
      for dst = 0 to n - 1 do
        let preds = Digraph.pred graph dst in
        let picks =
          requests ~rng:rngs.(dst) ~token_count:inst.Instance.token_count
            ~have:ctx.have.(dst)
            ~eligible:(fun _ -> true)
            ~alive:(fun _ -> true)
            ~preds
            ~known:(fun i -> Some ctx.have.(Digraph.View.dst preds i))
        in
        List.iter
          (fun (src, token) -> moves := { Move.src; dst; token } :: !moves)
          picks
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "async-local-lockstep"; make }
