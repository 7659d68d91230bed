open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph
module Protocol = Ocd_async.Protocol
module Message = Ocd_async.Message
module Detector = Ocd_async.Detector
module Monitor = Ocd_async.Monitor

let max_backoff_exp = 6

(* Soft-state cadences, in rounds.  Republishing keeps provider
   records alive across owner crashes between re-replications; the
   refresh interval bounds how stale a node's view of a token's
   provider set can get.  Both are rate-limited per round so DHT
   control volume stays O(1) per node per round. *)
let republish_rounds = 8
let refresh_rounds = 4
let max_queries_per_round = 4
let max_adverts_per_round = 2

type shared = { ring : int -> Node.init; sources : int list }

let protocol ?stats () =
  let stats = match stats with Some s -> s | None -> Node.fresh_stats () in
  (* Epoch-0 nodes boot with the converged ring state — the fixpoint
     the join/stabilise protocol reaches, derivable by every node from
     the shared (seed, n) knowledge, computed once per run (the same
     shared-cell pattern as Flood_plan's plan cache).  Restarted
     incarnations boot empty and REJOIN through the source vertices,
     exercising the join path under churn. *)
  let shared : shared option ref = ref None in
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let n = Instance.vertex_count inst in
    let tokens = inst.Instance.token_count in
    (* timeout sized for the underlay's RTT tail (3x base each way,
       plus exponential jitter): a round-trip that is merely slow must
       not look like a dead hop *)
    let config =
      Node.config ~period:ctx.pace ~lookup_timeout:(3 * ctx.pace) ()
    in
    let sh =
      match !shared with
      | Some sh -> sh
      | None ->
        let members = Array.init n (fun i -> i) in
        let sh =
          {
            ring = Node.converged ~seed:ctx.seed ~succ_count:config.Node.succ_count members;
            sources =
              List.filter
                (fun u -> not (Bitset.is_empty inst.Instance.have.(u)))
                (Order.range n);
          }
        in
        shared := Some sh;
        sh
    in
    let detector =
      Detector.create
        ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) ~n ()
    in
    let alive u = not (Detector.suspected detector u) in
    let env =
      {
        Node.self = v;
        seed = ctx.seed;
        now = ctx.now;
        after = ctx.after;
        send = (fun ~dst m -> ctx.send ~dst (Message.Dht m));
        alive;
        observe = Detector.watch detector;
        running = (fun () -> not (ctx.finished ()));
        stats;
        obs = ctx.obs;
      }
    in
    let node =
      Node.create ~env ~config
        (if ctx.epoch = 0 then sh.ring v else Node.Join { via = sh.sources })
    in
    let preds = Digraph.pred graph v in
    let succs = Digraph.succ graph v in
    (* Possession announced by in-neighbours.  The per-round Announce
       broadcast doubles as the heartbeat that keeps the failure
       detector meaningful (as in Local_rarest): every in-neighbour
       talks once per round, so silence means it is down.  Beliefs
       complement the DHT's provider records for candidate selection —
       the DHT supplies *global* rarity and far-provider knowledge,
       announcements the fresh adjacent-possession view.  Indexed by
       slot in [preds]: only in-neighbours announce to us. *)
    let belief : Bitset.t option array =
      Array.make (Digraph.View.length preds) None
    in
    (* DHT-sourced provider knowledge per token, with its refresh round *)
    let prov_holders : (int, int list) Hashtbl.t = Hashtbl.create 8 in
    let prov_round : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let querying : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    (* request bookkeeping, as in Local_rarest *)
    let pending : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let attempts : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let target : (int, int) Hashtbl.t = Hashtbl.create 8 in
    (* token -> round its next advertisement is due *)
    let publish_due : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let adv_cursor = ref 0 in
    let round_no () = ctx.now () / ctx.pace in
    let eligible token =
      match Hashtbl.find_opt pending token with
      | None -> true
      | Some deadline -> ctx.now () >= deadline
    in
    let advertise_step () =
      let round = round_no () in
      let budget = ref max_adverts_per_round in
      for off = 0 to tokens - 1 do
        let token = (!adv_cursor + off) mod tokens in
        if !budget > 0 && ctx.has token then begin
          let due =
            match Hashtbl.find_opt publish_due token with
            | None -> true
            | Some r -> round >= r
          in
          if due then begin
            decr budget;
            Hashtbl.replace publish_due token (round + republish_rounds);
            Node.advertise node ~token
          end
        end
      done;
      adv_cursor := (!adv_cursor + max_adverts_per_round) mod max tokens 1
    in
    let query_step () =
      let round = round_no () in
      let missing = Bitset.diff (Bitset.full tokens) (ctx.have_copy ()) in
      let budget = ref max_queries_per_round in
      Bitset.iter
        (fun token ->
          let stale =
            match Hashtbl.find_opt prov_round token with
            | None -> true
            | Some r -> round - r >= refresh_rounds
          in
          if !budget > 0 && stale && not (Hashtbl.mem querying token) then begin
            decr budget;
            Hashtbl.replace querying token ();
            Node.find_providers node ~token (fun holders ->
                Hashtbl.remove querying token;
                Hashtbl.replace prov_round token (round_no ());
                Hashtbl.replace prov_holders token holders)
          end)
        missing
    in
    let decide () =
      if not (ctx.finished ()) then begin
        (* a suspected target releases its token for immediate
           re-targeting instead of waiting out the backoff *)
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
        let missing = Bitset.diff (Bitset.full tokens) (ctx.have_copy ()) in
        if not (Bitset.is_empty missing) then begin
          (* true rarest-first without omniscience: ascending global
             provider count as reported by the DHT, random tie-breaks,
             unknown-count tokens last *)
          let toks = Array.of_list (Bitset.elements missing) in
          Prng.shuffle ctx.rng toks;
          let rarity token =
            match Hashtbl.find_opt prov_holders token with
            | Some l -> List.length l
            | None -> max_int
          in
          let ranked = Order.sort_by rarity (Array.to_list toks) in
          let budget = Digraph.View.caps preds in
          List.iter
            (fun token ->
              if eligible token then begin
                let holders =
                  match Hashtbl.find_opt prov_holders token with
                  | Some l -> l
                  | None -> []
                in
                let has i u =
                  List.mem u holders
                  || (match belief.(i) with
                     | Some s -> Bitset.mem s token
                     | None -> false)
                in
                let candidates = ref [] in
                Digraph.View.iteri
                  (fun i u _ ->
                    if budget.(i) > 0 && alive u && has i u then
                      candidates := i :: !candidates)
                  preds;
                match !candidates with
                | [] -> ()
                | cs ->
                  let i = Prng.pick_list ctx.rng cs in
                  budget.(i) <- budget.(i) - 1;
                  let holder = Digraph.View.dst preds i in
                  let a =
                    match Hashtbl.find_opt attempts token with
                    | Some a -> a
                    | None -> 0
                  in
                  if a > 0 then ctx.note_retransmission ();
                  Hashtbl.replace attempts token (a + 1);
                  let backoff = ctx.pace * (1 lsl min a max_backoff_exp) in
                  Hashtbl.replace pending token (ctx.now () + backoff);
                  Hashtbl.replace target token holder;
                  ctx.send ~dst:holder (Message.Request token)
              end)
            ranked
        end
      end
    in
    let rec round () =
      if not (ctx.finished ()) then begin
        let snapshot = ctx.have_copy () in
        Digraph.View.iter
          (fun dst _ -> ctx.send ~dst (Message.Announce (Bitset.copy snapshot)))
          succs;
        (* while rejoining, the node's empty routing state would make
           its lookups self-answer; the data plane runs on announced
           neighbour beliefs until the ring is back *)
        if Node.ready node then begin
          advertise_step ();
          query_step ();
          (* periodic ring safety checks — one branch when disabled *)
          if Monitor.enabled ctx.monitor then
            List.iter
              (fun (rule, detail) ->
                Monitor.record ctx.monitor ~tick:(ctx.now ()) ~node:v ~rule
                  ~detail)
              (Node.invariant_violations node)
        end;
        ctx.after 1 decide;
        ctx.after ctx.pace round
      end
    in
    let on_message ~src msg =
      Detector.heard detector src;
      match msg with
      | Message.Dht m -> Node.handle node ~src m
      | Message.Request token ->
        if ctx.has token then ctx.send ~dst:src (Message.Data token)
      | Message.Data token ->
        Hashtbl.remove pending token;
        Hashtbl.remove target token;
        if ctx.receive ~src token then
          (* newly held: advertise promptly, off the republish cadence *)
          Hashtbl.remove publish_due token
      | Message.Announce s ->
        let i = Digraph.View.index preds src in
        if i >= 0 then belief.(i) <- Some s
      | Message.Ack _ | Message.State _ -> ()
    in
    {
      Protocol.on_start =
        (fun () ->
          Node.start node;
          round ());
      on_message;
    }
  in
  { Protocol.name = "dht-rarest"; init }
