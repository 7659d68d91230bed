open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph
module Protocol = Ocd_async.Protocol
module Message = Ocd_async.Message
module Detector = Ocd_async.Detector
module Pull = Ocd_async.Pull
module Monitor = Ocd_async.Monitor

(* Soft-state cadences, in rounds.  Republishing keeps provider
   records alive across owner crashes between re-replications; the
   refresh interval bounds how stale a node's view of a token's
   provider set can get.  Both are rate-limited per round so DHT
   control volume stays O(1) per node per round. *)
let republish_rounds = 8
let refresh_rounds = 4
let max_queries_per_round = 4
let max_adverts_per_round = 2

(* [ids]: every vertex's ring identifier, one array for the whole run *)
type shared = { ids : int array; ring : int -> Node.init; sources : int list }

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
        let ids = Node.vertex_ids ~seed:ctx.seed n in
        let sh =
          {
            ids;
            ring = Node.converged ~ids members;
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
        ~now:ctx.now ~timeout:(4 * ctx.pace) ()
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
      Node.create ~env ~config ~ids:sh.ids
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
    (* DHT-sourced provider knowledge per token (None: never reported),
       with its refresh round (-1: never) and whether a query for it is
       in flight.  Token-indexed: O(tokens) per node, never O(n). *)
    let prov_holders : int list option array = Array.make tokens None in
    let prov_round = Array.make tokens (-1) in
    let querying = Array.make tokens false in
    let pull = Pull.create ctx in
    (* token -> round its next advertisement is due; [min_int]: due now *)
    let publish_due = Array.make tokens min_int in
    let adv_cursor = ref 0 in
    let round_no () = ctx.now () / ctx.pace in
    let advertise_step () =
      let round = round_no () in
      let budget = ref max_adverts_per_round in
      for off = 0 to tokens - 1 do
        let token = (!adv_cursor + off) mod tokens in
        if !budget > 0 && ctx.has token then begin
          if round >= publish_due.(token) then begin
            decr budget;
            publish_due.(token) <- round + republish_rounds;
            Node.advertise node ~token
          end
        end
      done;
      adv_cursor := (!adv_cursor + max_adverts_per_round) mod Int.max tokens 1
    in
    let query_step () =
      let round = round_no () in
      let missing = Bitset.diff (Bitset.full tokens) (ctx.have_copy ()) in
      let budget = ref max_queries_per_round in
      Bitset.iter
        (fun token ->
          let stale =
            prov_round.(token) < 0 || round - prov_round.(token) >= refresh_rounds
          in
          if !budget > 0 && stale && not querying.(token) then begin
            decr budget;
            querying.(token) <- true;
            Node.find_providers node ~token (fun holders ->
                querying.(token) <- false;
                prov_round.(token) <- round_no ();
                prov_holders.(token) <- Some holders)
          end)
        missing
    in
    let decide () =
      if not (ctx.finished ()) then begin
        Pull.release_suspected pull ~alive;
        (* true rarest-first without omniscience: ascending global
           provider count as reported by the DHT, unknown-count tokens
           last; a candidate holds the token per the DHT or per its
           announcement *)
        let rarity token =
          match prov_holders.(token) with
          | Some l -> List.length l
          | None -> max_int
        in
        let holds token =
          let holders = Option.value prov_holders.(token) ~default:[] in
          fun i ->
            Order.mem_int (Digraph.View.dst preds i) holders
            || match belief.(i) with Some s -> Bitset.mem s token | None -> false
        in
        List.iter
          (fun (holder, token) -> Pull.request pull ~holder token)
          (Pull.requests ~rng:ctx.rng ~token_count:tokens
             ~have:(ctx.have_copy ()) ~eligible:(Pull.eligible pull) ~alive
             ~preds ~rarity ~holds)
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
        Pull.arrived pull token;
        if ctx.receive ~src token then
          (* newly held: advertise promptly, off the republish cadence *)
          publish_due.(token) <- min_int
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
