open Ocd_prelude
module Digraph = Ocd_graph.Digraph
module Condition = Ocd_dynamics.Condition

type profile = {
  pace : int;
  latency : int;
  jitter_mean : float;
  loss : float;
  serialize : bool;
}

let default =
  { pace = 64; latency = 16; jitter_mean = 8.0; loss = 0.0; serialize = true }

let lockstep =
  { pace = 4; latency = 0; jitter_mean = 0.0; loss = 0.0; serialize = false }

type adversary = {
  dup_prob : float;
  delay_prob : float;
  max_delay : int;
  corrupt_prob : float;
}

let no_adversary =
  { dup_prob = 0.0; delay_prob = 0.0; max_delay = 0; corrupt_prob = 0.0 }

(* Per-pair transport state: a private PRNG stream (loss and jitter
   draws), a second private stream for the adversary (so enabling it
   never perturbs the loss/jitter sequence of the base run), and the
   leaky-bucket horizon for Data departures.  One state per ordered
   pair (src, dst), whatever travels: data and control from [src] to
   [dst] share it. *)
type arc_state = { rng : Prng.t; adv_rng : Prng.t; mutable next_free : int }

(* Stand-in for "not created yet" in the slot arrays below, compared
   physically; never drawn from. *)
let unborn = { rng = Prng.create ~seed:0; adv_rng = Prng.create ~seed:0; next_free = 0 }

module Pair_tab = Hashtbl.Make (Int_tab.Key)

type t = {
  sim : Sim.t;
  graph : Digraph.t;
  n : int;
  row_cap : int array;  (* succ_rows' capacities, indexed by slot *)
  profile : profile;
  condition : Condition.t;
  seed : int;
  causal : Ocd_obs.Causal.t;
  deliver : src:int -> dst:int -> Message.t -> unit;
  node_up : int -> bool;
  node_epoch : int -> int;
  cut : (round:int -> int -> int -> bool) option;
  adversary : adversary;
  adv_on : bool;
  (* Pair state, created on first use.  [along.(s)] serves the pair
     (u, v) of the arc u -> v at slot [s]; [against.(s)] serves the
     reverse pair (v, u) when v -> u is no arc of its own (control
     against the arc's direction); [underlay] serves pairs with no arc
     either way, keyed by [src * n + dst]. *)
  along : arc_state array;
  against : arc_state array;
  underlay : arc_state Pair_tab.t;
  mutable data_sent : int;
  mutable control_sent : int;
  mutable dropped : int;
  mutable fault_dropped : int;
  mutable adv_duplicated : int;
  mutable adv_reordered : int;
  mutable adv_corrupted : int;
}

let create ~sim ~graph ~profile ~condition ~seed
    ?(causal = Ocd_obs.Causal.disabled) ?(node_up = fun _ -> true)
    ?(node_epoch = fun _ -> 0) ?cut ?(adversary = no_adversary) ~deliver () =
  if profile.pace <= 0 then invalid_arg "Net.create: pace must be positive";
  if
    adversary.dup_prob < 0.0 || adversary.dup_prob > 1.0
    || adversary.delay_prob < 0.0 || adversary.delay_prob > 1.0
    || adversary.corrupt_prob < 0.0 || adversary.corrupt_prob > 1.0
  then invalid_arg "Net.create: adversary probabilities must be in [0,1]";
  if adversary.max_delay < 0 then
    invalid_arg "Net.create: adversary max_delay must be non-negative";
  if adversary.delay_prob > 0.0 && adversary.max_delay < 1 then
    invalid_arg "Net.create: delay_prob > 0 requires max_delay >= 1";
  let arcs = Digraph.arc_count graph in
  { sim; graph; n = Digraph.vertex_count graph;
    row_cap = (Digraph.succ_rows graph).Digraph.row_cap;
    profile; condition; seed; causal; deliver; node_up; node_epoch;
    cut;
    adversary; adv_on = adversary <> no_adversary;
    along = Array.make arcs unborn; against = Array.make arcs unborn;
    underlay = Pair_tab.create 64;
    data_sent = 0; control_sent = 0; dropped = 0;
    fault_dropped = 0; adv_duplicated = 0; adv_reordered = 0;
    adv_corrupted = 0 }

(* Same stream-derivation mixing as Condition's coin: the pair's draws
   are independent of every other pair's and of node rngs.  The
   adversary's stream flips the seed's bits first, which decorrelates
   it from the base stream under SplitMix64. *)
let fresh_state net ~src ~dst =
  let seed = (((net.seed * 1_000_003) + src) * 1_000_003) + dst in
  { rng = Prng.create ~seed; adv_rng = Prng.create ~seed:(lnot seed); next_free = 0 }

let slot_state net states s ~src ~dst =
  let st = states.(s) in
  if st != unborn then st
  else begin
    let st = fresh_state net ~src ~dst in
    states.(s) <- st;
    st
  end

(* [fwd]/[bwd] are the slots of src -> dst and dst -> src (-1 when
   absent). *)
let pair_state net ~src ~dst ~fwd ~bwd =
  if fwd >= 0 then slot_state net net.along fwd ~src ~dst
  else if bwd >= 0 then slot_state net net.against bwd ~src ~dst
  else begin
    let key = (src * net.n) + dst in
    match Pair_tab.find_opt net.underlay key with
    | Some st -> st
    | None ->
        let st = fresh_state net ~src ~dst in
        Pair_tab.add net.underlay key st;
        st
  end

let arc_latency profile ~capacity =
  (* Inverse in capacity, clamped to a 0.5x-1.5x band around the base:
     capacity 3 gives 1.5x, capacity 15 gives 0.5x. *)
  profile.latency * 9 / (3 + Int.max 0 capacity)

(* Base and effective capacity of the arc at slot [s]; 0 for [s = -1],
   no arc. *)
let slot_cap net s = if s < 0 then 0 else Array.unsafe_get net.row_cap s

let effective net ~round ~src ~dst s =
  if s < 0 then 0
  else Condition.effective net.condition ~step:round ~src ~dst ~base:(slot_cap net s)

let delay net state ~capacity =
  let base = arc_latency net.profile ~capacity in
  let jitter =
    if net.profile.jitter_mean > 0.0 then
      int_of_float (Prng.exponential state.rng ~mean:net.profile.jitter_mean)
    else 0
  in
  base + jitter

let lost net state =
  net.profile.loss > 0.0 && Prng.bernoulli state.rng net.profile.loss

let cut_off net ~round ~src ~dst =
  match net.cut with None -> false | Some f -> f ~round src dst

let message_token = function
  | Message.Request token | Message.Data token -> token
  | _ -> -1

(* A message is bound to the incarnations of both endpoints at send
   time: if either crashes while it is in flight, it never arrives —
   even when the endpoint has already restarted.  This is what makes a
   crash lose in-flight state rather than merely delaying it. *)
let schedule_delivery net ~src ~dst ~arrive ~sid msg =
  let src_epoch = net.node_epoch src and dst_epoch = net.node_epoch dst in
  Sim.at net.sim arrive (fun () ->
      if net.node_epoch src = src_epoch && net.node_epoch dst = dst_epoch then begin
        if sid >= 0 then begin
          (* The delivery activation: everything the handler does is
             caused by this arrival, whose own cause is the send. *)
          let d =
            Ocd_obs.Causal.record_deliver net.causal ~tick:(Sim.now net.sim)
              ~node:dst ~src ~send:sid ~token:(message_token msg)
          in
          Ocd_obs.Causal.set_cur net.causal d
        end;
        net.deliver ~src ~dst msg
      end
      else net.fault_dropped <- net.fault_dropped + 1)

(* The seeded message adversary sits between departure accounting and
   delivery scheduling.  Draw order per message is fixed (corrupt,
   then delay, then duplicate) and every draw comes from the arc's
   private adversary stream, so counters are exact deterministic
   functions of the run inputs.  A corrupted message departs normally
   (it consumed its capacity slot) but the receiver's checksum check
   discards it — protocols observe it as loss and retry.  A delayed
   message arrives 1..max_delay ticks late, overtaking nothing but
   being overtaken: bounded reordering.  A duplicated message is
   delivered a second time with its own small lag; dedup is the
   protocols' problem. *)
let dispatch net state ~src ~dst ~arrive ~sid msg =
  if not net.adv_on then schedule_delivery net ~src ~dst ~arrive ~sid msg
  else begin
    let a = net.adversary and rng = state.adv_rng in
    if a.corrupt_prob > 0.0 && Prng.bernoulli rng a.corrupt_prob then
      net.adv_corrupted <- net.adv_corrupted + 1
    else begin
      let arrive =
        if a.delay_prob > 0.0 && Prng.bernoulli rng a.delay_prob then begin
          net.adv_reordered <- net.adv_reordered + 1;
          arrive + 1 + Prng.int rng (Int.max 1 a.max_delay)
        end
        else arrive
      in
      schedule_delivery net ~src ~dst ~arrive ~sid msg;
      if a.dup_prob > 0.0 && Prng.bernoulli rng a.dup_prob then begin
        net.adv_duplicated <- net.adv_duplicated + 1;
        let echo = arrive + 1 + Prng.int rng (Int.max 1 a.max_delay) in
        (* the echo shares the original's causal send: both arrivals
           were caused by the one departure *)
        schedule_delivery net ~src ~dst ~arrive:echo ~sid msg
      end
    end
  end

(* The causal [Send] of a departing message, or -1 with the log off.
   [retry] is the protocol's pending-retry marker, consumed before any
   drop decision. *)
let causal_send net ~con ~retry ~now ~src ~dst ~depart msg =
  if con then
    Ocd_obs.Causal.record_send net.causal ~tick:now ~node:src ~dst ~depart
      ~token:(message_token msg) ~retry
  else -1

let send net ~src ~dst msg =
  let now = Sim.now net.sim in
  let round = now / net.profile.pace in
  (* Consume the protocol's pending-retry marker on every send attempt
     from this source: if the attempt is dropped below, the marker must
     not leak onto an unrelated later send. *)
  let con = Ocd_obs.Causal.enabled net.causal in
  let retry = con && Ocd_obs.Causal.take_retry net.causal ~node:src in
  if not (net.node_up src && net.node_up dst) then
    (* a crashed endpoint: nothing departs, nothing is received *)
    net.fault_dropped <- net.fault_dropped + 1
  else if cut_off net ~round ~src ~dst then
    (* the endpoints sit on different sides of an active partition:
       every path between them — overlay arc or underlay route — is
       dark, so nothing departs and no coin is drawn (matching the
       link-down convention below) *)
    net.fault_dropped <- net.fault_dropped + 1
  else begin
    let fwd = Digraph.slot net.graph src dst in
    if Message.is_data msg then begin
      let eff = effective net ~round ~src ~dst fwd in
      (* eff > 0 implies the arc exists, so the pair's state is the
         arc's own *)
      if eff = 0 then net.dropped <- net.dropped + 1
      else begin
        let state = slot_state net net.along fwd ~src ~dst in
        if lost net state then net.dropped <- net.dropped + 1
        else begin
          net.data_sent <- net.data_sent + 1;
          let depart =
            if net.profile.serialize then begin
              let depart = Int.max now state.next_free in
              state.next_free <- depart + Int.max 1 (net.profile.pace / eff);
              depart
            end
            else now
          in
          let arrive = depart + delay net state ~capacity:eff in
          dispatch net state ~src ~dst ~arrive
            ~sid:(causal_send net ~con ~retry ~now ~src ~dst ~depart msg)
            msg
        end
      end
    end
    else begin
      let bwd = Digraph.slot net.graph dst src in
      if fwd >= 0 || bwd >= 0 then begin
        (* Control flows bidirectionally along the edge; it needs some
           direction of the link to be up. *)
        let up =
          effective net ~round ~src ~dst fwd > 0
          || effective net ~round ~src:dst ~dst:src bwd > 0
        in
        if not up then net.dropped <- net.dropped + 1
        else begin
          let state = pair_state net ~src ~dst ~fwd ~bwd in
          if lost net state then net.dropped <- net.dropped + 1
          else begin
            net.control_sent <- net.control_sent + 1;
            let cap = Int.max (slot_cap net fwd) (slot_cap net bwd) in
            let arrive = now + delay net state ~capacity:cap in
            dispatch net state ~src ~dst ~arrive
              ~sid:(causal_send net ~con ~retry ~now ~src ~dst ~depart:now msg)
              msg
          end
        end
      end
      else begin
        let state = pair_state net ~src ~dst ~fwd ~bwd in
        if lost net state then net.dropped <- net.dropped + 1
        else begin
          (* No overlay edge between the endpoints: the message routes
             over the underlay — the physical network beneath the
             overlay, which connects every pair of hosts but offers no
             capacity to the distribution problem.  Only control may
             take this path (the DHT's fingers and successors are
             arbitrary pairs); it is slower than any overlay link
             (capacity-0 latency band, 3x base) and still subject to
             the loss coin, to endpoint crashes and to partitions
             (checked above — a split cuts the physical network
             itself), but not to link conditions: flaps and churn
             model overlay links, which this path does not use. *)
          net.control_sent <- net.control_sent + 1;
          let arrive = now + delay net state ~capacity:0 in
          dispatch net state ~src ~dst ~arrive
            ~sid:(causal_send net ~con ~retry ~now ~src ~dst ~depart:now msg)
            msg
        end
      end
    end
  end

let data_sent net = net.data_sent
let control_sent net = net.control_sent
let dropped net = net.dropped
let fault_dropped net = net.fault_dropped
let adversary_duplicated net = net.adv_duplicated
let adversary_reordered net = net.adv_reordered
let adversary_corrupted net = net.adv_corrupted
