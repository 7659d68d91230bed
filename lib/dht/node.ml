open Ocd_prelude
module Message = Ocd_async.Message

(* Successor-list length. *)
let succ_count = 8

(* Copies of each provider record, the owner's included. *)
let replication = 3

(* Reroutes before a lookup fails. *)
let lookup_attempts = 4

(* Hard hop cap per lookup (routing-loop backstop). *)
let hop_limit = 128

(* Most holders returned per provider query. *)
let providers_cap = 64

type config = { period : int; lookup_timeout : int }

let config ?lookup_timeout ~period () =
  if period < 1 then invalid_arg "Node.config: period must be positive";
  let lookup_timeout =
    match lookup_timeout with Some t -> t | None -> 2 * period
  in
  if lookup_timeout < 1 then
    invalid_arg "Node.config: lookup_timeout must be positive";
  { period; lookup_timeout }

type stats = {
  mutable lookups : int;
  mutable hops : int;
  mutable max_hops : int;
  mutable failures : int;
  mutable stores : int;
  mutable queries : int;
  mutable joins : int;
  mutable evictions : int;
}

let fresh_stats () =
  {
    lookups = 0;
    hops = 0;
    max_hops = 0;
    failures = 0;
    stores = 0;
    queries = 0;
    joins = 0;
    evictions = 0;
  }

let mean_hops s =
  if s.lookups = 0 then 0.0 else float_of_int s.hops /. float_of_int s.lookups

type env = {
  self : int;
  seed : int;
  now : unit -> int;
  after : int -> (unit -> unit) -> unit;
  send : dst:int -> Message.dht -> unit;
  alive : int -> bool;
  observe : int -> unit;
  running : unit -> bool;
  stats : stats;
  obs : Ocd_obs.t;
}

type init =
  | Stable of { succs : int list; pred : int option; fingers : int array }
  | Join of { via : int list }

(* One iterative lookup in flight.  [cand] is the node currently being
   asked; [banned] accumulates nodes that timed out or were redirected
   to while dead, so rerouting does not retry a corpse within the same
   lookup.  [account] separates application lookups (advertise /
   provider queries / explicit probes), which feed the stats, from
   maintenance lookups (finger fixing, joins), which do not. *)
type lookup = {
  target : int;
  mutable cand : int;
  mutable hops : int;
  mutable attempts : int;
  mutable banned : int list;
  account : bool;
  started : int;  (* start tick, for the dht/lookup trace span *)
  on_done : owner:int -> hops:int -> unit;
  on_fail : unit -> unit;
}

type query = { q_cb : int list -> unit }

(* Ticket-keyed tables on [Int_tab]'s int hash: [Hashtbl.hash] would
   take the polymorphic C hash on every probe.  Neither table is ever
   iterated, so its bucket order cannot reach any output. *)
module Tickets = Hashtbl.Make (Int_tab.Key)

type t = {
  env : env;
  config : config;
  id : int;
  (* [ids.(v)] is vertex [v]'s identifier: one array shared by every
     node of a run (see [vertex_ids]) *)
  ids : int array;
  mutable succs : int list;  (* ascending ring distance from self; no self *)
  mutable pred : int option;
  fingers : int array;  (* Id.bits entries; -1 = unknown *)
  finger_ids : int array;  (* identifier of each known finger, else 0 *)
  mutable fix_cursor : int;
  mutable joining : bool;
  mutable join_via : int list;
  mutable join_attempt : int;
  mutable join_pending : bool;
  mutable stab_ticket : int;
  mutable ticket : int;
  pending : lookup Tickets.t;  (* ticket -> lookup *)
  queries : query Tickets.t;  (* ticket -> provider query *)
  store : (int, int list ref) Hashtbl.t;  (* token -> holders, ascending *)
  (* records received from their advertiser (replica = false); these
     are the ones this node re-replicates when its successor set
     changes *)
  primaries : (int * int, unit) Hashtbl.t;
  mutable replica_targets : int list;
  (* former successors this node evicted, most recent first; stabilise
     probes one per period so a peer lost to a partition is rediscovered
     once the cut heals (see [probe_retired]) *)
  mutable retired : int list;
  (* consecutive invariant-check rounds each primary record has spent
     outside this node's (pred, self] arc; see [invariant_violations] *)
  mutable misowned_streak : (int * int, int) Hashtbl.t;
}

let vertex_ids ~seed n = Array.init n (fun v -> Id.of_vertex ~seed v)

let vid t v = t.ids.(v)

let succ0 t = match t.succs with s :: _ -> s | [] -> t.env.self

let ready t = not t.joining

let next_ticket t =
  t.ticket <- t.ticket + 1;
  t.ticket

let replica_set t = Order.take (replication - 1) t.succs

(* ---------------------------- observability ---------------------------- *)

(* Control-plane instrumentation: dht/* counters mirror the per-run
   stats flow into the registry as it happens (so chaos/profile
   renders see the fourth protocol's overhead without a separate
   mirror), and accounted lookups become dht/lookup trace spans.  All
   sim-time quantities; every site guards on one flag load. *)

let count t name n =
  if t.env.obs.Ocd_obs.on then Ocd_obs.Metrics.add t.env.obs.Ocd_obs.metrics name n

let traced t = t.env.obs.Ocd_obs.on && Ocd_obs.Sink.enabled t.env.obs.Ocd_obs.sink

(* ------------------------------ routing ------------------------------ *)

(* Routing deliberately ignores [env.alive]: far nodes (fingers) are
   contacted too rarely for a silence-based detector to have an
   opinion worth acting on, and the lookup machinery already routes
   around dead candidates with its own per-hop timeout and ban list.
   The detector's verdicts drive ring maintenance only, where probing
   keeps them grounded in actual contact.

   Consecutive fingers often name the same node.  [consider] is
   idempotent within one scan (the best only moves closer to [target],
   and a node is never strictly closer than itself), so a finger equal
   to the previous slot's is skipped without changing the answer. *)
let closest_preceding t ~target ~banned =
  let best = ref (-1) and best_id = ref 0 in
  let consider u uid =
    if
      u >= 0 && u <> t.env.self
      && (not (Order.mem_int u banned))
      && Id.in_oo ~lo:t.id ~hi:target uid
      && (!best < 0 || Id.in_oo ~lo:!best_id ~hi:target uid)
    then begin
      best := u;
      best_id := uid
    end
  in
  consider t.fingers.(0) t.finger_ids.(0);
  for k = 1 to Id.bits - 1 do
    let u = t.fingers.(k) in
    if u <> t.fingers.(k - 1) then consider u t.finger_ids.(k)
  done;
  List.iter (fun u -> consider u (vid t u)) t.succs;
  (match t.pred with Some p -> consider p (vid t p) | None -> ());
  !best

let finish_lookup t tk lk ~owner =
  Tickets.remove t.pending tk;
  if lk.account then begin
    let s = t.env.stats in
    s.lookups <- s.lookups + 1;
    s.hops <- s.hops + lk.hops;
    if lk.hops > s.max_hops then s.max_hops <- lk.hops;
    count t "dht/lookups" 1;
    count t "dht/lookup_hops" lk.hops;
    if traced t then
      Ocd_obs.Span.complete t.env.obs.Ocd_obs.sink ~pid:0 ~tid:t.env.self
        ~name:"dht/lookup" ~ts:lk.started ~dur:(t.env.now () - lk.started)
        ~args:[ ("hops", Ocd_obs.Sink.Int lk.hops) ]
        ()
  end;
  lk.on_done ~owner ~hops:lk.hops

let fail_lookup t tk lk =
  Tickets.remove t.pending tk;
  if lk.account then begin
    t.env.stats.failures <- t.env.stats.failures + 1;
    count t "dht/lookup_failures" 1
  end;
  lk.on_fail ()

let rec send_hop t tk lk =
  lk.hops <- lk.hops + 1;
  t.env.send ~dst:lk.cand (Message.Find_succ { target = lk.target; ticket = tk });
  let h = lk.hops in
  t.env.after t.config.lookup_timeout (fun () -> check_hop t tk h)

and check_hop t tk h =
  match Tickets.find_opt t.pending tk with
  | Some lk when lk.hops = h ->
    (* a full timeout with no reply: route around the candidate *)
    if not (Order.mem_int lk.cand lk.banned) then
      lk.banned <- lk.cand :: lk.banned;
    reroute t tk lk
  | _ -> ()

and reroute t tk lk =
  lk.attempts <- lk.attempts + 1;
  if lk.attempts >= lookup_attempts || lk.hops >= hop_limit
  then fail_lookup t tk lk
  else begin
    let c = closest_preceding t ~target:lk.target ~banned:lk.banned in
    let c = if c >= 0 then c else succ0 t in
    if c = t.env.self then fail_lookup t tk lk
    else begin
      lk.cand <- c;
      send_hop t tk lk
    end
  end

let account_local t =
  let s = t.env.stats in
  s.lookups <- s.lookups + 1;
  count t "dht/lookups" 1

let start_lookup t ~account ~target ~on_done ~on_fail =
  let s = succ0 t in
  if s = t.env.self then begin
    (* a ring of one: every identifier is ours *)
    if account then account_local t;
    on_done ~owner:t.env.self ~hops:0
  end
  else if Id.in_oc ~lo:t.id ~hi:(vid t s) target then begin
    if account then account_local t;
    on_done ~owner:s ~hops:0
  end
  else begin
    let c = closest_preceding t ~target ~banned:[] in
    let cand = if c >= 0 then c else s in
    let tk = next_ticket t in
    let lk =
      { target; cand; hops = 0; attempts = 0; banned = []; account;
        started = t.env.now (); on_done; on_fail }
    in
    Tickets.replace t.pending tk lk;
    send_hop t tk lk
  end

let lookup t ~key ~on_done ~on_fail =
  start_lookup t ~account:true ~target:key ~on_done ~on_fail

(* --------------------------- provider store --------------------------- *)

let providers t ~token =
  match Hashtbl.find_opt t.store token with
  | Some l -> Order.take providers_cap !l
  | None -> []

(* [x] inserted into the strictly ascending list [l], which is returned
   itself when it already holds [x].  Stops at the first entry not
   below [x] and copies only the prefix before it. *)
let rec insert_ascending (x : int) = function
  | y :: rest as l when y < x ->
    let rest' = insert_ascending x rest in
    if rest' == rest then l else y :: rest'
  | y :: _ as l when y = x -> l
  | l -> x :: l

let add_holder t token holder =
  let l =
    match Hashtbl.find_opt t.store token with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.add t.store token l;
      l
  in
  l := insert_ascending holder !l

(* (token, holder) records in ascending lexicographic order *)
let compare_record (t1, h1) (t2, h2) =
  let c = Int.compare t1 t2 in
  if c <> 0 then c else Int.compare h1 h2

let on_store t ~token ~holder ~replica =
  add_holder t token holder;
  t.env.stats.stores <- t.env.stats.stores + 1;
  count t "dht/stores" 1;
  if not replica then begin
    Hashtbl.replace t.primaries (token, holder) ();
    List.iter
      (fun u -> t.env.send ~dst:u (Message.Store { token; holder; replica = true }))
      (replica_set t)
  end

(* When the replica set gains members (successor repair, or a closer
   successor learned through stabilisation), every primary record is
   re-sent to the newcomers so an advertisement survives the loss of
   the nodes that held it — soft state with eager repair. *)
let re_replicate t =
  let targets = replica_set t in
  let fresh =
    List.filter (fun u -> not (Order.mem_int u t.replica_targets)) targets
  in
  if fresh <> [] && Hashtbl.length t.primaries > 0 then begin
    let records = Hashtbl.fold (fun k () acc -> k :: acc) t.primaries [] in
    let records = List.sort compare_record records in
    List.iter
      (fun (token, holder) ->
        List.iter
          (fun u ->
            t.env.send ~dst:u (Message.Store { token; holder; replica = true }))
          fresh)
      records
  end;
  t.replica_targets <- targets

let advertise t ~token =
  start_lookup t ~account:false ~target:(Id.of_key ~seed:t.env.seed token)
    ~on_done:(fun ~owner ~hops:_ ->
      if owner = t.env.self then
        on_store t ~token ~holder:t.env.self ~replica:false
      else
        t.env.send ~dst:owner
          (Message.Store { token; holder = t.env.self; replica = false }))
    ~on_fail:(fun () -> ())

let rec find_providers_go t ~token ~attempts cb =
  let retry () =
    (* the ring may have repaired since the failed attempt: a fresh
       lookup routes around whatever ate the last one *)
    if attempts + 1 < lookup_attempts then
      find_providers_go t ~token ~attempts:(attempts + 1) cb
    else cb []
  in
  start_lookup t ~account:true ~target:(Id.of_key ~seed:t.env.seed token)
    ~on_done:(fun ~owner ~hops:_ ->
      if owner = t.env.self then cb (providers t ~token)
      else begin
        let tk = next_ticket t in
        Tickets.replace t.queries tk { q_cb = cb };
        t.env.stats.queries <- t.env.stats.queries + 1;
        count t "dht/provider_queries" 1;
        t.env.send ~dst:owner (Message.Get_providers { token; ticket = tk });
        t.env.after t.config.lookup_timeout (fun () ->
            if Tickets.mem t.queries tk then begin
              Tickets.remove t.queries tk;
              retry ()
            end)
      end)
    ~on_fail:retry

let find_providers t ~token cb = find_providers_go t ~token ~attempts:0 cb

(* ----------------------------- maintenance ---------------------------- *)

(* Ascending ring distance from self, one entry per distance.  Each
   node's distance is computed once, not once per comparison. *)
let ring_sorted t nodes =
  List.map (fun u -> (Id.dist ~from:t.id (vid t u), u)) nodes
  |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let start_join t =
  if not t.join_pending then begin
    (* no liveness filter: attempts cycle through the bootstrap set, so
       a dead candidate costs one timed-out attempt and nothing more *)
    let candidates = List.filter (fun u -> u <> t.env.self) t.join_via in
    match candidates with
    | [] -> ()  (* nobody to join through; stay a ring of one *)
    | _ :: _ ->
      let c = List.nth candidates (t.join_attempt mod List.length candidates) in
      t.join_attempt <- t.join_attempt + 1;
      t.join_pending <- true;
      (* Lookup of the id just past ours, forced through the bootstrap
         candidate (the local shortcut would answer "self" vacuously).
         Not our own id: a *re*joining node is still remembered by the
         ring under the same identifier, so the owner of [t.id] is the
         node itself — the owner of [t.id + 1] is its live successor. *)
      let tk = next_ticket t in
      let lk =
        {
          target = (t.id + 1) land max_int;
          cand = c;
          hops = 0;
          attempts = 0;
          banned = [];
          account = false;
          started = t.env.now ();
          on_done =
            (fun ~owner ~hops:_ ->
              t.join_pending <- false;
              if owner <> t.env.self then begin
                t.joining <- false;
                t.env.observe owner;
                t.succs <- [ owner ];
                t.env.stats.joins <- t.env.stats.joins + 1;
                count t "dht/joins" 1;
                if traced t then
                  Ocd_obs.Span.instant t.env.obs.Ocd_obs.sink ~pid:0
                    ~tid:t.env.self ~name:"dht/join" ~ts:(t.env.now ())
                    ~args:[ ("via", Ocd_obs.Sink.Int owner) ]
                    ();
                t.env.send ~dst:owner Message.Notify
              end);
          on_fail = (fun () -> t.join_pending <- false);
        }
      in
      Tickets.replace t.pending tk lk;
      send_hop t tk lk
  end

(* Drop suspected-dead successors, counting each drop.  Both removal
   paths — the periodic stabilise sweep and the reply-merge in
   [on_neighbors] — go through here, so the eviction counter is exact
   no matter which one notices first. *)
let retired_cap = 8

(* [l] without the members [alive] rejects, probing each member once in
   list order (as [List.partition] would); returns [l] itself, not a
   copy, when every member passes.  Rejected members are pushed onto
   [dead], last first. *)
let rec keep_alive t dead = function
  | [] -> []
  | u :: rest as l ->
    let live = t.env.alive u in
    if not live then dead := u :: !dead;
    let rest' = keep_alive t dead rest in
    if not live then rest' else if rest' == rest then l else u :: rest'

let evict_suspected t =
  let dead = ref [] in
  let live = keep_alive t dead t.succs in
  let dead = List.rev !dead in
  if dead <> [] then begin
    t.env.stats.evictions <- t.env.stats.evictions + List.length dead;
    count t "dht/evictions" (List.length dead);
    t.succs <- live;
    (* Remember who we dropped.  A peer evicted because a partition
       made it look dead is still out there holding half the ring;
       [probe_retired] keeps one probe per period pointed at the
       retired set so the first period after a heal re-establishes
       contact even when every finger has been rewritten to this
       side's survivors during the split. *)
    List.iter
      (fun u ->
        if u <> t.env.self && not (Order.mem_int u t.retired) then
          t.retired <- Order.take retired_cap (u :: t.retired))
      dead
  end;
  dead <> []

(* Would merging a contact at ring distance [d] leave [succs] as it
   is?  Yes when the list is full ([succ_count] entries), strictly
   ascending in distance (as [ring_sorted] leaves it) and [d] lies
   beyond its last entry: the merge would sort the contact last and
   take it straight off again.  Walks the list once, allocating
   nothing. *)
let rec no_closer t d ~prev ~len = function
  | [] -> len = succ_count && d > prev
  | u :: rest ->
    let du = Id.dist ~from:t.id (vid t u) in
    du > prev && no_closer t d ~prev:du ~len:(len + 1) rest

(* Ring merge after a heal.  While the network is split, each side
   evicts the other's nodes and closes its successor ring over the
   survivors; once the partition heals, the sides' views stay divergent
   until somebody from across the old cut speaks again.  Waiting for
   the periodic stabilise probe alone would reconcile only neighbours
   of neighbours; instead every incoming message is a liveness proof
   and a merge candidate — if the sender is closer than our worst
   successor (or our list is underfull), adopt it on the spot.  On a
   converged ring this is a no-op (nobody not already a successor is
   closer than the ones we have), so fault-free runs are untouched. *)
let consider_contact t src =
  if
    src >= 0 && src <> t.env.self && (not t.joining) && t.succs <> []
    && (not (Order.mem_int src t.succs))
    && t.env.alive src
    && not
         (no_closer t (Id.dist ~from:t.id (vid t src)) ~prev:(-1) ~len:0 t.succs)
  then begin
    let merged = Order.take succ_count (ring_sorted t (src :: t.succs)) in
    if not (List.equal Int.equal merged t.succs) then begin
      let old0 = succ0 t in
      t.env.observe src;
      t.succs <- merged;
      if succ0 t <> old0 then t.env.send ~dst:(succ0 t) Message.Notify;
      re_replicate t
    end
  end

(* The other half of post-heal reconciliation: a primary record stored
   while the ring was split may live at a node that no longer owns the
   key.  Each period the node re-checks a couple of its primaries
   against the live ring and hands misowned ones to the true owner as
   a fresh primary Store (which re-fans replicas there).  Rate-limited
   to two lookups per period so a big store drains gently; a correctly
   owned store costs one fold and no messages. *)
let handoff_misowned t =
  match t.pred with
  | None -> ()
  | Some p ->
    let plo = vid t p in
    let mis =
      Hashtbl.fold
        (fun ((token, _) as k) () acc ->
          if Id.in_oc ~lo:plo ~hi:t.id (Id.of_key ~seed:t.env.seed token) then
            acc
          else k :: acc)
        t.primaries []
    in
    List.iter
      (fun (token, holder) ->
        start_lookup t ~account:false
          ~target:(Id.of_key ~seed:t.env.seed token)
          ~on_done:(fun ~owner ~hops:_ ->
            if owner <> t.env.self && Hashtbl.mem t.primaries (token, holder)
            then begin
              Hashtbl.remove t.primaries (token, holder);
              t.env.send ~dst:owner
                (Message.Store { token; holder; replica = false })
            end)
          ~on_fail:(fun () -> ()))
      (Order.take 2 (List.sort compare_record mis))

(* One Get_neighbors probe per period at a retired peer, round-robin.
   While the peer is genuinely dead (or the cut is still up) the probe
   is dropped and costs one message; the moment it can answer again,
   its Neighbors reply — carrying the current stabilise ticket — walks
   the ordinary merge path in [on_neighbors], and [handle] takes it
   off the retired list.  This is what bounds ring reconciliation
   after a heal: it does not depend on any stale finger surviving the
   split. *)
let probe_retired t =
  match t.retired with
  | [] -> ()
  | r :: rest ->
    t.retired <- rest @ [ r ];
    t.env.send ~dst:r (Message.Get_neighbors { ticket = t.stab_ticket })

let stabilise t =
  count t "dht/stabilise" 1;
  (* detector-driven successor repair *)
  if evict_suspected t then re_replicate t;
  (match t.pred with
  | Some p when not (t.env.alive p) -> t.pred <- None
  | _ -> ());
  match t.succs with
  | [] ->
    (* the whole successor list died: rejoin through the bootstrap set *)
    if t.join_via <> [] then begin
      t.joining <- true;
      start_join t
    end
  | succs ->
    (* Probe the whole successor list, not just the head: the replies
       both merge routing state and stand in as ring heartbeats, so
       the detector's verdict on a successor always rests on recent
       expected contact.  One ticket per period; every reply carrying
       it merges (the next period's ticket retires stragglers). *)
    let tk = next_ticket t in
    t.stab_ticket <- tk;
    List.iter
      (fun s -> t.env.send ~dst:s (Message.Get_neighbors { ticket = tk }))
      succs;
    probe_retired t;
    handoff_misowned t

let on_neighbors t ~src ~ticket ~pred ~reported =
  if ticket = t.stab_ticket then begin
    ignore (evict_suspected t);
    let adopt =
      if
        pred >= 0 && pred <> t.env.self
        && Id.in_oo ~lo:t.id ~hi:(vid t src) (vid t pred)
      then [ pred ]
      else []
    in
    (* Newly reported members have had no chance to speak yet — mark
       them observed so the silence clock starts now, then let the
       detector's verdict filter the merge. *)
    List.iter
      (fun u -> if u >= 0 && u <> t.env.self then t.env.observe u)
      (adopt @ reported);
    let cands =
      List.filter
        (fun u -> u <> t.env.self && t.env.alive u)
        (adopt @ (src :: reported) @ t.succs)
    in
    t.succs <- Order.take succ_count (ring_sorted t cands);
    (match t.succs with
    | s :: _ -> t.env.send ~dst:s Message.Notify
    | [] -> ());
    re_replicate t
  end

let on_notify t ~src =
  if src <> t.env.self then begin
    (match t.pred with
    | None -> t.pred <- Some src
    | Some p when not (t.env.alive p) -> t.pred <- Some src
    | Some p when Id.in_oo ~lo:(vid t p) ~hi:t.id (vid t src) ->
      t.pred <- Some src
    | Some _ -> ());
    (* A ring of one adopts its first notifier as successor — the only
       way a lone bootstrap node (empty successor list, nobody to join
       through) ever learns the ring has grown around it. *)
    if t.succs = [] && not t.joining && t.env.alive src then begin
      t.env.observe src;
      t.succs <- [ src ];
      re_replicate t
    end
  end

let fix_finger t =
  let k = t.fix_cursor in
  t.fix_cursor <- (t.fix_cursor + 1) mod Id.bits;
  start_lookup t ~account:false ~target:(Id.finger_target t.id k)
    ~on_done:(fun ~owner ~hops:_ ->
      t.fingers.(k) <- owner;
      t.finger_ids.(k) <- vid t owner)
    ~on_fail:(fun () -> ())

let on_find_succ t ~src ~target ~ticket =
  if t.joining && t.succs = [] then
    (* no routing state yet; let the querier time out and reroute *)
    ()
  else begin
    let reply node final =
      t.env.send ~dst:src (Message.Succ_info { ticket; node; final })
    in
    let s = succ0 t in
    if s = t.env.self then reply t.env.self true
    else if Id.in_oc ~lo:t.id ~hi:(vid t s) target then reply s true
    else
      match t.pred with
      | Some p when Id.in_oc ~lo:(vid t p) ~hi:t.id target ->
        reply t.env.self true
      | _ ->
        let c = closest_preceding t ~target ~banned:[] in
        if c >= 0 then reply c false else reply s false
  end

let on_succ_info t ~ticket ~node ~final =
  match Tickets.find_opt t.pending ticket with
  | None -> ()
  | Some lk ->
    if final then finish_lookup t ticket lk ~owner:node
    else if node = t.env.self || Order.mem_int node lk.banned then begin
      (* a stale redirect (to ourselves, or to a node this lookup
         already gave up on): route around it *)
      if not (Order.mem_int node lk.banned) then lk.banned <- node :: lk.banned;
      reroute t ticket lk
    end
    else begin
      lk.cand <- node;
      send_hop t ticket lk
    end

(* ------------------------------ lifecycle ----------------------------- *)

let handle t ~src (m : Message.dht) =
  (* Any message is proof of life: a retired peer that speaks again is
     back in the ordinary machinery's hands and needs no more probes. *)
  if t.retired <> [] && Order.mem_int src t.retired then
    t.retired <- List.filter (fun u -> u <> src) t.retired;
  (* A Find_succ sender may still be mid-join (its own join lookup),
     with no routing state to its name — adopting it would splice an
     empty node into the ring.  Every other message type is only ever
     sent by an established node: joining nodes stay silent on
     Find_succ (see [on_find_succ]) and hosts defer stores and queries
     until ready.  The heal-merge still bootstraps from a cross-cut
     lookup, via the Succ_info reply the querier gets back. *)
  (match m with
  | Message.Find_succ _ -> ()
  | _ -> consider_contact t src);
  match m with
  | Message.Find_succ { target; ticket } -> on_find_succ t ~src ~target ~ticket
  | Message.Succ_info { ticket; node; final } ->
    on_succ_info t ~ticket ~node ~final
  | Message.Get_neighbors { ticket } ->
    t.env.send ~dst:src
      (Message.Neighbors
         {
           ticket;
           pred = (match t.pred with Some p -> p | None -> -1);
           succs = t.succs;
         })
  | Message.Neighbors { ticket; pred; succs } ->
    on_neighbors t ~src ~ticket ~pred ~reported:succs
  | Message.Notify -> on_notify t ~src
  | Message.Store { token; holder; replica } -> on_store t ~token ~holder ~replica
  | Message.Get_providers { token; ticket } ->
    t.env.send ~dst:src
      (Message.Providers { token; ticket; holders = providers t ~token })
  | Message.Providers { ticket; holders; token = _ } -> (
    match Tickets.find_opt t.queries ticket with
    | Some q ->
      Tickets.remove t.queries ticket;
      q.q_cb holders
    | None -> ())

let rec tick t =
  if t.env.running () then begin
    if t.joining then start_join t
    else begin
      stabilise t;
      if t.succs <> [] then fix_finger t
    end;
    t.env.after t.config.period (fun () -> tick t)
  end

let start t =
  if t.joining then start_join t;
  t.env.after t.config.period (fun () -> tick t)

let create ~env ~config ~ids init =
  let t =
    {
      env;
      config;
      ids;
      id = ids.(env.self);
      succs = [];
      pred = None;
      fingers = Array.make Id.bits (-1);
      finger_ids = Array.make Id.bits 0;
      fix_cursor = 0;
      joining = false;
      join_via = [];
      join_attempt = 0;
      join_pending = false;
      stab_ticket = 0;
      ticket = 0;
      pending = Tickets.create 8;
      queries = Tickets.create 8;
      store = Hashtbl.create 16;
      primaries = Hashtbl.create 16;
      replica_targets = [];
      retired = [];
      misowned_streak = Hashtbl.create 8;
    }
  in
  (match init with
  | Stable { succs; pred; fingers } ->
    t.succs <- Order.take succ_count succs;
    t.pred <- pred;
    Array.blit fingers 0 t.fingers 0 (Int.min (Array.length fingers) Id.bits);
    Array.iteri
      (fun k u -> if u >= 0 then t.finger_ids.(k) <- vid t u)
      t.fingers;
    t.replica_targets <- replica_set t
  | Join { via } ->
    t.joining <- true;
    t.join_via <- List.filter (fun u -> u <> env.self) via);
  t

(* ------------------------- invariant monitoring ------------------------ *)

let misowned_grace = 32

let invariant_violations t =
  let out = ref [] in
  let add rule detail = out := (rule, detail) :: !out in
  if Order.mem_int t.env.self t.succs then
    add "dht-ring" "self in successor list";
  (let rec ordered = function
     | a :: (b :: _ as rest) ->
       if Id.dist ~from:t.id (vid t a) >= Id.dist ~from:t.id (vid t b) then
         add "dht-ring"
           (Printf.sprintf "successor list out of ring order (%d before %d)" a
              b)
       else ordered rest
     | _ -> ()
   in
   ordered t.succs);
  (match t.pred with
  | Some p when p = t.env.self -> add "dht-ring" "self as predecessor"
  | _ -> ());
  Hashtbl.iter
    (fun token l ->
      let rec sorted = function
        | (a : int) :: (b :: _ as rest) ->
          if a >= b then
            add "dht-ring"
              (Printf.sprintf "holder list for token %d not strictly sorted"
                 token)
          else sorted rest
        | _ -> ()
      in
      sorted !l)
    t.store;
  (* Ownership is eventually-true, not always-true: a record is
     expected to sit at the wrong node while the ring reshapes around
     a split or a heal, and [handoff_misowned] drains at most two per
     period.  Only a record misowned on [misowned_grace] consecutive
     checks — long past any reconciliation the protocol could still be
     performing — is a violation. *)
  (match t.pred with
  | None -> ()
  | Some p ->
    let plo = vid t p in
    let fresh = Hashtbl.create 8 in
    Hashtbl.iter
      (fun ((token, holder) as k) () ->
        if not (Id.in_oc ~lo:plo ~hi:t.id (Id.of_key ~seed:t.env.seed token))
        then begin
          let s =
            (match Hashtbl.find_opt t.misowned_streak k with
            | Some s -> s
            | None -> 0)
            + 1
          in
          Hashtbl.replace fresh k s;
          if s = misowned_grace then
            add "dht-ownership"
              (Printf.sprintf
                 "primary record (token %d, holder %d) misowned for %d checks"
                 token holder misowned_grace)
        end)
      t.primaries;
    t.misowned_streak <- fresh);
  List.rev !out

(* ------------------------- converged ring state ------------------------ *)

let sorted_ring ~(id : int -> int) members =
  let m = Array.length members in
  let ids = Array.map id members in
  let order = Array.init m (fun i -> i) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let sorted_ids = Array.map (fun i -> ids.(i)) order in
  let sorted_vs = Array.map (fun i -> members.(i)) order in
  (sorted_ids, sorted_vs)

let owner_index (sorted_ids : int array) target =
  let m = Array.length sorted_ids in
  let lo = ref 0 and hi = ref m in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted_ids.(mid) >= target then hi := mid else lo := mid + 1
  done;
  if !lo = m then 0 else !lo

let ideal_owner ~seed ~members target =
  if Array.length members = 0 then invalid_arg "Node.ideal_owner: no members";
  let sorted_ids, sorted_vs = sorted_ring ~id:(Id.of_vertex ~seed) members in
  sorted_vs.(owner_index sorted_ids target)

let converged ~ids members =
  let m = Array.length members in
  if m = 0 then invalid_arg "Node.converged: no members";
  let sorted_ids, sorted_vs = sorted_ring ~id:(Array.get ids) members in
  let rank_of = Hashtbl.create m in
  Array.iteri (fun rank v -> Hashtbl.replace rank_of v rank) sorted_vs;
  fun v ->
    match Hashtbl.find_opt rank_of v with
    | None -> invalid_arg "Node.converged: vertex is not a member"
    | Some i ->
      if m = 1 then
        Stable { succs = []; pred = None; fingers = Array.make Id.bits (-1) }
      else begin
        let succs =
          List.init (Int.min succ_count (m - 1)) (fun k ->
              sorted_vs.((i + k + 1) mod m))
        in
        let pred = Some sorted_vs.((i + m - 1) mod m) in
        let self_id = sorted_ids.(i) in
        let fingers =
          Array.init Id.bits (fun k ->
              sorted_vs.(owner_index sorted_ids (Id.finger_target self_id k)))
        in
        Stable { succs; pred; fingers }
      end
