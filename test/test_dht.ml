(* Tests for the Chord-style DHT (Ocd_dht): identifier geometry, ring
   invariants under sequential joins, lookup correctness and the
   O(log n) hop bound on converged rings, provider-record replication
   surviving an owner kill, and the dht-rarest protocol end to end
   (fault-free validation plus crash repair). *)

open Ocd_prelude
open Ocd_core

module Id = Ocd_dht.Id
module Node = Ocd_dht.Node
module Sim = Ocd_async.Sim

(* ------------------------- identifier space ------------------------ *)

let test_id_geometry () =
  let seed = 11 in
  (* deterministic and in range *)
  List.iter
    (fun v ->
      let a = Id.of_vertex ~seed v and b = Id.of_vertex ~seed v in
      Alcotest.(check int) "of_vertex deterministic" a b;
      Alcotest.(check bool) "of_vertex in [0, 2^62)" true (a >= 0);
      let k = Id.of_key ~seed v in
      Alcotest.(check bool) "of_key in [0, 2^62)" true (k >= 0))
    [ 0; 1; 2; 17; 4095; max_int ];
  (* vertex and key domains never collide *)
  for v = 0 to 255 do
    for k = 0 to 15 do
      Alcotest.(check bool)
        "vertex and key ids disjoint" false
        (Id.of_vertex ~seed v = Id.of_key ~seed k)
    done
  done;
  (* distance: identity, wraparound, additivity on the circle *)
  Alcotest.(check int) "dist to self" 0 (Id.dist ~from:42 42);
  Alcotest.(check int) "dist forward" 5 (Id.dist ~from:10 15);
  let top = (1 lsl 62) - 1 in
  Alcotest.(check int) "dist wraps" 2 (Id.dist ~from:top 1);
  (* interval predicates, including the wrapped and degenerate arcs *)
  Alcotest.(check bool) "in_oo inside" true (Id.in_oo ~lo:10 ~hi:20 15);
  Alcotest.(check bool) "in_oo excludes lo" false (Id.in_oo ~lo:10 ~hi:20 10);
  Alcotest.(check bool) "in_oo excludes hi" false (Id.in_oo ~lo:10 ~hi:20 20);
  Alcotest.(check bool) "in_oc includes hi" true (Id.in_oc ~lo:10 ~hi:20 20);
  Alcotest.(check bool) "in_oc excludes lo" false (Id.in_oc ~lo:10 ~hi:20 10);
  Alcotest.(check bool) "in_oo wrapped arc" true (Id.in_oo ~lo:top ~hi:5 2);
  Alcotest.(check bool) "in_oc wrapped arc" true (Id.in_oc ~lo:top ~hi:5 5);
  Alcotest.(check bool)
    "degenerate oc arc is the full circle" true
    (Id.in_oc ~lo:7 ~hi:7 123456);
  Alcotest.(check bool)
    "degenerate oo arc excludes only lo" false
    (Id.in_oo ~lo:7 ~hi:7 7);
  (* finger targets: id + 2^k mod 2^62 *)
  Alcotest.(check int) "finger 0" 11 (Id.finger_target 10 0);
  Alcotest.(check int) "finger 4" 26 (Id.finger_target 10 4);
  Alcotest.(check int) "finger wraps" 0 (Id.finger_target top 0);
  Alcotest.check_raises "finger_target rejects k = bits"
    (Invalid_argument "Id.finger_target: bad index") (fun () ->
      ignore (Id.finger_target 0 Id.bits))

(* [in_oo]/[in_oc] against a reference written over [Id.dist]: x lies
   in the open arc (lo, hi) when it is a positive clockwise distance
   from lo and closer than hi, the arc with lo = hi being the whole
   circle less lo (open) or the whole circle (half-open).  Points are
   uniform 62-bit ids or the circle's ends, and about half the arcs are
   degenerate or have x on, just past or just before an end. *)
let prop_interval_predicates =
  let wrap x = x land max_int in
  let point =
    QCheck.Gen.(frequency [ (4, map wrap int); (1, oneofl [ 0; 1; max_int ]) ])
  in
  let gen =
    QCheck.Gen.(
      point >>= fun lo ->
      oneof [ return lo; point ] >>= fun hi ->
      oneof
        [ point;
          oneofl [ lo; hi; wrap (lo + 1); wrap (hi + 1); wrap (hi - 1) ] ]
      >|= fun x -> (lo, hi, x))
  in
  let in_oo ~lo ~hi x =
    let d = Id.dist ~from:lo x in
    d > 0 && (lo = hi || d < Id.dist ~from:lo hi)
  in
  let in_oc ~lo ~hi x =
    let d = Id.dist ~from:lo x in
    lo = hi || (d > 0 && d <= Id.dist ~from:lo hi)
  in
  QCheck.Test.make ~name:"in_oo and in_oc match an Id.dist reference"
    ~count:2000
    (QCheck.make gen ~print:(fun (lo, hi, x) ->
         Printf.sprintf "lo=%d hi=%d x=%d" lo hi x))
    (fun (lo, hi, x) ->
      Id.in_oo ~lo ~hi x = in_oo ~lo ~hi x
      && Id.in_oc ~lo ~hi x = in_oc ~lo ~hi x)

(* ------------------------- bare-sim harness ------------------------ *)

(* A live in-memory network of DHT nodes on a bare simulator: fixed
   5-tick hop latency, a perfect detector backed by the [up] array,
   and message drops to/from downed nodes.  Mirrors the harness in
   Ocd_bench.Experiments but supports dynamic membership and, via the
   [cut] hook, network partitions: while a cut is active, cross-cut
   messages are dropped at send time and cross-cut peers look dead to
   the detector — exactly the semantics of Net's partition hook. *)
type harness = {
  sim : Sim.t;
  nodes : Node.t option array;
  up : bool array;
  cut : (int -> int -> bool) ref;
  stats : Node.stats;
  seed : int;
  ids : int array;
  cfg : Node.config;
}

let make_harness ~n ~seed ~period =
  let sim = Sim.create () in
  {
    sim;
    nodes = Array.make n None;
    up = Array.make n true;
    cut = ref (fun _ _ -> false);
    stats = Node.fresh_stats ();
    seed;
    ids = Node.vertex_ids ~seed n;
    cfg = Node.config ~period ();
  }

let env h v =
  {
    Node.self = v;
    seed = h.seed;
    now = (fun () -> Sim.now h.sim);
    after = (fun d f -> Sim.after h.sim d f);
    send =
      (fun ~dst m ->
        if h.up.(v) && not (!(h.cut) v dst) then
          Sim.after h.sim 5 (fun () ->
              if h.up.(dst) then
                match h.nodes.(dst) with
                | Some node -> Node.handle node ~src:v m
                | None -> ()));
    alive = (fun u -> h.up.(u) && not (!(h.cut) v u));
    observe = ignore;
    running = (fun () -> h.up.(v));
    stats = h.stats;
    obs = Ocd_obs.disabled;
  }

let boot h v init =
  let node = Node.create ~env:(env h v) ~config:h.cfg ~ids:h.ids init in
  h.nodes.(v) <- Some node;
  Node.start node;
  node

let node_exn h v =
  match h.nodes.(v) with
  | Some node -> node
  | None -> Alcotest.failf "node %d was never booted" v

(* the live member whose id minimises clockwise distance from [v]'s
   id — v's successor on the ideal ring *)
let ideal_succ ~seed ~members v =
  let from = Id.of_vertex ~seed v in
  let best = ref (-1) and best_d = ref max_int in
  Array.iter
    (fun u ->
      if u <> v then begin
        let d = Id.dist ~from (Id.of_vertex ~seed u) in
        if d < !best_d then begin
          best := u;
          best_d := d
        end
      end)
    members;
  !best

(* ------------------- ring invariants after joins ------------------- *)

let test_sequential_joins () =
  let n = 24 and seed = 42 in
  let h = make_harness ~n ~seed ~period:32 in
  (* node 0 boots as a ring of one; the rest join through it, spaced
     far enough apart that each join's lookup resolves against an
     already-stabilised ring *)
  ignore (boot h 0 (Node.converged ~ids:h.ids [| 0 |] 0));
  for v = 1 to n - 1 do
    Sim.at h.sim (v * 300) (fun () -> ignore (boot h v (Node.Join { via = [ 0 ] })))
  done;
  let horizon = (n * 300) + 3_000 in
  ignore (Sim.run ~limit:horizon h.sim);
  Alcotest.(check int) "every join completed" (n - 1) h.stats.Node.joins;
  let members = Array.init n (fun i -> i) in
  for v = 0 to n - 1 do
    let node = node_exn h v in
    Alcotest.(check bool) (Printf.sprintf "node %d ready" v) true (Node.ready node);
    Alcotest.(check int)
      (Printf.sprintf "node %d successor matches the ideal ring" v)
      (ideal_succ ~seed ~members v)
      (Node.succ0 node)
  done;
  (* every key is owned by exactly one node: lookups from random
     origins all agree with the ideal owner *)
  let rng = Prng.create ~seed:(seed + 1) in
  let wrong = ref 0 and answered = ref 0 in
  let lookups = 64 in
  for _ = 1 to lookups do
    let origin = Prng.int rng n in
    let key = Prng.int rng max_int in
    let expected = Node.ideal_owner ~seed ~members key in
    Node.lookup (node_exn h origin) ~key
      ~on_done:(fun ~owner ~hops:_ ->
        incr answered;
        if owner <> expected then incr wrong)
      ~on_fail:(fun () -> incr wrong)
  done;
  ignore (Sim.run ~limit:(horizon + 10_000) h.sim);
  Alcotest.(check int) "all post-join lookups answered" lookups !answered;
  Alcotest.(check int) "every key owned by its ideal successor" 0 !wrong;
  (* Exact routing cost, pinned: these fingers were all learned by
     fix_finger, and a finger whose cached identifier went stale would
     still reach the right owner, only by a different number of hops. *)
  Alcotest.(check (triple int int int))
    "lookups, hops, max hops" (64, 96, 3)
    (h.stats.Node.lookups, h.stats.Node.hops, h.stats.Node.max_hops)

(* --------------------- lookup hop bound at 10^4 --------------------- *)

let test_lookup_hop_bound () =
  let n = 10_000 and seed = 7 and lookups = 256 in
  let h = make_harness ~n ~seed ~period:64 in
  let members = Array.init n (fun i -> i) in
  let ring = Node.converged ~ids:h.ids members in
  (* Stable boots only; running is irrelevant because no loops start
     without faults to repair, and we never call Node.start *)
  for v = 0 to n - 1 do
    h.nodes.(v) <- Some (Node.create ~env:(env h v) ~config:h.cfg ~ids:h.ids (ring v))
  done;
  let rng = Prng.create ~seed:(seed + n) in
  let wrong = ref 0 in
  for _ = 1 to lookups do
    let origin = Prng.int rng n in
    let key = Prng.int rng max_int in
    let expected = Node.ideal_owner ~seed ~members key in
    Node.lookup (node_exn h origin) ~key
      ~on_done:(fun ~owner ~hops:_ -> if owner <> expected then incr wrong)
      ~on_fail:(fun () -> incr wrong)
  done;
  ignore (Sim.run h.sim);
  Alcotest.(check int) "all lookups accounted" lookups h.stats.Node.lookups;
  Alcotest.(check int) "no wrong or failed answers" 0 !wrong;
  Alcotest.(check int) "no lookup failures" 0 h.stats.Node.failures;
  Alcotest.(check (triple int int int))
    "lookups, hops, max hops (pinned)" (256, 1541, 10)
    (h.stats.Node.lookups, h.stats.Node.hops, h.stats.Node.max_hops);
  let bound = 2.0 *. (log (float_of_int n) /. log 2.0) in
  let mean = Node.mean_hops h.stats in
  Alcotest.(check bool)
    (Printf.sprintf "mean hops %.2f within 2*log2(n) = %.1f" mean bound)
    true (mean <= bound)

(* ------------------- provider store holder lists -------------------- *)

let test_holder_store () =
  (* [cap] is the node's fixed provider-answer cap *)
  let seed = 3 and token = 9 and cap = 64 and holders = 96 in
  let h = make_harness ~n:holders ~seed ~period:32 in
  let node =
    Node.create ~env:(env h 0) ~config:h.cfg ~ids:h.ids
      (Node.converged ~ids:h.ids [| 0 |] 0)
  in
  (* holders 0..95, each stored one to three times, in shuffled order *)
  let rng = Prng.create ~seed in
  let stores =
    Array.of_list
      (List.concat_map
         (fun holder -> List.init (1 + Prng.int rng 3) (fun _ -> holder))
         (Order.range holders))
  in
  Prng.shuffle rng stores;
  let seen = ref [] in
  Array.iter
    (fun holder ->
      Node.handle node ~src:holder
        (Ocd_async.Message.Store { token; holder; replica = true });
      if not (List.mem holder !seen) then seen := holder :: !seen;
      let expect = Order.take cap (List.sort compare !seen) in
      Alcotest.(check (list int))
        "providers: ascending, deduplicated, capped" expect
        (Node.providers node ~token))
    stores;
  Alcotest.(check int) "every store counted" (Array.length stores)
    h.stats.Node.stores;
  Alcotest.(check (list (pair string string)))
    "holder list strictly sorted" []
    (Node.invariant_violations node)

(* ------------- replication survives killing the owner -------------- *)

let test_store_survives_owner_kill () =
  let n = 16 and seed = 5 and token = 3 and holder = 1 in
  let h = make_harness ~n ~seed ~period:32 in
  let members = Array.init n (fun i -> i) in
  let ring = Node.converged ~ids:h.ids members in
  for v = 0 to n - 1 do
    ignore (boot h v (ring v))
  done;
  let owner = Node.ideal_owner ~seed ~members (Id.of_key ~seed token) in
  let querier = if owner = 0 then n - 1 else 0 in
  let copies_before = ref 0 in
  let found = ref None in
  Sim.at h.sim 50 (fun () -> Node.advertise (node_exn h holder) ~token);
  Sim.at h.sim 1_000 (fun () ->
      (* the owner fanned the record out to its replica set *)
      for v = 0 to n - 1 do
        if List.mem holder (Node.providers (node_exn h v) ~token) then
          incr copies_before
      done;
      (* kill the owner; stabilisation must route ownership to a
         successor that already holds the replica *)
      h.up.(owner) <- false);
  Sim.at h.sim 2_500 (fun () ->
      Node.find_providers (node_exn h querier) ~token (fun holders ->
          found := Some holders));
  ignore (Sim.run ~limit:6_000 h.sim);
  Alcotest.(check bool)
    (Printf.sprintf "record replicated before the kill (%d copies)"
       !copies_before)
    true (!copies_before >= 2);
  Alcotest.(check bool)
    "suspected owner was evicted from successor lists" true
    (h.stats.Node.evictions > 0);
  (match !found with
  | None -> Alcotest.fail "find_providers never answered after the kill"
  | Some holders ->
    Alcotest.(check bool)
      "provider record survives the owner's death" true
      (List.mem holder holders));
  Alcotest.(check bool)
    "the dead owner itself was never asked" true
    (not h.up.(owner))

(* ------------------ ring merge after a partition ------------------- *)

(* The acceptance scenario for the heal-merge machinery: split a
   converged ring in two, let each side evict the other and close its
   own ring, then heal and require every successor pointer to be back
   on the ideal ring within a bounded number of stabilise periods —
   and a provider record advertised before the split to be findable
   from across the old cut afterwards. *)
let test_partition_heal () =
  let n = 24 and seed = 42 and token = 3 and holder = 1 in
  let h = make_harness ~n ~seed ~period:32 in
  let members = Array.init n (fun i -> i) in
  let ring = Node.converged ~ids:h.ids members in
  for v = 0 to n - 1 do
    ignore (boot h v (ring v))
  done;
  (* vertex halves, which Id.of_vertex scatters around the ring: the
     cut severs most ideal successor links, so the merge has real work *)
  let side v = if v < n / 2 then 0 else 1 in
  let split = 1_000 and heal = 6_000 in
  let stabilise_bound = 30 (* periods allowed for reconciliation *) in
  let merged_by = heal + (stabilise_bound * h.cfg.Node.period) in
  Sim.at h.sim 50 (fun () -> Node.advertise (node_exn h holder) ~token);
  Sim.at h.sim split (fun () -> h.cut := fun u v -> side u <> side v);
  (* just before the heal: each side must have closed a consistent
     ring over its own survivors *)
  Sim.at h.sim (heal - 1) (fun () ->
      for v = 0 to n - 1 do
        let own = Array.of_list (List.filter (fun u -> side u = side v) (Array.to_list members)) in
        Alcotest.(check int)
          (Printf.sprintf "node %d closed its side's ring during the split" v)
          (ideal_succ ~seed ~members:own v)
          (Node.succ0 (node_exn h v))
      done);
  Sim.at h.sim heal (fun () -> h.cut := fun _ _ -> false);
  let found = ref None in
  Sim.at h.sim merged_by (fun () ->
      (* every successor pointer is back on the ideal ring within the
         stabilise bound *)
      for v = 0 to n - 1 do
        Alcotest.(check int)
          (Printf.sprintf "node %d rejoined the ideal ring within %d periods"
             v stabilise_bound)
          (ideal_succ ~seed ~members v)
          (Node.succ0 (node_exn h v));
        Alcotest.(check (list string))
          (Printf.sprintf "node %d holds no post-heal ring violations" v)
          []
          (List.map fst (Node.invariant_violations (node_exn h v)))
      done;
      (* the pre-split record is findable from across the old cut *)
      let querier =
        if side holder = 0 then n - 1 (* opposite side of the holder *)
        else 0
      in
      Node.find_providers (node_exn h querier) ~token (fun holders ->
          found := Some holders));
  ignore (Sim.run ~limit:(merged_by + 3_000) h.sim);
  Alcotest.(check bool)
    "the split actually tore the ring (evictions fired)" true
    (h.stats.Node.evictions > 0);
  match !found with
  | None -> Alcotest.fail "find_providers never answered after the heal"
  | Some holders ->
    Alcotest.(check bool)
      "pre-split provider record survives the partition" true
      (List.mem holder holders)

(* ---------------------- concurrent join waves ---------------------- *)

(* The sequential-join test spaces joins 300 ticks apart so each one
   lands on a quiet ring.  Here joins arrive in waves of four per
   stabilise period, all through the same bootstrap node, so join
   lookups race each other and the ring reshapes under them — the
   retry path (a joining node re-runs its join every period until it
   lands) must still deliver every node onto the ideal ring. *)
let test_concurrent_joins () =
  let n = 16 and seed = 9 in
  let h = make_harness ~n ~seed ~period:32 in
  ignore
    (boot h 0 (Node.converged ~ids:h.ids [| 0 |] 0));
  for v = 1 to n - 1 do
    let at = 100 + (((v - 1) / 4) * h.cfg.Node.period) + ((v - 1) mod 4) in
    Sim.at h.sim at (fun () -> ignore (boot h v (Node.Join { via = [ 0 ] })))
  done;
  ignore (Sim.run ~limit:20_000 h.sim);
  Alcotest.(check int) "every concurrent join completed" (n - 1)
    h.stats.Node.joins;
  let members = Array.init n (fun i -> i) in
  for v = 0 to n - 1 do
    let node = node_exn h v in
    Alcotest.(check bool)
      (Printf.sprintf "node %d ready after the join storm" v)
      true (Node.ready node);
    Alcotest.(check int)
      (Printf.sprintf "node %d successor matches the ideal ring" v)
      (ideal_succ ~seed ~members v)
      (Node.succ0 node)
  done

(* --------------------- dht-rarest end to end ----------------------- *)

let small_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let test_dht_rarest_validates () =
  let inst = small_instance ~seed:3 ~n:16 ~tokens:8 in
  let stats = Node.fresh_stats () in
  let r =
    Ocd_async.Runtime.run
      ~protocol:(Ocd_dht.Dht_rarest.protocol ~stats ())
      ~seed:9 inst
  in
  Alcotest.(check bool)
    "fault-free dht-rarest completes" true
    (r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Completed);
  Alcotest.(check bool)
    "schedule passes Validate.check_successful" true
    (Result.is_ok
       (Validate.check_successful inst r.Ocd_async.Runtime.schedule));
  Alcotest.(check bool)
    "providers were discovered through the DHT" true
    (stats.Node.lookups > 0 && stats.Node.stores > 0);
  Alcotest.(check int) "no lookup failures without faults" 0
    stats.Node.failures;
  Alcotest.(check int) "no evictions without faults" 0 stats.Node.evictions

let test_dht_rarest_determinism () =
  let inst = small_instance ~seed:3 ~n:16 ~tokens:8 in
  let go () =
    let r =
      Ocd_async.Runtime.run
        ~protocol:(Ocd_dht.Dht_rarest.protocol ())
        ~seed:9 inst
    in
    ( r.Ocd_async.Runtime.rounds,
      r.Ocd_async.Runtime.completion_ticks,
      r.Ocd_async.Runtime.data_messages,
      r.Ocd_async.Runtime.control_messages,
      Schedule.move_count r.Ocd_async.Runtime.schedule )
  in
  Alcotest.(check bool) "identical runs from identical seeds" true (go () = go ())

let test_dht_rarest_crash_repair () =
  (* the chaos acceptance cell: loss plus crashes with protected
     sources — dht-rarest must complete, its schedule must validate,
     and the successor-repair machinery must actually fire *)
  let seed = 31 in
  let inst = small_instance ~seed ~n:24 ~tokens:10 in
  let sources =
    List.filter
      (fun v -> not (Bitset.is_empty inst.Instance.have.(v)))
      (Order.range 24)
  in
  let faults =
    Ocd_dynamics.Faults.crashes ~seed:(seed + 17) ~protected:sources
      ~crash_prob:0.05 ()
  in
  let profile = { Ocd_async.Net.default with Ocd_async.Net.loss = 0.05 } in
  let stats = Node.fresh_stats () in
  let r =
    Ocd_async.Runtime.run ~profile ~faults
      ~protocol:(Ocd_dht.Dht_rarest.protocol ~stats ())
      ~seed:(seed + 1) inst
  in
  Alcotest.(check bool)
    "dht-rarest completes under loss + crashes" true
    (r.Ocd_async.Runtime.outcome = Ocd_async.Runtime.Completed);
  Alcotest.(check bool)
    "crash schedule still validates" true
    (Result.is_ok
       (Validate.check_successful inst r.Ocd_async.Runtime.schedule));
  Alcotest.(check bool) "crashes were exercised" true
    (r.Ocd_async.Runtime.crashes > 0);
  Alcotest.(check bool)
    "successor repair fired (evictions or rejoins)" true
    (stats.Node.evictions > 0 || stats.Node.joins > 0)

(* ----------------------------- registry ---------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "dht registry extends the async vocabulary"
    [ "async-local"; "async-push"; "flood-plan"; "dht-rarest" ]
    Ocd_dht.Registry.names;
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " resolves to itself") name
        (Ocd_dht.Registry.find_exn name).Ocd_async.Protocol.name)
    Ocd_dht.Registry.names;
  Alcotest.check_raises "unknown name lists all four protocols"
    (Invalid_argument
       "unknown protocol \"nope\" (available: async-local, async-push, \
        flood-plan, dht-rarest)") (fun () ->
      ignore (Ocd_dht.Registry.find_exn "nope"))

(* Digest of every [Fingerprint] scenario under dht-rarest, recorded
   before the DHT's id cache and contact fast path: the ring must do
   exactly the same work, message for message. *)
let dht_fingerprints =
  [
    ("calm", "2ee1f9fed80b011562805209c6dd19a0");
    ("lossy", "59266285972098ab5d0570bdad42b016");
    ("flapping", "b983befec4813ed422a48bad06f1bdb6");
    ("crash+partition", "f8ea7bbff8c4d444e415ea12acc8b011");
    ("adversary", "9b85dd8fe830b3d64b040f52804dbe7e");
    ("churn", "1b8e42b714c687da5a961994a599a9fa");
  ]

let test_dht_fingerprints () =
  Fingerprint.check ~name:"dht-rarest" ~expected:dht_fingerprints (fun () ->
      Ocd_dht.Dht_rarest.protocol ())

let () =
  Alcotest.run "ocd_dht"
    [
      ( "id",
        [ Alcotest.test_case "geometry" `Quick test_id_geometry;
          QCheck_alcotest.to_alcotest prop_interval_predicates ] );
      ( "ring",
        [
          Alcotest.test_case "sequential joins" `Quick test_sequential_joins;
          Alcotest.test_case "hop bound at 10^4" `Slow test_lookup_hop_bound;
          Alcotest.test_case "store survives owner kill" `Quick
            test_store_survives_owner_kill;
          Alcotest.test_case "partition heal" `Quick test_partition_heal;
          Alcotest.test_case "concurrent joins" `Quick test_concurrent_joins;
          Alcotest.test_case "holder store" `Quick test_holder_store;
        ] );
      ( "dht-rarest",
        [
          Alcotest.test_case "fault-free validates" `Quick
            test_dht_rarest_validates;
          Alcotest.test_case "determinism" `Quick test_dht_rarest_determinism;
          Alcotest.test_case "crash repair" `Quick test_dht_rarest_crash_repair;
          Alcotest.test_case "runtime digests" `Quick test_dht_fingerprints;
        ] );
      ("registry", [ Alcotest.test_case "names" `Quick test_registry ]);
    ]
