(* Tests for ocd_async: the discrete-event simulator, the transport,
   the protocols, and the lockstep differential guarantee against the
   synchronous engine. *)

open Ocd_prelude
open Ocd_core
open Ocd_async

(* ---------------------------- Sim --------------------------------- *)

let test_sim_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  Sim.at sim 5 (record "a5");
  Sim.at sim 2 (record "b2");
  Sim.at sim 5 (record "c5");
  Sim.at sim 0 (record "d0");
  (match Sim.run sim with
  | Sim.Drained -> ()
  | Sim.Horizon_reached -> Alcotest.fail "no limit given, queue must drain");
  Alcotest.(check (list string))
    "time order, FIFO ties" [ "d0"; "b2"; "a5"; "c5" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 5 (Sim.now sim);
  Alcotest.(check int) "events counted" 4 (Sim.events_processed sim)

let test_sim_same_tick_chain () =
  (* An event scheduling another event for the current tick runs it in
     the same tick, after everything already queued. *)
  let sim = Sim.create () in
  let log = ref [] in
  Sim.at sim 3 (fun () ->
      log := "first" :: !log;
      Sim.after sim 0 (fun () -> log := "chained" :: !log));
  Sim.at sim 3 (fun () -> log := "second" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string))
    "chained event last" [ "first"; "second"; "chained" ] (List.rev !log)

let test_sim_limit () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.at sim 10 (fun () -> incr ran);
  Sim.at sim 20 (fun () -> incr ran);
  (match Sim.run ~limit:15 sim with
  | Sim.Horizon_reached -> ()
  | Sim.Drained -> Alcotest.fail "discarded event must report Horizon_reached");
  Alcotest.(check int) "past-horizon event discarded" 1 !ran;
  let sim2 = Sim.create () in
  Sim.at sim2 10 (fun () -> ());
  match Sim.run ~limit:15 sim2 with
  | Sim.Drained -> ()
  | Sim.Horizon_reached -> Alcotest.fail "nothing discarded, must report Drained"

(* The simulator's former queue, a single binary heap ordered by
   (tick, push order), kept here as the oracle the calendar queue must
   match event for event. *)
module Heap_sim = struct
  type t = {
    queue : (unit -> unit) Pqueue.t;
    mutable clock : int;
    mutable processed : int;
    obs : Ocd_obs.t;
    depth : Ocd_obs.Metrics.histogram;
  }

  let create ?(obs = Ocd_obs.disabled) () =
    {
      queue = Pqueue.create ();
      clock = 0;
      processed = 0;
      obs;
      depth =
        Ocd_obs.Metrics.histogram obs.Ocd_obs.metrics "sim/queue_depth"
          ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.;
                      1024.; 2048.; 4096. |];
    }

  let now sim = sim.clock

  let at sim tick f =
    Pqueue.push sim.queue ~priority:(max tick sim.clock) f

  let after sim d f = at sim (sim.clock + max 0 d) f
  let events_processed sim = sim.processed

  let run ?(limit = max_int) sim =
    let start_processed = sim.processed in
    let discarded = ref false in
    let rec loop () =
      match Pqueue.pop sim.queue with
      | None -> ()
      | Some (tick, f) ->
          if tick <= limit then begin
            sim.clock <- tick;
            sim.processed <- sim.processed + 1;
            if sim.obs.Ocd_obs.on then
              Ocd_obs.Metrics.observe_int sim.depth (Pqueue.length sim.queue);
            f ()
          end
          else discarded := true;
          loop ()
    in
    loop ();
    if sim.obs.Ocd_obs.on then begin
      let reg = sim.obs.Ocd_obs.metrics in
      Ocd_obs.Metrics.add reg "sim/events_processed"
        (sim.processed - start_processed);
      Ocd_obs.Metrics.set_int
        (Ocd_obs.Metrics.gauge reg "sim/horizon_hit")
        (if !discarded then 1 else 0)
    end;
    if !discarded then Sim.Horizon_reached else Sim.Drained
end

module type SIM = sig
  type t

  val create : ?obs:Ocd_obs.t -> unit -> t
  val now : t -> int
  val at : t -> int -> (unit -> unit) -> unit
  val after : t -> int -> (unit -> unit) -> unit
  val events_processed : t -> int
  val run : ?limit:int -> t -> Sim.stop
end

(* One seeded random script: events that log (id, now) and schedule
   more events — same-tick chains, clamped past ticks and negative
   delays, near-future ticks, ticks on both sides of the calendar
   ring's 1024-tick edge and far beyond it — then a horizon-cut drain,
   a second round of outside scheduling, and an unbounded drain.  Every
   draw comes from one stream consumed in execution order, so two
   simulators that agree on the order make the same choices. *)
let sim_script (module S : SIM) ~seed =
  let obs = Ocd_obs.create () in
  let sim = S.create ~obs () in
  let rng = Prng.create ~seed in
  let log = ref [] and next_id = ref 0 and budget = ref 0 in
  let rec schedule () =
    if !budget > 0 then begin
      decr budget;
      let id = !next_id in
      incr next_id;
      let ev () =
        log := (id, S.now sim) :: !log;
        for _ = 1 to Prng.int rng 3 do
          schedule ()
        done
      in
      let now = S.now sim in
      match Prng.int rng 8 with
      | 0 -> S.after sim 0 ev
      | 1 -> S.at sim (now + Prng.int rng 3) ev
      | 2 -> S.at sim (now - 1 - Prng.int rng 50) ev
      | 3 -> S.after sim (-Prng.int rng 5) ev
      | 4 -> S.after sim (1 + Prng.int rng 64) ev
      | 5 -> S.at sim (now + 1020 + Prng.int rng 8) ev
      | 6 -> S.after sim (1024 + Prng.int rng 4000) ev
      | _ ->
          (* a same-tick burst past the ring: FIFO through the overflow *)
          let tick = now + 1500 + Prng.int rng 600 in
          S.at sim tick ev;
          for _ = 1 to Prng.int rng 6 do
            if !budget > 0 then begin
              decr budget;
              let id = !next_id in
              incr next_id;
              S.at sim tick (fun () -> log := (id, S.now sim) :: !log)
            end
          done
    end
  in
  let outside k =
    budget := !budget + k;
    for _ = 1 to k do
      schedule ()
    done
  in
  let snapshot stop = (stop, S.now sim, S.events_processed sim) in
  outside 40;
  budget := !budget + 400;
  let first = S.run ~limit:(500 + Prng.int rng 4000) sim |> snapshot in
  (* the horizon drain may have carried the queue's window past the
     clock: schedule again, at, before and just after [now] *)
  outside 30;
  budget := !budget + 300;
  let second = S.run sim |> snapshot in
  outside 5;
  let third = S.run ~limit:(S.now sim + 2000) sim |> snapshot in
  (List.rev !log, [ first; second; third ], Ocd_obs.Metrics.render obs.Ocd_obs.metrics)

let test_sim_matches_heap_oracle () =
  for seed = 1 to 60 do
    let log, stops, metrics = sim_script (module Sim) ~seed in
    let log', stops', metrics' = sim_script (module Heap_sim) ~seed in
    let ctx = Printf.sprintf "seed %d: " seed in
    Alcotest.(check (list (pair int int))) (ctx ^ "execution order") log' log;
    List.iter2
      (fun (stop, now, n) (stop', now', n') ->
        Alcotest.(check bool) (ctx ^ "stop") true (stop = stop');
        Alcotest.(check int) (ctx ^ "now") now' now;
        Alcotest.(check int) (ctx ^ "events processed") n' n)
      stops stops';
    Alcotest.(check string) (ctx ^ "sim/* metrics render") metrics' metrics
  done;
  (* the scripts must reach the cases they exist for *)
  let log, stops, metrics = sim_script (module Sim) ~seed:1 in
  Alcotest.(check bool) "events ran" true (List.length log > 100);
  Alcotest.(check bool) "a horizon cut something" true
    (List.exists (fun (stop, _, _) -> stop = Sim.Horizon_reached) stops);
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "queue depth rendered" true
    (contains metrics "sim/queue_depth")

(* ------------------------- instances ------------------------------ *)

let random_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let transit_stub_instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph =
    Ocd_topology.Transit_stub.generate rng
      (Ocd_topology.Transit_stub.params_for_size n)
  in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let line_instance () =
  let graph =
    Ocd_graph.Digraph.of_edges ~vertex_count:3 [ (0, 1, 2); (1, 2, 2) ]
  in
  Instance.make ~graph ~token_count:4
    ~have:[ (0, [ 0; 1; 2; 3 ]) ]
    ~want:[ (1, [ 0; 1; 2; 3 ]); (2, [ 0; 1; 2; 3 ]) ]

(* -------------------- lockstep differential ----------------------- *)

let canonical_steps schedule =
  List.map (List.sort compare) (Schedule.steps schedule)

(* An async protocol under lockstep against its synchronous twin
   strategy, both at run seed [seed]. *)
let check_lockstep_twin ~label ~protocol ~strategy inst ~seed =
  let async_run = Runtime.run ~profile:Net.lockstep ~protocol ~seed inst in
  let sync_run = Ocd_engine.Engine.run ~strategy ~seed inst in
  Alcotest.(check bool)
    (label ^ ": async completed") true
    (async_run.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool)
    (label ^ ": sync completed") true
    (sync_run.Ocd_engine.Engine.outcome = Ocd_engine.Engine.Completed);
  Alcotest.(check int)
    (label ^ ": makespan matches")
    sync_run.Ocd_engine.Engine.metrics.Metrics.makespan
    async_run.Runtime.metrics.Metrics.makespan;
  Alcotest.(check int)
    (label ^ ": fresh deliveries match")
    sync_run.Ocd_engine.Engine.fresh_deliveries
    async_run.Runtime.fresh_deliveries;
  Alcotest.(check bool)
    (label ^ ": schedules identical as step-sets") true
    (canonical_steps sync_run.Ocd_engine.Engine.schedule
    = canonical_steps async_run.Runtime.schedule);
  Alcotest.(check bool)
    (label ^ ": async schedule revalidates") true
    (Validate.check_successful inst async_run.Runtime.schedule = Ok ());
  Alcotest.(check int)
    (label ^ ": no retransmissions") 0 async_run.Runtime.retransmissions;
  Alcotest.(check int)
    (label ^ ": no duplicates") 0 async_run.Runtime.duplicate_deliveries

let check_lockstep_matches_engine ~label inst ~seed =
  check_lockstep_twin ~label ~protocol:(Local_rarest.protocol ())
    ~strategy:(Local_rarest.sync_strategy ~seed) inst ~seed

let test_lockstep_random () =
  check_lockstep_matches_engine ~label:"random"
    (random_instance ~seed:31 ~n:20 ~tokens:10)
    ~seed:7

let test_lockstep_transit_stub () =
  check_lockstep_matches_engine ~label:"transit-stub"
    (transit_stub_instance ~seed:32 ~n:24 ~tokens:8)
    ~seed:8

let test_lockstep_many_seeds () =
  List.iter
    (fun seed ->
      check_lockstep_matches_engine
        ~label:(Printf.sprintf "seed-%d" seed)
        (random_instance ~seed:(100 + seed) ~n:12 ~tokens:6)
        ~seed)
    [ 1; 2; 3; 4; 5 ]

(* flood-plan's twin replays the same global-greedy plan after the same
   knowledge delay that the async nodes wait out. *)
let test_lockstep_flood_twin () =
  List.iter
    (fun (label, inst, seed) ->
      check_lockstep_twin ~label ~protocol:(Flood_plan.protocol ())
        ~strategy:(Flood_plan.sync_strategy ~seed) inst ~seed)
    [
      ("random n=12", random_instance ~seed:41 ~n:12 ~tokens:1, 1);
      ("random n=16", random_instance ~seed:42 ~n:16 ~tokens:8, 2);
      ("random n=20", random_instance ~seed:43 ~n:20 ~tokens:6, 3);
      ("random n=30", random_instance ~seed:44 ~n:30 ~tokens:4, 4);
      ("random n=40", random_instance ~seed:45 ~n:40 ~tokens:10, 5);
      ("random n=60", random_instance ~seed:46 ~n:60 ~tokens:16, 6);
      ("transit-stub n=24", transit_stub_instance ~seed:47 ~n:24 ~tokens:8, 7);
      ("transit-stub n=60", transit_stub_instance ~seed:48 ~n:60 ~tokens:12, 8);
    ]

(* ------------------ pull core vs its former copies ----------------- *)

module Digraph = Ocd_graph.Digraph
module View = Digraph.View

(* The rarest-first round as [Local_rarest.requests] wrote it before
   the pull core existed, verbatim: the oracle for async-local (belief
   rarity) and its lockstep twin (true possession). *)
let oracle_local_requests ~rng ~token_count ~have ~eligible ~alive ~preds
    ~known =
  let missing = Bitset.diff (Bitset.full token_count) have in
  if Bitset.is_empty missing then []
  else begin
    let tokens = Array.of_list (Bitset.elements missing) in
    Prng.shuffle rng tokens;
    let rarity token =
      let count = ref 0 in
      View.iteri
        (fun i u _ ->
          match known i with
          | Some s when alive u && Bitset.mem s token -> incr count
          | _ -> ())
        preds;
      !count
    in
    let ranked = Order.sort_by rarity (Array.to_list tokens) in
    let budget = View.caps preds in
    let picks = ref [] in
    List.iter
      (fun token ->
        if eligible token then begin
          let candidates = ref [] in
          View.iteri
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
              let src = View.dst preds i in
              picks := (src, token) :: !picks
        end)
      ranked;
    List.rev !picks
  end

(* dht-rarest's decide loop as it was written inline, with the request
   send replaced by recording the pick. *)
let oracle_dht_requests ~rng ~token_count ~have ~eligible ~alive ~preds
    ~prov_holders ~belief =
  let picks = ref [] in
  let missing = Bitset.diff (Bitset.full token_count) have in
  if not (Bitset.is_empty missing) then begin
    let toks = Array.of_list (Bitset.elements missing) in
    Prng.shuffle rng toks;
    let rarity token =
      match Hashtbl.find_opt prov_holders token with
      | Some l -> List.length l
      | None -> max_int
    in
    let ranked = Order.sort_by rarity (Array.to_list toks) in
    let budget = View.caps preds in
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
          View.iteri
            (fun i u _ ->
              if budget.(i) > 0 && alive u && has i u then
                candidates := i :: !candidates)
            preds;
          match !candidates with
          | [] -> ()
          | cs ->
              let i = Prng.pick_list rng cs in
              budget.(i) <- budget.(i) - 1;
              picks := (View.dst preds i, token) :: !picks
        end)
      ranked
  end;
  List.rev !picks

(* One node's round-start view: vertex 0 decides over its in-arcs. *)
type pull_view = {
  pv_tokens : int;
  pv_preds : View.t;
  pv_have : Bitset.t;
  pv_possession : Bitset.t array;  (** true sets, by vertex *)
  pv_belief : Bitset.t option array;  (** by slot in [pv_preds] *)
  pv_providers : (int, int list) Hashtbl.t;
  pv_alive : bool array;
  pv_eligible : bool array;
}

let random_pull_view rng =
  let n = 1 + Prng.int rng 10 in
  let tokens = 1 + Prng.int rng 12 in
  let arcs =
    List.filter_map
      (fun u ->
        if Prng.bernoulli rng 0.7 then
          Some
            {
              Digraph.src = u;
              dst = 0;
              capacity = 1 + Prng.int rng 3;
            }
        else None)
      (List.init (n - 1) (fun u -> u + 1))
  in
  let preds = Digraph.pred (Digraph.of_arcs ~vertex_count:n arcs) 0 in
  let subset density =
    Bitset.of_list tokens
      (List.filter (fun _ -> Prng.bernoulli rng density) (Order.range tokens))
  in
  let providers = Hashtbl.create 8 in
  List.iter
    (fun token ->
      if Prng.bernoulli rng 0.7 then
        Hashtbl.replace providers token
          (List.filter (fun _ -> Prng.bernoulli rng 0.4) (Order.range n)))
    (Order.range tokens);
  {
    pv_tokens = tokens;
    pv_preds = preds;
    pv_have = subset (Prng.float rng 1.0);
    pv_possession = Array.init n (fun _ -> subset (Prng.float rng 1.0));
    pv_belief =
      Array.init (View.length preds) (fun _ ->
          if Prng.bernoulli rng 0.2 then None
          else Some (subset (Prng.float rng 1.0)));
    pv_providers = providers;
    pv_alive = Array.init n (fun _ -> Prng.bernoulli rng 0.8);
    pv_eligible = Array.init tokens (fun _ -> Prng.bernoulli rng 0.8);
  }

let test_pull_matches_former_copies () =
  let gen = Prng.create ~seed:19 in
  for trial = 1 to 400 do
    let v = random_pull_view gen in
    let seed = Prng.int gen 1_000_000 in
    let preds = v.pv_preds in
    let eligible token = v.pv_eligible.(token) in
    (* Each side runs from a fresh copy of the same stream and logs its
       [alive] probes: picks, the next draw and the probe sequence must
       all agree. *)
    let run ~alive_of decide =
      let probes = ref [] in
      let alive u =
        probes := u :: !probes;
        alive_of u
      in
      let rng = Prng.create ~seed in
      let picks = decide ~rng ~alive in
      (picks, Prng.int rng 1_000_000_000, List.rev !probes)
    in
    let check label ~alive_of ~oracle ~pull =
      let p0, d0, a0 = run ~alive_of oracle and p1, d1, a1 = run ~alive_of pull in
      let label = Printf.sprintf "trial %d %s" trial label in
      Alcotest.(check (list (pair int int))) (label ^ ": picks") p0 p1;
      Alcotest.(check int) (label ^ ": next draw") d0 d1;
      Alcotest.(check (list int)) (label ^ ": alive probes") a0 a1
    in
    let belief_pull ~known ~rng ~alive =
      let rarity token =
        let count = ref 0 in
        View.iteri
          (fun i u _ ->
            match known i with
            | Some s when alive u && Bitset.mem s token -> incr count
            | _ -> ())
          preds;
        !count
      in
      let holds token i =
        match known i with Some s -> Bitset.mem s token | None -> false
      in
      Pull.requests ~rng ~token_count:v.pv_tokens ~have:v.pv_have ~eligible
        ~alive ~preds ~rarity ~holds
    in
    let belief_oracle ~known ~rng ~alive =
      oracle_local_requests ~rng ~token_count:v.pv_tokens ~have:v.pv_have
        ~eligible ~alive ~preds ~known
    in
    let believed i = v.pv_belief.(i) in
    check "async-local" ~alive_of:(fun u -> v.pv_alive.(u))
      ~oracle:(belief_oracle ~known:believed) ~pull:(belief_pull ~known:believed);
    let truth i = Some v.pv_possession.(View.dst preds i) in
    check "lockstep twin" ~alive_of:(fun _ -> true)
      ~oracle:(belief_oracle ~known:truth) ~pull:(belief_pull ~known:truth);
    let prov token = Hashtbl.find_opt v.pv_providers token in
    check "dht-rarest" ~alive_of:(fun u -> v.pv_alive.(u))
      ~oracle:(fun ~rng ~alive ->
        oracle_dht_requests ~rng ~token_count:v.pv_tokens ~have:v.pv_have
          ~eligible ~alive ~preds ~prov_holders:v.pv_providers
          ~belief:v.pv_belief)
      ~pull:(fun ~rng ~alive ->
        let rarity token =
          match prov token with Some l -> List.length l | None -> max_int
        in
        let holds token =
          let holders = Option.value (prov token) ~default:[] in
          fun i ->
            List.mem (View.dst preds i) holders
            || match v.pv_belief.(i) with
               | Some s -> Bitset.mem s token
               | None -> false
        in
        Pull.requests ~rng ~token_count:v.pv_tokens ~have:v.pv_have ~eligible
          ~alive ~preds ~rarity ~holds)
  done

(* async-local's memoised rarity against the per-token re-scan, on the
   same 400 views: [Local_rarest.requests] counts rarity once per
   round, so it drops the oracle's repeat [alive] probes, but the
   picks, the next draw and the order in which each peer is first
   probed must agree.  A detector answers a repeat probe at one tick
   as it answered the first and fires no second suspicion, so those
   first probes are the ones that can record anything.  One [counts]
   array serves both of a view's rounds, as one node's does round
   after round. *)
let test_memoised_rarity_matches_oracle () =
  let gen = Prng.create ~seed:19 in
  let first_probes probes =
    List.rev
      (List.fold_left
         (fun seen u -> if List.mem u seen then seen else u :: seen)
         [] probes)
  in
  for trial = 1 to 400 do
    let v = random_pull_view gen in
    let seed = Prng.int gen 1_000_000 in
    let preds = v.pv_preds in
    let eligible token = v.pv_eligible.(token) in
    let counts = Array.make v.pv_tokens 0 in
    let run ~alive_of decide =
      let probes = ref [] in
      let alive u =
        probes := u :: !probes;
        alive_of u
      in
      let rng = Prng.create ~seed in
      let picks = decide ~rng ~alive in
      (picks, Prng.int rng 1_000_000_000, first_probes (List.rev !probes))
    in
    let check label ~alive_of ~known =
      let p0, d0, a0 =
        run ~alive_of (fun ~rng ~alive ->
            oracle_local_requests ~rng ~token_count:v.pv_tokens
              ~have:v.pv_have ~eligible ~alive ~preds ~known)
      and p1, d1, a1 =
        run ~alive_of (fun ~rng ~alive ->
            Local_rarest.requests ~counts ~rng ~token_count:v.pv_tokens
              ~have:v.pv_have ~eligible ~alive ~preds ~known)
      in
      let label = Printf.sprintf "trial %d %s" trial label in
      Alcotest.(check (list (pair int int))) (label ^ ": picks") p0 p1;
      Alcotest.(check int) (label ^ ": next draw") d0 d1;
      Alcotest.(check (list int)) (label ^ ": first alive probes") a0 a1
    in
    check "async-local" ~alive_of:(fun u -> v.pv_alive.(u))
      ~known:(fun i -> v.pv_belief.(i));
    check "lockstep twin" ~alive_of:(fun _ -> true)
      ~known:(fun i -> Some v.pv_possession.(View.dst preds i))
  done

(* ------------------------ determinism ----------------------------- *)

let test_same_seed_same_run () =
  let inst = random_instance ~seed:41 ~n:16 ~tokens:8 in
  let go () = Runtime.run ~protocol:(Local_rarest.protocol ()) ~seed:5 inst in
  let a = go () and b = go () in
  Alcotest.(check bool)
    "identical schedules" true
    (Schedule.steps a.Runtime.schedule = Schedule.steps b.Runtime.schedule);
  Alcotest.(check (option int))
    "identical completion ticks" a.Runtime.completion_ticks
    b.Runtime.completion_ticks;
  Alcotest.(check int)
    "identical control traffic" a.Runtime.control_messages
    b.Runtime.control_messages;
  Alcotest.(check int) "identical events" a.Runtime.events b.Runtime.events

let test_different_seed_differs () =
  let inst = random_instance ~seed:41 ~n:16 ~tokens:8 in
  let run seed = Runtime.run ~protocol:(Local_rarest.protocol ()) ~seed inst in
  let a = run 5 and b = run 6 in
  (* Schedules are overwhelmingly unlikely to coincide move for move. *)
  Alcotest.(check bool)
    "different seeds explore different schedules" false
    (Schedule.steps a.Runtime.schedule = Schedule.steps b.Runtime.schedule)

(* --------------------- loss, retry, recovery ---------------------- *)

let test_loss_recovery () =
  let inst = random_instance ~seed:51 ~n:14 ~tokens:8 in
  let profile = { Net.default with Net.loss = 0.25 } in
  let r = Runtime.run ~profile ~protocol:(Local_rarest.protocol ()) ~seed:9 inst in
  Alcotest.(check bool)
    "completes despite 25% loss" true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool) "messages were dropped" true (r.Runtime.dropped_messages > 0);
  Alcotest.(check bool)
    "retries were needed" true
    (r.Runtime.retransmissions > 0);
  Alcotest.(check bool) "goodput within (0,1]" true
    (r.Runtime.goodput > 0.0 && r.Runtime.goodput <= 1.0)

let test_push_completes_and_acks () =
  let inst = random_instance ~seed:52 ~n:14 ~tokens:8 in
  let r = Runtime.run ~protocol:(Random_push.protocol ()) ~seed:10 inst in
  Alcotest.(check bool)
    "push completes" true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool)
    "push is redundant (duplicates measured)" true
    (r.Runtime.duplicate_deliveries >= 0
    && r.Runtime.goodput > 0.0 && r.Runtime.goodput <= 1.0);
  (* every data arrival is acked, so control >= data deliveries *)
  Alcotest.(check bool)
    "acks present" true
    (r.Runtime.control_messages > r.Runtime.fresh_deliveries)

let test_flood_plan_completes () =
  let inst = random_instance ~seed:53 ~n:14 ~tokens:8 in
  let r = Runtime.run ~protocol:(Flood_plan.protocol ()) ~seed:11 inst in
  Alcotest.(check bool)
    "flood-plan completes" true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool)
    "knowledge flood costs control messages" true
    (r.Runtime.control_messages > 0);
  Alcotest.(check bool)
    "plan is lean (goodput near 1)" true (r.Runtime.goodput > 0.8)

let test_condition_injection () =
  let inst = line_instance () in
  let condition =
    Ocd_dynamics.Condition.link_flaps ~seed:3 ~down_prob:0.3 ~up_prob:0.5
  in
  let r =
    Runtime.run ~condition ~protocol:(Local_rarest.protocol ()) ~seed:12 inst
  in
  Alcotest.(check bool)
    "completes under link flaps" true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool)
    "flaps dropped messages" true
    (r.Runtime.dropped_messages > 0)

let test_churn_protected_sources () =
  let inst = random_instance ~seed:54 ~n:14 ~tokens:6 in
  let condition =
    Ocd_dynamics.Condition.churn ~seed:5 ~protected:[ 0 ] ~leave_prob:0.1
      ~return_prob:0.5
  in
  let r =
    Runtime.run ~condition ~protocol:(Local_rarest.protocol ()) ~seed:13 inst
  in
  Alcotest.(check bool)
    "completes under churn with protected source" true
    (r.Runtime.outcome = Runtime.Completed)

(* -------------------------- transport ----------------------------- *)

let test_arc_latency_scaling () =
  let p = Net.default in
  Alcotest.(check bool)
    "fat arcs are faster" true
    (Net.arc_latency p ~capacity:15 < Net.arc_latency p ~capacity:3);
  Alcotest.(check int)
    "lockstep is zero-latency" 0
    (Net.arc_latency Net.lockstep ~capacity:1)

let test_trivial_instance () =
  let graph = Ocd_graph.Digraph.of_edges ~vertex_count:2 [ (0, 1, 1) ] in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ] ~want:[ (0, [ 0 ]) ]
  in
  let r = Runtime.run ~protocol:(Local_rarest.protocol ()) ~seed:1 inst in
  Alcotest.(check bool)
    "trivially satisfied completes at once" true
    (r.Runtime.outcome = Runtime.Completed
    && r.Runtime.completion_ticks = Some 0
    && r.Runtime.data_messages = 0)

let test_timeout_on_unsatisfiable () =
  (* Token 1's only holder is unreachable from vertex 2's side: no arc
     into 2 carries it.  The run must hit the horizon, not hang. *)
  let graph = Ocd_graph.Digraph.of_arcs ~vertex_count:3
      [ { Ocd_graph.Digraph.src = 0; dst = 1; capacity = 1 } ]
  in
  let inst =
    Instance.make ~graph ~token_count:1 ~have:[ (0, [ 0 ]) ]
      ~want:[ (1, [ 0 ]); (2, [ 0 ]) ]
  in
  let r =
    Runtime.run ~round_limit:20 ~protocol:(Local_rarest.protocol ()) ~seed:2
      inst
  in
  Alcotest.(check bool)
    "times out" true
    (r.Runtime.outcome = Runtime.Timed_out);
  Alcotest.(check int) "horizon respected" 20 r.Runtime.rounds

let test_jobs_determinism () =
  (* The CLI and experiments fan runs out with Pool.map; every run's
     digest (each counter and move) must match for every jobs value. *)
  let inst = random_instance ~seed:61 ~n:14 ~tokens:6 in
  let render jobs =
    Pool.map ~jobs
      (fun name ->
        let protocol = Option.get (Registry.find name) in
        Fingerprint.digest (Runtime.run ~protocol ~seed:3 inst))
      Registry.names
  in
  Alcotest.(check (list string)) "jobs=1 vs jobs=3" (render 1) (render 3)

(* ----------------------- failure detector ------------------------- *)

let test_detector_basics () =
  let clock = ref 0 in
  let d = Detector.create ~now:(fun () -> !clock) ~timeout:10 () in
  let suspects () = List.filter (Detector.suspected d) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "no suspects at creation" [] (suspects ());
  clock := 10;
  Alcotest.(check bool)
    "silence equal to timeout is tolerated" false
    (Detector.suspected d 1);
  clock := 11;
  Alcotest.(check (list int))
    "all suspected after silence" [ 0; 1; 2 ] (suspects ());
  Detector.heard d 1;
  Alcotest.(check (list int)) "contact clears" [ 0; 2 ] (suspects ());
  clock := 22;
  Alcotest.(check bool) "suspicion returns" true (Detector.suspected d 1)

let test_detector_rejects_bad_timeout () =
  Alcotest.check_raises "timeout must be positive"
    (Invalid_argument "Detector.create: timeout must be positive") (fun () ->
      ignore (Detector.create ~now:(fun () -> 0) ~timeout:0 ()))

(* Satellite edge cases: a heartbeat landing exactly on the timeout
   boundary, and a node that is suspected, restarts, and makes contact
   again within the same round. *)
let test_detector_boundary () =
  let clock = ref 0 in
  let d = Detector.create ~now:(fun () -> !clock) ~timeout:10 () in
  clock := 5;
  Detector.heard d 2;
  clock := 15;
  Alcotest.(check bool)
    "silence exactly equal to the timeout is tolerated" false
    (Detector.suspected d 2);
  clock := 16;
  Alcotest.(check bool)
    "one tick past the boundary suspects" true (Detector.suspected d 2)

let test_detector_restart_same_round () =
  let clock = ref 0 in
  let fired = ref [] in
  let d =
    Detector.create
      ~on_suspect:(fun u -> fired := u :: !fired)
      ~now:(fun () -> !clock)
      ~timeout:10 ()
  in
  clock := 11;
  Alcotest.(check bool) "suspected" true (Detector.suspected d 1);
  Alcotest.(check bool) "still suspected" true (Detector.suspected d 1);
  Alcotest.(check (list int)) "episode observed once" [ 1 ] !fired;
  (* the node restarts and its first message lands in the same round *)
  Detector.heard d 1;
  Alcotest.(check bool)
    "restart contact clears suspicion within the round" false
    (Detector.suspected d 1);
  clock := 22;
  Alcotest.(check bool)
    "fresh silence suspects again" true (Detector.suspected d 1);
  Alcotest.(check (list int)) "episode re-armed by the contact" [ 1; 1 ] !fired

let test_detector_watch () =
  let clock = ref 0 in
  let d = Detector.create ~now:(fun () -> !clock) ~timeout:10 () in
  clock := 25;
  Alcotest.(check bool)
    "birth-silent peer is suspected" true (Detector.suspected d 3);
  Detector.watch d 3;
  Alcotest.(check bool)
    "watch restarts the silence clock" false (Detector.suspected d 3);
  Detector.heard d 2;
  clock := 30;
  Detector.watch d 2;
  clock := 36;
  Alcotest.(check bool)
    "watched peer suspected after a full fresh timeout" true
    (Detector.suspected d 3);
  (* heard at 25 with timeout 10: suspected at 36 only if [watch] at 30
     left the real contact tick alone *)
  Alcotest.(check bool)
    "watch never overrides real contact" true (Detector.suspected d 2)

(* --------------------- liveness under loss ------------------------ *)

(* Satellite: the pull protocols must stay live under sustained loss
   with a static condition, across a seed sweep (not one lucky seed). *)
let check_loss_liveness ~label protocol_of_seed =
  List.iter
    (fun seed ->
      let inst = random_instance ~seed:(70 + seed) ~n:12 ~tokens:6 in
      let profile = { Net.default with Net.loss = 0.15 } in
      let r =
        Runtime.run ~profile ~condition:Ocd_dynamics.Condition.static
          ~protocol:(protocol_of_seed ()) ~seed inst
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d completes under 15%% loss" label seed)
        true
        (r.Runtime.outcome = Runtime.Completed);
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d revalidates" label seed)
        true
        (Validate.check_successful inst r.Runtime.schedule = Ok ()))
    [ 1; 2; 3; 4; 5 ]

let test_local_rarest_loss_liveness () =
  check_loss_liveness ~label:"async-local" Local_rarest.protocol

let test_flood_plan_loss_liveness () =
  check_loss_liveness ~label:"flood-plan" Flood_plan.protocol

(* ------------------------ crash recovery -------------------------- *)

(* A single unprotected non-source vertex crashes (losing its fetched
   tokens) and restarts; the run must still complete, and the emitted
   schedule must satisfy Validate — re-deliveries are real moves, and
   no token may be fabricated across the restart. *)
let check_crash_recovery ~label protocol_of_unit ~seed =
  let inst = random_instance ~seed:(80 + seed) ~n:12 ~tokens:6 in
  let victim =
    (* any vertex that holds nothing initially *)
    let rec find v =
      if Ocd_prelude.Bitset.is_empty inst.Instance.have.(v) then v
      else find (v + 1)
    in
    find 0
  in
  let protected =
    List.filter (fun v -> v <> victim) (List.init 12 (fun v -> v))
  in
  let faults =
    Ocd_dynamics.Faults.crashes ~seed:(90 + seed) ~protected
      ~crash_prob:0.25 ~recover_prob:0.7 ()
  in
  let r =
    Runtime.run ~faults ~protocol:(protocol_of_unit ()) ~seed inst
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: victim crashed at least once" label)
    true (r.Runtime.crashes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: completes despite crash of a non-source holder" label)
    true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool)
    (Printf.sprintf "%s: crash-recovery schedule revalidates" label)
    true
    (Validate.check_successful inst r.Runtime.schedule = Ok ())

let test_local_rarest_crash_recovery () =
  check_crash_recovery ~label:"async-local" Local_rarest.protocol ~seed:3

let test_push_crash_recovery () =
  check_crash_recovery ~label:"async-push" Random_push.protocol ~seed:3

let test_flood_plan_crash_recovery () =
  check_crash_recovery ~label:"flood-plan" Flood_plan.protocol ~seed:3

let test_durable_crash_loses_nothing () =
  let inst = random_instance ~seed:83 ~n:12 ~tokens:6 in
  let faults =
    Ocd_dynamics.Faults.crashes ~seed:91 ~durability:Ocd_dynamics.Faults.Durable
      ~crash_prob:0.15 ()
  in
  let r =
    Runtime.run ~faults ~protocol:(Local_rarest.protocol ()) ~seed:4 inst
  in
  Alcotest.(check bool) "crashes happened" true (r.Runtime.crashes > 0);
  Alcotest.(check int) "durable crashes lose no tokens" 0 r.Runtime.lost_tokens

let test_no_fault_run_unchanged () =
  (* Faults.none must be invisible: field-for-field identical runs. *)
  let inst = random_instance ~seed:84 ~n:12 ~tokens:6 in
  let go faults =
    Runtime.run ?faults ~protocol:(Local_rarest.protocol ()) ~seed:5 inst
  in
  let plain = go None and with_none = go (Some Ocd_dynamics.Faults.none) in
  Alcotest.(check bool)
    "schedules identical" true
    (Schedule.steps plain.Runtime.schedule
    = Schedule.steps with_none.Runtime.schedule);
  Alcotest.(check int) "events identical" plain.Runtime.events with_none.Runtime.events;
  Alcotest.(check int) "no crash events" 0 with_none.Runtime.crashes

(* ----------------------- message adversary ------------------------ *)

let test_adversary_validation () =
  List.iter
    (fun adversary ->
      Alcotest.(check bool)
        "bad adversary rejected" true
        (match
           Runtime.run ~adversary
             ~protocol:(Local_rarest.protocol ())
             ~seed:1 (line_instance ())
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      { Net.no_adversary with Net.dup_prob = 1.5 };
      { Net.no_adversary with Net.corrupt_prob = -0.1 };
      { Net.no_adversary with Net.delay_prob = 0.5; max_delay = 0 };
    ]

let test_adversary_exact_counters () =
  (* With every probability pinned to 1 the counters are exact: every
     departed message is corrupted (and therefore neither delivered,
     delayed nor duplicated). *)
  let inst = random_instance ~seed:91 ~n:10 ~tokens:4 in
  let all_corrupt =
    { Net.dup_prob = 1.0; delay_prob = 1.0; max_delay = 4; corrupt_prob = 1.0 }
  in
  let r =
    Runtime.run ~adversary:all_corrupt ~round_limit:20
      ~protocol:(Local_rarest.protocol ())
      ~seed:7 inst
  in
  Alcotest.(check bool)
    "nothing survives total corruption" true
    (r.Runtime.outcome = Runtime.Timed_out && r.Runtime.fresh_deliveries = 0);
  Alcotest.(check int)
    "every departure corrupted"
    (r.Runtime.data_messages + r.Runtime.control_messages)
    r.Runtime.adv_corrupted;
  Alcotest.(check int) "corrupted messages are not delayed" 0
    r.Runtime.adv_reordered;
  Alcotest.(check int) "corrupted messages are not duplicated" 0
    r.Runtime.adv_duplicated;
  (* dup+delay without corruption: every departure is delayed and
     echoed, and the run must still complete (duplicates are absorbed
     by the dedup path, delays by the retry machinery). *)
  let noisy =
    { Net.dup_prob = 1.0; delay_prob = 1.0; max_delay = 4; corrupt_prob = 0.0 }
  in
  let r = Runtime.run ~adversary:noisy ~protocol:(Local_rarest.protocol ()) ~seed:7 inst in
  Alcotest.(check bool)
    "completes under dup+delay" true
    (r.Runtime.outcome = Runtime.Completed);
  Alcotest.(check bool) "every survivor delayed" true
    (r.Runtime.adv_reordered > 0
    && r.Runtime.adv_reordered = r.Runtime.adv_duplicated);
  Alcotest.(check bool)
    "schedule still validates" true
    (Validate.check_successful inst r.Runtime.schedule = Ok ())

let test_adversary_deterministic () =
  let inst = random_instance ~seed:92 ~n:12 ~tokens:6 in
  let adversary =
    { Net.dup_prob = 0.3; delay_prob = 0.3; max_delay = 6; corrupt_prob = 0.05 }
  in
  let go () =
    Runtime.run ~adversary ~protocol:(Local_rarest.protocol ()) ~seed:8 inst
  in
  let a = go () and b = go () in
  Alcotest.(check bool)
    "adversarial runs replay exactly" true
    (Schedule.steps a.Runtime.schedule = Schedule.steps b.Runtime.schedule
    && a.Runtime.events = b.Runtime.events
    && a.Runtime.adv_duplicated = b.Runtime.adv_duplicated
    && a.Runtime.adv_reordered = b.Runtime.adv_reordered
    && a.Runtime.adv_corrupted = b.Runtime.adv_corrupted);
  Alcotest.(check bool)
    "adversary actually interfered" true
    (a.Runtime.adv_duplicated > 0 && a.Runtime.adv_reordered > 0)

let test_no_adversary_byte_identical () =
  (* Passing the explicit no_adversary must be invisible: the arc coin
     streams advance identically, so runs match field for field. *)
  let inst = random_instance ~seed:93 ~n:12 ~tokens:6 in
  let go adversary =
    Runtime.run ?adversary ~protocol:(Local_rarest.protocol ()) ~seed:9 inst
  in
  let plain = go None and with_off = go (Some Net.no_adversary) in
  Alcotest.(check bool)
    "schedules identical" true
    (Schedule.steps plain.Runtime.schedule
    = Schedule.steps with_off.Runtime.schedule);
  Alcotest.(check int) "events identical" plain.Runtime.events
    with_off.Runtime.events;
  Alcotest.(check int) "no adversary counters" 0
    (with_off.Runtime.adv_duplicated + with_off.Runtime.adv_reordered
   + with_off.Runtime.adv_corrupted)

(* ------------------------ invariant monitor ------------------------ *)

let test_monitor_clean_runs () =
  (* Healthy runs must be violation-free for every protocol, and the
     monitored run must be event-identical to the unmonitored one. *)
  let inst = random_instance ~seed:94 ~n:12 ~tokens:6 in
  List.iter
    (fun name ->
      let protocol = Option.get (Registry.find name) in
      let monitor = Monitor.create () in
      let r = Runtime.run ~monitor ~protocol ~seed:11 inst in
      let plain = Runtime.run ~protocol ~seed:11 inst in
      Alcotest.(check int) (name ^ ": no violations") 0 r.Runtime.violations;
      Alcotest.(check bool) (name ^ ": monitor ok") true (Monitor.ok monitor);
      Alcotest.(check int)
        (name ^ ": observation is free")
        plain.Runtime.events r.Runtime.events)
    Registry.names

let test_monitor_clean_under_faults () =
  (* Crashes exercise the durability rule; a partition exercises the
     cut; neither may produce a false positive. *)
  let inst = random_instance ~seed:95 ~n:12 ~tokens:6 in
  let faults =
    Ocd_dynamics.Faults.compose
      (Ocd_dynamics.Faults.crashes ~seed:19 ~crash_prob:0.15 ())
      (Ocd_dynamics.Faults.of_windows ~seed:23 [ (3, 8) ])
  in
  let monitor = Monitor.create () in
  let r =
    Runtime.run ~faults ~monitor ~protocol:(Local_rarest.protocol ()) ~seed:12
      inst
  in
  Alcotest.(check bool) "faults bit" true (r.Runtime.crashes > 0);
  Alcotest.(check int) "no false violations under faults" 0 r.Runtime.violations

let test_monitor_records_violations () =
  let m = Monitor.create () in
  Alcotest.(check bool) "enabled" true (Monitor.enabled m);
  Alcotest.(check bool) "disabled is off" false (Monitor.enabled Monitor.disabled);
  let forced = ref 0 in
  Monitor.check m ~tick:3 ~node:1 ~rule:"r" ~ok:true ~detail:(fun () ->
      incr forced;
      "never");
  Alcotest.(check int) "detail not forced on pass" 0 !forced;
  Monitor.check m ~tick:4 ~node:2 ~rule:"r" ~ok:false ~detail:(fun () ->
      incr forced;
      "first");
  Monitor.record m ~tick:5 ~node:0 ~rule:"s" ~detail:"second";
  for tick = 6 to 69 do
    Monitor.record m ~tick ~node:0 ~rule:"s" ~detail:"later"
  done;
  Alcotest.(check int) "detail forced on failure" 1 !forced;
  Alcotest.(check int) "all violations counted" 66 (Monitor.count m);
  Alcotest.(check bool) "not ok" false (Monitor.ok m);
  let kept = Monitor.violations m in
  Alcotest.(check int) "report capped at 64" 64 (List.length kept);
  Alcotest.(check (list int))
    "first violations kept, oldest-first" (List.init 64 (fun i -> 4 + i))
    (List.map (fun v -> v.Monitor.tick) kept);
  (* the per-rule census counts everything, beyond the kept report *)
  Alcotest.(check (list (pair string int)))
    "rule census, sorted" [ ("r", 1); ("s", 65) ] (Monitor.rule_counts m)

(* ---------------------- registry & reuse -------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "names" [ "async-local"; "async-push"; "flood-plan" ] Registry.names;
  List.iter
    (fun name ->
      match Registry.find name with
      | Some p -> Alcotest.(check string) "name round-trips" name p.Protocol.name
      | None -> Alcotest.failf "registry lost %s" name)
    Registry.names;
  Alcotest.(check bool) "unknown name" true (Registry.find "nope" = None)

let test_registry_unknown_message () =
  let msg = Registry.unknown ~available:Registry.names "nope" in
  Alcotest.(check string)
    "message lists the available protocols"
    "unknown protocol \"nope\" (available: async-local, async-push, \
     flood-plan)"
    msg;
  Alcotest.check_raises "find_exn raises the listing message"
    (Invalid_argument msg) (fun () -> ignore (Registry.find_exn "nope"))

(* --------------------------- fingerprints ---------------------------- *)

(* Digests of whole runs (see [Fingerprint]), recorded before the
   transport's per-arc state, the detector tables, the pull sort and
   the schedule log were reindexed: any change to the event path that
   moves a single event, message or schedule move fails here. *)
let fingerprints =
  [
    ( "async-local",
      [
        ("calm", "480c157d915f6e0807f2cdc46680cb57");
        ("lossy", "7198661cbd988140d9bbef1d8a9189f1");
        ("flapping", "f428e31257f8f978bcb9bcbf235ead59");
        ("crash+partition", "08e50c3bb5e29083dd59b7335f5ee2dc");
        ("adversary", "b06c6ce7c45dfea27f4c1d28fded72ff");
        ("churn", "8d964a173fc726c325fb23399207204f");
      ] );
    ( "async-push",
      [
        ("calm", "ffe6ea46c9d7931a8f41fb56b66425de");
        ("lossy", "db0643935ffe2fe5d39ee6ea96cb1f97");
        ("flapping", "95765d3b3317a8d41a3662025b118de1");
        ("crash+partition", "4fab09f20e5e9c6733d1a77880d76e7e");
        ("adversary", "4f41d8988c52c0e418148bd6c95bd807");
        ("churn", "ac6fca97f1352a7bd01db00d319f7c5c");
      ] );
    ( "flood-plan",
      [
        ("calm", "d27fcf220a81336d771a01898958cc03");
        ("lossy", "a1bf27b502a8251c85cbb186ca1753bb");
        ("flapping", "3210ec5cf58329b82f64f450f97301ab");
        ("crash+partition", "dabdaf9fa0f9103a9156e721af2c5933");
        ("adversary", "f9a659707a7a45b697aa69139e1d8015");
        ("churn", "1247c5d151c23aee9538b4ecb773d370");
      ] );
  ]

let test_fingerprints () =
  List.iter
    (fun (name, expected) ->
      Fingerprint.check ~name ~expected (fun () -> Registry.find_exn name))
    fingerprints

let () =
  Alcotest.run "ocd_async"
    [
      ( "fingerprint",
        [ Alcotest.test_case "runtime digests" `Quick test_fingerprints ] );
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_sim_order;
          Alcotest.test_case "same-tick chain" `Quick test_sim_same_tick_chain;
          Alcotest.test_case "horizon" `Quick test_sim_limit;
          Alcotest.test_case "calendar queue = heap oracle" `Quick
            test_sim_matches_heap_oracle;
        ] );
      ( "lockstep differential",
        [
          Alcotest.test_case "random graph" `Quick test_lockstep_random;
          Alcotest.test_case "transit-stub" `Quick test_lockstep_transit_stub;
          Alcotest.test_case "seed sweep" `Quick test_lockstep_many_seeds;
          Alcotest.test_case "flood twin" `Quick test_lockstep_flood_twin;
        ] );
      ( "pull core",
        [
          Alcotest.test_case "requests = former copies" `Quick
            test_pull_matches_former_copies;
          Alcotest.test_case "memoised rarity = oracle" `Quick
            test_memoised_rarity_matches_oracle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed" `Quick test_same_seed_same_run;
          Alcotest.test_case "seed sensitivity" `Quick
            test_different_seed_differs;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_determinism;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
          Alcotest.test_case "push acks" `Quick test_push_completes_and_acks;
          Alcotest.test_case "flood-plan" `Quick test_flood_plan_completes;
          Alcotest.test_case "link flaps" `Quick test_condition_injection;
          Alcotest.test_case "churn" `Quick test_churn_protected_sources;
        ] );
      ( "detector",
        [
          Alcotest.test_case "suspicion lifecycle" `Quick test_detector_basics;
          Alcotest.test_case "bad timeout" `Quick
            test_detector_rejects_bad_timeout;
          Alcotest.test_case "timeout boundary" `Quick test_detector_boundary;
          Alcotest.test_case "same-round restart" `Quick
            test_detector_restart_same_round;
          Alcotest.test_case "watch semantics" `Quick test_detector_watch;
        ] );
      ( "loss liveness",
        [
          Alcotest.test_case "async-local seed sweep" `Quick
            test_local_rarest_loss_liveness;
          Alcotest.test_case "flood-plan seed sweep" `Quick
            test_flood_plan_loss_liveness;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "async-local" `Quick
            test_local_rarest_crash_recovery;
          Alcotest.test_case "async-push" `Quick test_push_crash_recovery;
          Alcotest.test_case "flood-plan" `Quick test_flood_plan_crash_recovery;
          Alcotest.test_case "durable crashes" `Quick
            test_durable_crash_loses_nothing;
          Alcotest.test_case "none plan invisible" `Quick
            test_no_fault_run_unchanged;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "validation" `Quick test_adversary_validation;
          Alcotest.test_case "exact counters" `Quick
            test_adversary_exact_counters;
          Alcotest.test_case "determinism" `Quick test_adversary_deterministic;
          Alcotest.test_case "no-adversary invisible" `Quick
            test_no_adversary_byte_identical;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean runs" `Quick test_monitor_clean_runs;
          Alcotest.test_case "clean under faults" `Quick
            test_monitor_clean_under_faults;
          Alcotest.test_case "violation bookkeeping" `Quick
            test_monitor_records_violations;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "latency scaling" `Quick test_arc_latency_scaling;
          Alcotest.test_case "trivial instance" `Quick test_trivial_instance;
          Alcotest.test_case "unsatisfiable timeout" `Quick
            test_timeout_on_unsatisfiable;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown-name message" `Quick
            test_registry_unknown_message;
        ] );
    ]
