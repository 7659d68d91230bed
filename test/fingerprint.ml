(* Run fingerprints shared by test_async and test_dht: an MD5 digest of
   everything a [Runtime.run] record counts — outcome, rounds,
   completion tick, events, every message, fault and adversary
   counter, suspicions, retransmissions, goodput — and every move of
   its schedule in order.  Goldens pin sizes and summaries; a digest
   pins the whole run, so any drift in the event path shows here.
   [schedule_digest] below does the same for synchronous runs
   (test_integration). *)

open Ocd_prelude
open Ocd_core
module Runtime = Ocd_async.Runtime
module Faults = Ocd_dynamics.Faults
module Condition = Ocd_dynamics.Condition

let digest (r : Runtime.run) =
  let b = Buffer.create 4096 in
  let int x = Buffer.add_string b (string_of_int x); Buffer.add_char b ' ' in
  Buffer.add_string b r.Runtime.protocol_name;
  Buffer.add_char b ' ';
  int r.Runtime.seed;
  int (match r.Runtime.outcome with Runtime.Completed -> 1 | Timed_out -> 0);
  int (Option.value r.Runtime.completion_ticks ~default:(-1));
  List.iter int
    [ r.Runtime.rounds; r.Runtime.fresh_deliveries;
      r.Runtime.duplicate_deliveries; r.Runtime.data_messages;
      r.Runtime.control_messages; r.Runtime.retransmissions;
      r.Runtime.dropped_messages; r.Runtime.fault_dropped;
      r.Runtime.crashes; r.Runtime.restarts; r.Runtime.lost_tokens;
      r.Runtime.failed_jobs; r.Runtime.suspicions;
      r.Runtime.adv_duplicated; r.Runtime.adv_reordered;
      r.Runtime.adv_corrupted; r.Runtime.violations;
      Bool.to_int r.Runtime.limit_hit; r.Runtime.events ];
  Buffer.add_string b (Printf.sprintf "%h|" r.Runtime.goodput);
  List.iter
    (fun step ->
      List.iter
        (fun (m : Move.t) -> int m.Move.src; int m.Move.dst; int m.Move.token)
        step;
      Buffer.add_char b ';')
    (Schedule.steps r.Runtime.schedule);
  Digest.to_hex (Digest.string (Buffer.contents b))

let instance ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let sources (inst : Instance.t) =
  List.filter
    (fun v -> not (Bitset.is_empty inst.Instance.have.(v)))
    (Order.range (Instance.vertex_count inst))

(* The six seeded scenarios, each on its own 14-vertex, 6-token
   instance: fault-free, lossy transport, flapping links, crashes plus
   a partition window, the message adversary, and vertex churn with
   crash-restarts (restarted incarnations rejoin, so dht-rarest's join
   path runs). *)
let scenarios =
  [ "calm"; "lossy"; "flapping"; "crash+partition"; "adversary"; "churn" ]

let run ~scenario protocol =
  let seed =
    match List.find_index (( = ) scenario) scenarios with
    | Some i -> 100 + i
    | None -> invalid_arg "Fingerprint.run: unknown scenario"
  in
  let inst = instance ~seed ~n:14 ~tokens:6 in
  let go ?profile ?condition ?faults ?adversary () =
    Runtime.run ?profile ?condition ?faults ?adversary ~protocol ~seed inst
  in
  match scenario with
  | "calm" -> go ()
  | "lossy" -> go ~profile:{ Ocd_async.Net.default with loss = 0.1 } ()
  | "flapping" ->
    go ~condition:(Condition.link_flaps ~seed ~down_prob:0.2 ~up_prob:0.5) ()
  | "crash+partition" ->
    go
      ~faults:
        (Faults.compose
           (Faults.crashes ~seed ~protected:(sources inst) ~crash_prob:0.08 ())
           (Faults.of_windows ~seed [ (4, 9) ]))
      ()
  | "adversary" ->
    go
      ~adversary:
        { Ocd_async.Net.dup_prob = 0.2; delay_prob = 0.2; max_delay = 5;
          corrupt_prob = 0.05 }
      ()
  | _ ->
    go
      ~condition:
        (Condition.churn ~seed ~protected:(sources inst) ~leave_prob:0.1
           ~return_prob:0.5)
      ~faults:
        (Faults.crashes ~seed:(seed + 1) ~protected:(sources inst)
           ~crash_prob:0.05 ())
      ()

(* [check ~expected make] runs [make ()] under every scenario and
   compares each digest with [expected], a [(scenario, digest)] list. *)
let check ~name ~expected make =
  List.iter
    (fun scenario ->
      let d = digest (run ~scenario (make ())) in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" name scenario)
        (List.assoc scenario expected) d)
    scenarios

(* ----------------------- synchronous runs ---------------------------- *)

(* Sync fingerprints: an MD5 of a synchronous run's outcome, counters
   and every move of its schedule in order, so any drift in a
   heuristic, a baseline, the underlay or a Steiner tree shows here. *)
let schedule_digest ?(extra = []) ~outcome sched =
  let b = Buffer.create 4096 in
  let int x = Buffer.add_string b (string_of_int x); Buffer.add_char b ' ' in
  (match (outcome : Ocd_engine.Engine.outcome) with
   | Completed -> int (-1)
   | Stalled s -> int s
   | Step_limit -> int (-2));
  List.iter int extra;
  List.iter
    (fun step ->
      List.iter
        (fun (m : Move.t) -> int m.Move.src; int m.Move.dst; int m.Move.token)
        step;
      Buffer.add_char b ';')
    (Schedule.steps sched);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Four seeded instances: an Erdős–Rényi and a transit-stub graph, each
   with a single-file and a multi-sender (three files, each starting at
   a random non-wanting vertex) scenario.  Instance [i] draws from seed
   [300 + i]. *)
let sync_instances =
  Ocd_topology.Topology.
    [ ("random/single", Random, false); ("random/multi", Random, true);
      ("transit-stub/single", Transit_stub, false);
      ("transit-stub/multi", Transit_stub, true) ]

let sync_instance i (_, kind, multi) =
  let seed = 300 + i in
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Topology.generate rng kind ~n:32 in
  let sc =
    if multi then
      Scenario.subdivide_files rng ~graph ~total_tokens:12 ~files:3
        ~multi_sender:true ()
    else Scenario.single_file rng ~graph ~tokens:12 ()
  in
  (sc.Scenario.instance, seed)

(* [sync_check ~name ~expected digest_of] digests [digest_of inst ~seed]
   on every sync instance and compares it with [expected], an
   [(instance, digest)] list. *)
let sync_check ~name ~expected digest_of =
  List.iteri
    (fun i ((label, _, _) as spec) ->
      let inst, seed = sync_instance i spec in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" name label)
        (List.assoc label expected) (digest_of inst ~seed))
    sync_instances
