open Ocd_prelude
open Ocd_core
module Condition = Ocd_dynamics.Condition
module Faults = Ocd_dynamics.Faults

type outcome = Completed | Timed_out

type run = {
  protocol_name : string;
  seed : int;
  outcome : outcome;
  completion_ticks : int option;
  rounds : int;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
  duplicate_deliveries : int;
  data_messages : int;
  control_messages : int;
  retransmissions : int;
  dropped_messages : int;
  fault_dropped : int;
  crashes : int;
  restarts : int;
  lost_tokens : int;
  failed_jobs : int;
  suspicions : int;
  adv_duplicated : int;
  adv_reordered : int;
  adv_corrupted : int;
  violations : int;
  limit_hit : bool;
  diagnosis : Diagnosis.t option;
  goodput : float;
  events : int;
}

(* Same shape as the synchronous engine's step budget: every token to
   every vertex plus slack, capped so lossy runs still terminate. *)
let default_round_limit (inst : Instance.t) =
  let n = Instance.vertex_count inst in
  Int.min ((inst.token_count * (n - 1)) + n + 64) 1_000_000

let run ?(obs = Ocd_obs.disabled) ?(causal = Ocd_obs.Causal.disabled)
    ?(profile = Net.default) ?(condition = Condition.static)
    ?(faults = Faults.none) ?(adversary = Net.no_adversary)
    ?(monitor = Monitor.disabled) ?round_limit ~(protocol : Protocol.t) ~seed
    inst =
  let n = Instance.vertex_count inst in
  let round_limit =
    match round_limit with Some l -> l | None -> default_round_limit inst
  in
  if round_limit <= 0 then invalid_arg "Runtime.run: round_limit must be positive";
  let pace = profile.Net.pace in
  let horizon = (round_limit * pace) - 1 in
  let sim = Sim.create ~obs () in
  let con = Ocd_obs.Causal.enabled causal in
  let trace = obs.Ocd_obs.on && Ocd_obs.Sink.enabled obs.Ocd_obs.sink in
  let sink = obs.Ocd_obs.sink in
  let have = Array.map Bitset.copy inst.Instance.have in
  (* Satisfaction accounting lives here rather than in
     Timeline.Tracker: the tracker is monotonic by design, and a crash
     under Lost_unless_source durability *removes* tokens, which must
     re-open the victim's deficit. *)
  let delivered_ever = Array.init n (fun _ -> Bitset.create inst.Instance.token_count) in
  let node_deficit = Array.init n (fun v -> Bitset.cardinal (Instance.deficit inst v)) in
  let unsatisfied =
    ref (Array.fold_left (fun acc d -> if d > 0 then acc + 1 else acc) 0 node_deficit)
  in
  let completion = ref (if !unsatisfied = 0 then Some 0 else None) in
  let duplicates = ref 0 in
  let retransmissions = ref 0 in
  let failed_jobs = ref 0 in
  let suspicions = ref 0 in
  let fresh = ref 0 in
  let crashes = ref 0 in
  let restarts = ref 0 in
  let lost_tokens = ref 0 in
  (* The schedule under construction: [buckets.(r)] holds round [r]'s
     moves newest first (grown on demand), and [on_arc.(s)] the moves
     logged on the arc at slot [s] of the graph, each as
     [round * token_count + token], in descending order — so the
     capacity and duplicate checks of one delivery read only that
     arc's entries for the rounds it tries. *)
  let buckets = ref (Array.make 64 []) in
  let graph = inst.Instance.graph in
  let row_cap = (Ocd_graph.Digraph.succ_rows graph).Ocd_graph.Digraph.row_cap in
  let on_arc = Array.make (Ocd_graph.Digraph.arc_count graph) [] in
  let tokens = inst.Instance.token_count in
  let max_logged_round = ref 0 in
  (* Round from which a vertex's possession of a token is visible to
     the schedule replay: its start for initial content, the boundary
     after the logged delivery otherwise.  Arrival-round bucketing
     alone is not schedule-valid — with latency a node can receive and
     forward a token within one round, and the §3.1 constraints demand
     the sender hold it at the {e start} of the forwarding step — so a
     forward is logged at [max (arrival round) (sender visibility)].
     In lockstep runs the two always coincide (the differential test
     shows the schedule is step-identical to a valid engine run). *)
  let visible_from =
    Array.init n (fun v ->
        Array.init inst.Instance.token_count (fun token ->
            if Bitset.mem inst.Instance.have.(v) token then 0 else max_int))
  in
  (* How many moves of an arc's descending list fall in [round]; -1
     when one of them carries [token]. *)
  let rec arc_round ~round ~token count = function
    | key :: rest when key / tokens > round -> arc_round ~round ~token count rest
    | key :: rest when key / tokens = round ->
        if key mod tokens = token then -1
        else arc_round ~round ~token (count + 1) rest
    | _ -> count
  in
  let rec insert_desc (key : int) = function
    | k :: rest when k > key -> k :: insert_desc key rest
    | l -> key :: l
  in
  let log_move ~round (move : Move.t) =
    (* Retry bunching (or the visibility shift itself) can pile more
       arrivals onto an arc-round than the arc's capacity, and a token
       lost to a crash can be re-delivered on the same arc twice; both
       would make the emitted schedule invalid.  Slide the move to the
       earliest round that respects visibility, set semantics and
       capacity — replay possession is monotonic, so re-timing a
       delivery later never invalidates downstream moves.  A move on
       no arc is never logged. *)
    let s = Ocd_graph.Digraph.slot graph move.src move.dst in
    if s >= 0 then begin
      let capacity = row_cap.(s) in
      let token = move.token in
      let rec place round =
        (* -1: the token already crossed the arc in this round *)
        let on = arc_round ~round ~token 0 on_arc.(s) in
        if on < 0 then ()
        else if on >= capacity then place (round + 1)
        else begin
          on_arc.(s) <- insert_desc ((round * tokens) + token) on_arc.(s);
          if round >= Array.length !buckets then begin
            let grown = Array.make (Int.max (round + 1) (2 * Array.length !buckets)) [] in
            Array.blit !buckets 0 grown 0 (Array.length !buckets);
            buckets := grown
          end;
          !buckets.(round) <- move :: !buckets.(round);
          max_logged_round := Int.max !max_logged_round round;
          visible_from.(move.dst).(token) <-
            Int.min visible_from.(move.dst).(token) (round + 1)
        end
      in
      place (Int.max round visible_from.(move.src).(token))
    end
  in
  let handlers : Protocol.handlers option array = Array.make n None in
  (* Crash–recovery state: incarnation epochs (bumped per crash so the
     transport can kill in-flight messages), current up/down status,
     and each live incarnation's kill switch for its pending timers. *)
  let epoch = Array.make n 0 in
  let up_now = Array.make n true in
  let alive : bool ref array = Array.init n (fun _ -> ref true) in
  let probe = Ocd_obs.probe obs in
  let on_message_label = protocol.Protocol.name ^ "/on_message" in
  let deliver ~src ~dst msg =
    match handlers.(dst) with
    | Some h -> (
        match probe with
        | None -> h.Protocol.on_message ~src msg
        | Some p ->
            Ocd_obs.Probe.time p on_message_label (fun () ->
                h.Protocol.on_message ~src msg))
    | None -> ()
  in
  let net =
    let cut =
      (* Only wired when the plan has a partition component, so
         crash-only and fault-free runs skip the predicate
         entirely. *)
      if Faults.has_partition faults then
        Some (fun ~round u v -> Faults.separated faults ~round u v)
      else None
    in
    Net.create ~sim ~graph:inst.Instance.graph ~profile ~condition ~seed
      ~causal
      ~node_up:(fun v -> up_now.(v))
      ~node_epoch:(fun v -> epoch.(v))
      ?cut ~adversary ~deliver ()
  in
  let receive v ~src token =
    if token < 0 || token >= inst.Instance.token_count then false
    else if Bitset.mem have.(v) token then begin
      incr duplicates;
      if trace then
        Ocd_obs.Span.instant sink ~pid:0 ~tid:v ~name:"dup" ~ts:(Sim.now sim)
          ~args:[ ("token", Ocd_obs.Sink.Int token); ("src", Ocd_obs.Sink.Int src) ]
          ();
      false
    end
    else begin
      if Monitor.enabled monitor then
        Monitor.check monitor ~tick:(Sim.now sim) ~node:v ~rule:"phantom-arc"
          ~ok:
            (src <> v
            && Ocd_graph.Digraph.capacity inst.Instance.graph src v > 0)
          ~detail:(fun () ->
            Printf.sprintf
              "token %d accepted from %d without a positive-capacity arc"
              token src);
      Bitset.add have.(v) token;
      let round = Sim.now sim / pace in
      log_move ~round { Move.src; dst = v; token };
      if not (Bitset.mem delivered_ever.(v) token) then begin
        Bitset.add delivered_ever.(v) token;
        incr fresh;
        if con then Ocd_obs.Causal.mark_fresh causal
      end;
      if trace then
        Ocd_obs.Span.complete sink ~pid:0 ~tid:v ~name:"recv" ~ts:(Sim.now sim)
          ~dur:1
          ~args:[ ("token", Ocd_obs.Sink.Int token); ("src", Ocd_obs.Sink.Int src) ]
          ();
      if Bitset.mem inst.Instance.want.(v) token then begin
        node_deficit.(v) <- node_deficit.(v) - 1;
        if node_deficit.(v) = 0 then begin
          decr unsatisfied;
          if !unsatisfied = 0 && !completion = None then begin
            completion := Some (Sim.now sim);
            (* the completing delivery's activation is still current,
               so the completion event hangs off it — the critical
               path's leaf *)
            if con then
              ignore (Ocd_obs.Causal.record_complete causal ~tick:(Sim.now sim));
            if trace then
              Ocd_obs.Span.instant sink ~pid:0 ~tid:0 ~name:"all-satisfied"
                ~ts:(Sim.now sim) ()
          end
        end
      end;
      true
    end
  in
  let finished () = !completion <> None in
  (* Under a clean lockstep setup — no faults, no conditions, no loss,
     no adversary — every heartbeat arrives on time, so any suspicion
     the detector raises is by definition false.  Compared once here;
     the per-suspicion cost is two loads and a branch. *)
  let clean_lockstep =
    profile = Net.lockstep
    && Faults.is_none faults
    && condition == Condition.static
    && adversary = Net.no_adversary
  in
  let boot_ev = Array.make n 0 in
  let install v ~epoch:e =
    let flag = ref true in
    alive.(v) <- flag;
    let after d f =
      if con then begin
        (* The wait edge runs from the activation that set the timer to
           the tick it fires; each firing becomes the current
           activation for whatever the callback does. *)
        let parent = Ocd_obs.Causal.cur causal in
        Sim.after sim d (fun () ->
            if !flag then begin
              let t =
                Ocd_obs.Causal.record_timer causal ~tick:(Sim.now sim) ~node:v
                  ~parent
              in
              Ocd_obs.Causal.set_cur causal t;
              f ()
            end)
      end
      else Sim.after sim d (fun () -> if !flag then f ())
    in
    let ctx =
      {
        Protocol.instance = inst;
        vertex = v;
        seed;
        epoch = e;
        rng = Protocol.incarnation_rng ~seed ~epoch:e v;
        pace;
        now = (fun () -> Sim.now sim);
        after;
        send = (fun ~dst msg -> if !flag then Net.send net ~src:v ~dst msg);
        has = (fun token -> Bitset.mem have.(v) token);
        have_copy = (fun () -> Bitset.copy have.(v));
        receive = (fun ~src token -> if !flag then receive v ~src token else false);
        note_retransmission =
          (fun () ->
            incr retransmissions;
            if con then Ocd_obs.Causal.note_retry causal ~node:v);
        note_suspicion =
          (fun () ->
            incr suspicions;
            if con then
              Ocd_obs.Causal.record_suspicion causal ~tick:(Sim.now sim)
                ~node:v;
            if Monitor.enabled monitor && clean_lockstep then
              Monitor.record monitor ~tick:(Sim.now sim) ~node:v
                ~rule:"false-suspicion"
                ~detail:"detector raised a suspicion under clean lockstep");
        give_up = (fun () -> incr failed_jobs);
        finished;
        monitor;
        obs;
      }
    in
    let h = protocol.Protocol.init ctx in
    handlers.(v) <- Some h;
    if con then
      boot_ev.(v) <-
        Ocd_obs.Causal.record_boot causal ~tick:(Sim.now sim) ~node:v ~epoch:e;
    if trace then
      Ocd_obs.Span.instant sink ~pid:0 ~tid:v ~name:"boot" ~ts:(Sim.now sim)
        ~args:[ ("epoch", Ocd_obs.Sink.Int e) ] ();
    h
  in
  let apply_crash v =
    incr crashes;
    if con then
      ignore (Ocd_obs.Causal.record_crash causal ~tick:(Sim.now sim) ~node:v);
    if trace then
      Ocd_obs.Span.instant sink ~pid:0 ~tid:v ~name:"crash" ~ts:(Sim.now sim) ();
    up_now.(v) <- false;
    epoch.(v) <- epoch.(v) + 1;
    alive.(v) := false;
    handlers.(v) <- None;
    match Faults.durability faults with
    | Faults.Durable -> ()
    | Faults.Lost_unless_source ->
        let lost = Bitset.diff have.(v) inst.Instance.have.(v) in
        Bitset.iter
          (fun token ->
            Bitset.remove have.(v) token;
            incr lost_tokens;
            if Bitset.mem inst.Instance.want.(v) token then begin
              if node_deficit.(v) = 0 then incr unsatisfied;
              node_deficit.(v) <- node_deficit.(v) + 1
            end)
          lost;
        if Monitor.enabled monitor then
          (* have can only grow between crashes and the previous wipe
             left exactly the initial set, so post-wipe possession must
             equal it: anything else means a token was minted or
             destroyed outside the durability rule. *)
          Monitor.check monitor ~tick:(Sim.now sim) ~node:v ~rule:"durability"
            ~ok:(Bitset.equal have.(v) inst.Instance.have.(v))
            ~detail:(fun () ->
              Printf.sprintf
                "post-crash possession has %d tokens, initial set has %d"
                (Bitset.cardinal have.(v))
                (Bitset.cardinal inst.Instance.have.(v)))
  in
  let apply_restart v =
    incr restarts;
    if con then
      (* parent: the node's last event — its crash — so the crash-down
         interval is one edge on any path through the restart *)
      ignore
        (Ocd_obs.Causal.record_restart causal ~tick:(Sim.now sim) ~node:v
           ~epoch:epoch.(v));
    if trace then
      Ocd_obs.Span.instant sink ~pid:0 ~tid:v ~name:"restart" ~ts:(Sim.now sim)
        ~args:[ ("epoch", Ocd_obs.Sink.Int epoch.(v)) ] ();
    up_now.(v) <- true;
    (* The fresh incarnation boots immediately: its on_start runs in
       the restart's own tick and serves as the recovery handshake
       (the first thing every protocol does is (re-)announce). *)
    let h = install v ~epoch:epoch.(v) in
    if con then Ocd_obs.Causal.set_cur causal boot_ev.(v);
    h.Protocol.on_start ()
  in
  (* Lazily chained fault events: each transition schedules the next,
     so a completed run drains its queue instead of ploughing through
     a horizon's worth of pre-booked no-ops. *)
  let rec schedule_faults v = function
    | [] -> ()
    | (r, ev) :: rest ->
        Sim.at sim (r * pace) (fun () ->
            if not (finished ()) then begin
              (match ev with
              | `Crash -> apply_crash v
              | `Restart -> apply_restart v);
              schedule_faults v rest
            end)
  in
  if not (Faults.is_none faults) then
    for v = 0 to n - 1 do
      schedule_faults v (Faults.transitions faults ~node:v ~horizon:round_limit)
    done;
  for v = 0 to n - 1 do
    ignore (install v ~epoch:0)
  done;
  for v = 0 to n - 1 do
    match handlers.(v) with
    | Some h ->
        if con then
          Sim.at sim 0 (fun () ->
              Ocd_obs.Causal.set_cur causal boot_ev.(v);
              h.Protocol.on_start ())
        else Sim.at sim 0 h.Protocol.on_start
    | None -> ()
  done;
  let stop = Sim.run ~limit:horizon sim in
  let limit_hit = stop = Sim.Horizon_reached in
  let outcome = if finished () then Completed else Timed_out in
  let rounds =
    match !completion with
    | Some tick -> Int.max (tick / pace) !max_logged_round + 1
    | None -> round_limit
  in
  let schedule =
    Schedule.drop_trailing_empty
      (Schedule.of_steps
         (List.init rounds (fun r ->
              if r < Array.length !buckets then List.rev !buckets.(r) else [])))
  in
  let metrics = Metrics.of_schedule inst schedule in
  let diagnosis =
    match outcome with
    | Completed -> None
    | Timed_out ->
        Some
          (Diagnosis.diagnose ~instance:inst ~condition ~faults ~have
             ~rounds:round_limit ~failed_jobs:!failed_jobs
             ~quiescent:(not limit_hit))
  in
  let data = Net.data_sent net in
  if obs.Ocd_obs.on then begin
    (* Final totals mirrored into the registry in one deterministic
       batch — all sim-time quantities, so renders are byte-identical
       across seeds of the same run and across --jobs. *)
    let reg = obs.Ocd_obs.metrics in
    let put name v = Ocd_obs.Metrics.add reg name v in
    put "async/completed" (match outcome with Completed -> 1 | Timed_out -> 0);
    put "async/control_messages" (Net.control_sent net);
    put "async/crashes" !crashes;
    put "async/data_messages" data;
    put "async/dropped" (Net.dropped net);
    put "async/duplicates" !duplicates;
    put "async/events" (Sim.events_processed sim);
    put "async/failed_jobs" !failed_jobs;
    put "async/fault_dropped" (Net.fault_dropped net);
    put "async/fresh_deliveries" !fresh;
    put "async/lost_tokens" !lost_tokens;
    put "async/restarts" !restarts;
    put "async/retransmissions" !retransmissions;
    put "async/rounds" rounds;
    put "async/suspicions" !suspicions;
    (* Conditional rows keep metrics renders byte-identical for runs
       that predate the adversary and the monitor. *)
    if adversary <> Net.no_adversary then begin
      put "async/adv_corrupted" (Net.adversary_corrupted net);
      put "async/adv_duplicated" (Net.adversary_duplicated net);
      put "async/adv_reordered" (Net.adversary_reordered net)
    end;
    if Monitor.enabled monitor then begin
      put "async/monitor_violations" (Monitor.count monitor);
      (* Per-rule counters ride along only when the monitor is on and a
         rule actually fired, so monitor-off (and violation-free)
         renders stay byte-identical to earlier builds. *)
      List.iter
        (fun (rule, c) -> put ("monitor/" ^ rule) c)
        (Monitor.rule_counts monitor)
    end
  end;
  {
    protocol_name = protocol.Protocol.name;
    seed;
    outcome;
    completion_ticks = !completion;
    rounds;
    schedule;
    metrics;
    fresh_deliveries = !fresh;
    duplicate_deliveries = !duplicates;
    data_messages = data;
    control_messages = Net.control_sent net;
    retransmissions = !retransmissions;
    dropped_messages = Net.dropped net;
    fault_dropped = Net.fault_dropped net;
    crashes = !crashes;
    restarts = !restarts;
    lost_tokens = !lost_tokens;
    failed_jobs = !failed_jobs;
    suspicions = !suspicions;
    adv_duplicated = Net.adversary_duplicated net;
    adv_reordered = Net.adversary_reordered net;
    adv_corrupted = Net.adversary_corrupted net;
    violations = Monitor.count monitor;
    limit_hit;
    diagnosis;
    goodput = (if data = 0 then 0.0 else float_of_int !fresh /. float_of_int data);
    events = Sim.events_processed sim;
  }
