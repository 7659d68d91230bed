open Ocd_core
open Ocd_prelude
open Ocd_graph

exception Strategy_error of string

type outcome = Completed | Stalled of int | Step_limit

type run = {
  strategy_name : string;
  seed : int;
  outcome : outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
}

type admission =
  | Exact
  | Lossy of {
      visible : int -> Instance.t;
      capacity : step:int -> src:int -> dst:int -> base:int -> int;
      route : int -> int array;
      link_capacity : int array;
    }

type decoder = {
  finished : unit -> bool;
  on_fresh : step:int -> dst:int -> token:int -> unit;
}

type completion = Wants | Custom of decoder

type rounds = {
  ended : outcome;
  recorded : Schedule.t;
  delivered : int;
  dropped : int;
}

let strategy_fail fmt = Format.kasprintf (fun s -> raise (Strategy_error s)) fmt

(* Upper edges for the moves-per-step histogram: powers of two up to a
   step that moves 256 tokens at once (larger lands in +inf). *)
let moves_buckets = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

type goal = Track of Timeline.Tracker.t | Decode of decoder

(* Per-run kernel state.  [have] is possession, one row per vertex;
   strategies read it through the context.  The per-step §3.1 checks
   are indexed by the arc's CSR slot in the run's instance graph:
   [load] counts the slot's moves and [sent] holds one token bitset
   row per slot for the (arc, token) duplicate test.  Each check phase
   bumps [epoch], and a slot is reset when first touched in a phase
   ([stamp] differs from [epoch]), so a step costs only the slots it
   uses.  [links] counts the shared
   underlay links of lossy admission. *)
type kernel = {
  inst : Instance.t;
  admission : admission;
  goal : goal;
  have : Bitset.Rows.t;
  scratch : Strategy.scratch;
  obs : Ocd_obs.t;
  stride : int;
  stamp : int array;
  load : int array;
  sent : int array;
  mutable epoch : int;
  links : Int_tab.t;
  mutable fresh_total : int;
  mutable dropped_total : int;
}

let kernel_create obs admission goal (inst : Instance.t) =
  let arcs = Digraph.arc_count inst.graph in
  let stride = Bitset.words_for inst.token_count in
  {
    inst;
    admission;
    goal;
    have = Bitset.Rows.of_sets inst.token_count inst.have;
    scratch = Strategy.scratch_create ~token_count:inst.token_count;
    obs;
    stride;
    stamp = Array.make arcs (-1);
    load = Array.make arcs 0;
    sent = Array.make (arcs * stride) 0;
    epoch = -1;
    links = Int_tab.create ();
    fresh_total = 0;
    dropped_total = 0;
  }

(* [slot]'s state, reset if it was last touched in an earlier phase. *)
let[@inline] touch k slot =
  if k.stamp.(slot) <> k.epoch then begin
    k.stamp.(slot) <- k.epoch;
    k.load.(slot) <- 0;
    Array.fill k.sent (slot * k.stride) k.stride 0
  end

(* One step: check the proposal against §3.1, keep what the admission
   lets through, and deliver it.  Returns the kept moves; fresh and
   dropped counts accumulate in [k]. *)
let apply_step k step moves =
  let inst = k.inst and have = k.have in
  let g = inst.graph in
  let { Digraph.row_cap; _ } = Digraph.succ_rows g in
  let token_count = inst.token_count in
  let load = k.load and sent = k.sent and stride = k.stride in
  let exact = match k.admission with Exact -> true | Lossy _ -> false in
  k.epoch <- k.epoch + 1;
  (* Direct recursion, not [List.iter]: the validation body runs once
     per move and the indirect closure call is measurable at engine
     scale.  Every admission runs these checks; only [Exact] also
     treats a full arc as a strategy bug. *)
  let rec validate = function
    | [] -> ()
    | (m : Move.t) :: tl ->
      if m.token < 0 || m.token >= token_count then
        strategy_fail "step %d: token %d out of range" step m.token;
      let slot = Digraph.slot g m.src m.dst in
      if slot < 0 then
        strategy_fail "step %d: no arc %d->%d" step m.src m.dst;
      touch k slot;
      (* Token range was checked above, so the bit exists. *)
      let i = (slot * stride) + (m.token / Bitset.bits_per_word) in
      let b = 1 lsl (m.token mod Bitset.bits_per_word) in
      if sent.(i) land b <> 0 then
        strategy_fail "step %d: duplicate assignment %d->%d:%d" step m.src
          m.dst m.token;
      sent.(i) <- sent.(i) lor b;
      let l = load.(slot) + 1 in
      load.(slot) <- l;
      let cap = row_cap.(slot) in
      if l > cap && exact then
        strategy_fail "step %d: capacity of %d->%d exceeded (%d > %d)" step
          m.src m.dst l cap;
      if not (Bitset.Rows.mem have m.src m.token) then
        strategy_fail "step %d: %d sends token %d it does not hold" step m.src
          m.token;
      validate tl
  in
  validate moves;
  let moves =
    match k.admission with
    | Exact -> moves
    | Lossy l ->
      (* First come, first served: a move is kept while its arc's
         effective capacity and every shared link on its route have
         room, and then takes one unit of each. *)
      k.epoch <- k.epoch + 1;
      Int_tab.clear k.links;
      let has_room id = Int_tab.find k.links id < l.link_capacity.(id) in
      let take id = ignore (Int_tab.incr k.links id) in
      let[@tail_mod_cons] rec admit = function
        | [] -> []
        | (m : Move.t) :: tl ->
          let slot = Digraph.slot g m.src m.dst in
          touch k slot;
          let route = l.route slot in
          if
            load.(slot)
            < l.capacity ~step ~src:m.src ~dst:m.dst ~base:row_cap.(slot)
            && Array.for_all has_room route
          then begin
            load.(slot) <- load.(slot) + 1;
            Array.iter take route;
            m :: admit tl
          end
          else begin
            k.dropped_total <- k.dropped_total + 1;
            admit tl
          end
      in
      admit moves
  in
  (* All constraints hold; deliveries land simultaneously.  The fresh
     result of each add counts each (dst, token) pair once
     even when several sources deliver it in the same step, and keeps
     the completion bookkeeping O(1) per fresh arrival. *)
  let obs = k.obs in
  let trace = obs.Ocd_obs.on && Ocd_obs.Sink.enabled obs.Ocd_obs.sink in
  let rec deliver = function
    | [] -> ()
    | (m : Move.t) :: tl ->
      if Bitset.Rows.add have m.dst m.token then begin
        k.fresh_total <- k.fresh_total + 1;
        (match k.goal with
        | Track tracker ->
          Timeline.Tracker.deliver tracker ~step:(step + 1) ~dst:m.dst
            ~token:m.token
        | Decode d -> d.on_fresh ~step:(step + 1) ~dst:m.dst ~token:m.token);
        Strategy.notify_deliver k.scratch ~dst:m.dst ~token:m.token;
        (* One trace lane per receiving vertex (tid = node id), in
           sim-time (ts = step) — deterministic by construction. *)
        if trace then
          Ocd_obs.Span.complete obs.Ocd_obs.sink ~pid:0 ~tid:m.dst ~name:"recv"
            ~ts:step ~dur:1
            ~args:[ ("token", Ocd_obs.Sink.Int m.token);
                    ("src", Ocd_obs.Sink.Int m.src) ]
            ()
      end;
      deliver tl
  in
  deliver moves;
  moves

(* Theorem 1: any satisfiable instance has a schedule of at most
   m(n-1) moves, hence m(n-1) steps; add slack for strategies that
   spend silent steps (e.g. the flood-then-plan algorithm waits a
   diameter, which n dominates) before capping.  Lossy admission loses
   moves and leaves wants temporarily unreachable, so it gets twice the
   budget and a more generous stall patience. *)
let default_limits admission (inst : Instance.t) =
  let n = Instance.vertex_count inst and m = Int.max 1 inst.token_count in
  let bound = m * Int.max 1 (n - 1) in
  match admission with
  | Exact -> (Int.min (bound + n + 64) 1_000_000, (2 * inst.token_count) + 16)
  | Lossy _ ->
    (Int.min ((2 * bound) + n + 128) 1_000_000, (4 * inst.token_count) + 64)

let rounds ?(obs = Ocd_obs.disabled) ?step_limit ?stall_patience ~admission
    ~completion ~strategy ~seed (inst : Instance.t) =
  let limit, patience = default_limits admission inst in
  let step_limit = Option.value step_limit ~default:limit in
  let stall_patience = Option.value stall_patience ~default:patience in
  let rng = Prng.create ~seed in
  let decide = strategy.Strategy.make inst rng in
  let goal =
    match completion with
    | Wants -> Track (Timeline.Tracker.create inst)
    | Custom d -> Decode d
  in
  let k = kernel_create obs admission goal inst in
  (* Instrumentation setup is unconditional (a disabled registry hands
     back shared dummies); the per-step work below is guarded so the
     default Null path costs one load-and-branch per site. *)
  let m = obs.Ocd_obs.metrics in
  let c_rounds = Ocd_obs.Metrics.counter m "engine/rounds" in
  let c_moves = Ocd_obs.Metrics.counter m "engine/moves" in
  let c_fresh = Ocd_obs.Metrics.counter m "engine/fresh_deliveries" in
  let c_quiet = Ocd_obs.Metrics.counter m "engine/quiet_steps" in
  let h_moves =
    Ocd_obs.Metrics.histogram m "engine/moves_per_step" ~buckets:moves_buckets
  in
  let probe = Ocd_obs.probe obs in
  let lbl_decide = "engine/" ^ strategy.Strategy.name ^ "/decide" in
  let lbl_apply = "engine/" ^ strategy.Strategy.name ^ "/apply" in
  let lbl_post = "engine/" ^ strategy.Strategy.name ^ "/post" in
  let trace = obs.Ocd_obs.on && Ocd_obs.Sink.enabled obs.Ocd_obs.sink in
  let builder = Schedule.Builder.create () in
  let finished () =
    match goal with
    | Track tracker -> Timeline.Tracker.all_satisfied tracker
    | Decode d -> d.finished ()
  in
  let rec loop step since_progress =
    if finished () then Completed
    else if step >= step_limit then Step_limit
    else if since_progress >= stall_patience then Stalled step
    else begin
      let instance =
        match admission with Exact -> inst | Lossy l -> l.visible step
      in
      let ctx =
        { Strategy.instance; have = k.have; step; rng; scratch = k.scratch }
      in
      let moves =
        match probe with
        | None -> decide ctx
        | Some p -> Ocd_obs.Probe.time p lbl_decide (fun () -> decide ctx)
      in
      let before = k.fresh_total in
      let moves =
        match probe with
        | None -> apply_step k step moves
        | Some p ->
          Ocd_obs.Probe.time p lbl_apply (fun () -> apply_step k step moves)
      in
      let fresh = k.fresh_total - before in
      if obs.Ocd_obs.on then begin
        let n_moves = List.length moves in
        Ocd_obs.Metrics.incr c_rounds;
        Ocd_obs.Metrics.incr c_moves ~by:n_moves;
        Ocd_obs.Metrics.incr c_fresh ~by:fresh;
        if fresh = 0 then Ocd_obs.Metrics.incr c_quiet;
        Ocd_obs.Metrics.observe_int h_moves n_moves;
        if trace then
          Ocd_obs.Span.complete obs.Ocd_obs.sink ~pid:0 ~tid:0
            ~name:"step" ~ts:step ~dur:1
            ~args:[ ("moves", Ocd_obs.Sink.Int n_moves);
                    ("fresh", Ocd_obs.Sink.Int fresh) ]
            ()
      end;
      List.iter
        (fun (m : Move.t) ->
          Schedule.Builder.push_move builder ~src:m.src ~dst:m.dst
            ~token:m.token)
        moves;
      Schedule.Builder.end_step builder;
      loop (step + 1) (if fresh > 0 then 0 else since_progress + 1)
    end
  in
  let outcome = loop 0 0 in
  (* The recorded schedule is re-checked independently, so reported
     numbers never rest on the kernel's own bookkeeping: wants must
     hold under [Wants]; a custom goal only needs §3.1 validity. *)
  let finish () =
    let schedule =
      Schedule.drop_trailing_empty (Schedule.Builder.to_schedule builder)
    in
    let check =
      match completion with
      | Wants -> Validate.check_successful
      | Custom _ -> Validate.check
    in
    (match outcome with
    | Completed -> (
      match check inst schedule with
      | Ok () -> ()
      | Error e ->
        strategy_fail "engine produced an invalid schedule: %a"
          Validate.pp_error e)
    | Stalled _ | Step_limit -> ());
    schedule
  in
  let schedule =
    match probe with
    | None -> finish ()
    | Some p -> Ocd_obs.Probe.time p lbl_post finish
  in
  if trace then
    Ocd_obs.Span.instant obs.Ocd_obs.sink ~pid:0 ~tid:0
      ~name:
        (match outcome with
        | Completed -> "completed"
        | Stalled _ -> "stalled"
        | Step_limit -> "step-limit")
      ~ts:(Schedule.length schedule) ();
  {
    ended = outcome;
    recorded = schedule;
    delivered = k.fresh_total;
    dropped = k.dropped_total;
  }

let run ?(obs = Ocd_obs.disabled) ?step_limit ?stall_patience ~strategy ~seed
    inst =
  let r =
    rounds ~obs ?step_limit ?stall_patience ~admission:Exact
      ~completion:Wants ~strategy ~seed inst
  in
  let metrics () = Metrics.of_schedule inst r.recorded in
  {
    strategy_name = strategy.Strategy.name;
    seed;
    outcome = r.ended;
    schedule = r.recorded;
    metrics =
      (match Ocd_obs.probe obs with
      | None -> metrics ()
      | Some p ->
        Ocd_obs.Probe.time p
          ("engine/" ^ strategy.Strategy.name ^ "/metrics")
          metrics);
    fresh_deliveries = r.delivered;
  }

let completed_exn run =
  match run.outcome with
  | Completed -> run
  | Stalled step ->
    failwith
      (Printf.sprintf "strategy %s stalled at step %d" run.strategy_name step)
  | Step_limit ->
    failwith (Printf.sprintf "strategy %s hit the step limit" run.strategy_name)
