open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph
module Engine = Ocd_engine.Engine
module Knowledge = Ocd_engine.Knowledge
module Int_tbl = Hashtbl.Make (Int_tab.Key)

let max_attempts = 8

(* Rounds past a token's planned arrival before the destination starts
   pulling it itself (covers a crashed or unreachable assigned sender). *)
let refetch_grace = 4

(* One outstanding planned transfer of [token] to [dst]. *)
type job = {
  dst : int;
  token : int;
  mutable attempts : int;
  mutable deadline : int;  (** retry when [now >= deadline] and unacked *)
}

(* The offline plan every full-knowledge node computes: global-greedy
   over the whole instance, seeded from the run seed.  The protocol and
   its synchronous twin both call this one function. *)
let plan ~seed inst =
  (Engine.run ~strategy:Ocd_heuristics.Global_greedy.strategy
     ~seed:((seed * 1_000_003) + 257) inst)
    .Engine.schedule

let sync_strategy ~seed =
  Ocd_engine.Flood_optimal.strategy ~planner:(plan ~seed)
    ~name:"flood-plan-lockstep"

(* The plan as the nodes read it: [start] is the round of step 0 and
   [length] the number of steps; [sent.(v)] lists [v]'s own moves as
   (step, dst, token) triples and [received.(v)] the moves into [v] as
   (step, token) pairs, both flat and in plan order (step, then the
   step's move order).  Built once per run, so a node's per-round work
   is its own part of the plan, never a scan of everyone's. *)
type shared = {
  start : int;
  length : int;
  sent : int array array;
  received : int array array;
}

let index ~n ~start steps =
  let sends = Array.make n 0 and receipts = Array.make n 0 in
  List.iter
    (List.iter (fun (m : Move.t) ->
         sends.(m.src) <- sends.(m.src) + 1;
         receipts.(m.dst) <- receipts.(m.dst) + 1))
    steps;
  let sent = Array.map (fun k -> Array.make (3 * k) 0) sends in
  let received = Array.map (fun k -> Array.make (2 * k) 0) receipts in
  Array.fill sends 0 n 0;
  Array.fill receipts 0 n 0;
  List.iteri
    (fun i moves ->
      List.iter
        (fun (m : Move.t) ->
          let row = sent.(m.src) and k = sends.(m.src) in
          row.(k) <- i;
          row.(k + 1) <- m.dst;
          row.(k + 2) <- m.token;
          sends.(m.src) <- k + 3;
          let row = received.(m.dst) and k = receipts.(m.dst) in
          row.(k) <- i;
          row.(k + 1) <- m.token;
          receipts.(m.dst) <- k + 2)
        moves)
    steps;
  { start; length = List.length steps; sent; received }

let protocol () =
  (* Shared across this run's nodes: every full-knowledge node would
     compute the identical (start round, plan) pair, so the first one
     to get there fills the cache for the rest.  It legitimately
     survives node crashes — a restarted node would recompute the exact
     same deterministic plan from the instance and seed. *)
  let plan_cell : shared option ref = ref None in
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let n = Instance.vertex_count inst in
    let neighbors = Array.of_list (Digraph.neighbors graph v) in
    let preds = Digraph.pred graph v in
    let known = Bitset.singleton n v in
    let neighbor_done : unit Int_tbl.t = Int_tbl.create 8 in
    (* (dst, token) -> its job, keyed [dst * token_count + token] *)
    let token_count = inst.Instance.token_count in
    let job_key dst token = (dst * token_count) + token in
    let jobs : job Int_tbl.t = Int_tbl.create 16 in
    let job_order : job list ref = ref [] in
    let cursor = ref 0 in
    (* Any traffic from a neighbour proves it is alive; the detector
       only ranks refetch candidates, it never blocks planned sends. *)
    let detector = Detector.create ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) () in
    (* token -> first round the plan delivers it to us, -1 if never;
       filled from the plan. *)
    let expected = Array.make inst.Instance.token_count (-1) in
    let expected_filled = ref false in
    (* token -> (pull attempts, retry deadline) for the fallback pull. *)
    let refetch : (int * int) Int_tbl.t = Int_tbl.create 8 in
    let ensure_plan () =
      match !plan_cell with
      | Some _ -> ()
      | None ->
          let start = Knowledge.steps_to_complete inst in
          plan_cell :=
            Some (index ~n ~start (Schedule.steps (plan ~seed:ctx.seed inst)))
    in
    let ensure_expected () =
      if not !expected_filled then
        match !plan_cell with
        | None -> ()
        | Some p ->
            let mine = p.received.(v) in
            for k = 0 to (Array.length mine / 2) - 1 do
              let token = mine.((2 * k) + 1) in
              if expected.(token) < 0 then
                expected.(token) <- p.start + mine.(2 * k)
            done;
            expected_filled := true
    in
    let flood () =
      if
        (not (Bitset.is_full known))
        || Int_tbl.length neighbor_done < Array.length neighbors
      then
        Array.iter
          (fun u ->
            if not (Int_tbl.mem neighbor_done u) then
              ctx.send ~dst:u (Message.State (Bitset.copy known)))
          neighbors
    in
    let enqueue_due_steps () =
      match !plan_cell with
      | None -> ()
      | Some p ->
          let round = ctx.now () / ctx.pace in
          let mine = p.sent.(v) in
          (* [cursor] walks [v]'s own (step, dst, token) triples *)
          while
            !cursor < Array.length mine && p.start + mine.(!cursor) <= round
          do
            let dst = mine.(!cursor + 1) and token = mine.(!cursor + 2) in
            let key = job_key dst token in
            if not (Int_tbl.mem jobs key) then begin
              let job = { dst; token; attempts = 0; deadline = 0 } in
              Int_tbl.add jobs key job;
              job_order := job :: !job_order
            end;
            cursor := !cursor + 3
          done
    in
    let pump () =
      let now = ctx.now () in
      let live = ref [] in
      List.iter
        (fun job ->
          let key = job_key job.dst job.token in
          if Int_tbl.mem jobs key then
            if job.attempts >= max_attempts then begin
              ctx.give_up ();
              Int_tbl.remove jobs key
            end
            else begin
              if now >= job.deadline && ctx.has job.token then begin
                if job.attempts > 0 then ctx.note_retransmission ();
                job.attempts <- job.attempts + 1;
                job.deadline <- now + (2 * ctx.pace);
                ctx.send ~dst:job.dst (Message.Data job.token)
              end;
              live := job :: !live
            end)
        (List.rev !job_order);
      job_order := List.rev !live
    in
    (* Fallback pull: if a wanted token is overdue — the plan should
       have delivered it [refetch_grace] rounds ago, or we lost it in a
       crash after its slot passed — stop waiting for the assigned
       sender and request it ourselves, rotating through in-neighbours
       and preferring ones the detector still trusts.  Draws no
       randomness, so the lockstep differential run is untouched (and
       there it never even triggers: planned sends land on time). *)
    let refetch_pass () =
      match !plan_cell with
      | None -> ()
      | Some p ->
          ensure_expected ();
          let now = ctx.now () in
          let plan_end = p.start + p.length in
          Bitset.iter
            (fun token ->
              if not (ctx.has token) then begin
                let due_round =
                  let r = expected.(token) in
                  (if r >= 0 then r else plan_end) + refetch_grace
                in
                if now >= due_round * ctx.pace then begin
                  let a, deadline =
                    match Int_tbl.find_opt refetch token with
                    | Some st -> st
                    | None -> (0, 0)
                  in
                  if now >= deadline && Digraph.View.length preds > 0 then begin
                    let trusted = ref [] in
                    Digraph.View.iter
                      (fun u _ ->
                        if not (Detector.suspected detector u) then
                          trusted := u :: !trusted)
                      preds;
                    let pool =
                      match List.rev !trusted with
                      | [] -> Array.to_list (Digraph.View.dsts preds)
                      | t -> t
                    in
                    let u = List.nth pool (a mod List.length pool) in
                    if a > 0 then ctx.note_retransmission ();
                    Int_tbl.replace refetch token (a + 1, now + (2 * ctx.pace));
                    ctx.send ~dst:u (Message.Request token)
                  end
                end
              end)
            inst.Instance.want.(v)
    in
    let rec round () =
      if not (ctx.finished ()) then begin
        flood ();
        ctx.after 1 (fun () ->
            if not (ctx.finished ()) then begin
              enqueue_due_steps ();
              pump ();
              refetch_pass ()
            end);
        ctx.after ctx.pace round
      end
    in
    let on_message ~src msg =
      Detector.heard detector src;
      match msg with
      | Message.State s ->
          Bitset.union_into known s;
          if Bitset.is_full s then Int_tbl.replace neighbor_done src ()
          else
            (* A partial State from a previously-done neighbour is the
               recovery handshake: it crashed, restarted with amnesia,
               and needs re-flooding to rebuild its knowledge. *)
            Int_tbl.remove neighbor_done src;
          if Bitset.is_full known then ensure_plan ()
      | Message.Data token ->
          ignore (ctx.receive ~src token);
          ctx.send ~dst:src (Message.Ack token)
      | Message.Ack token -> Int_tbl.remove jobs (job_key src token)
      | Message.Request token ->
          if ctx.has token then ctx.send ~dst:src (Message.Data token)
      | Message.Announce _ | Message.Dht _ -> ()
    in
    { Protocol.on_start = round; on_message }
  in
  { Protocol.name = "flood-plan"; init }
