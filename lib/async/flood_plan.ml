open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph
module Engine = Ocd_engine.Engine
module Knowledge = Ocd_engine.Knowledge

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

let protocol () =
  (* Shared across this run's nodes: every full-knowledge node would
     compute the identical (start round, plan) pair, so the first one
     to get there fills the cache for the rest.  It legitimately
     survives node crashes — a restarted node would recompute the exact
     same deterministic plan from the instance and seed. *)
  let plan_cell : (int * Move.t list array) option ref = ref None in
  let init (ctx : Protocol.ctx) =
    let inst = ctx.instance in
    let graph = inst.Instance.graph in
    let v = ctx.vertex in
    let n = Instance.vertex_count inst in
    let neighbors = Array.of_list (Digraph.neighbors graph v) in
    let preds = Digraph.pred graph v in
    let known = Bitset.singleton n v in
    let neighbor_done : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let jobs : (int * int, job) Hashtbl.t = Hashtbl.create 16 in
    let job_order : job list ref = ref [] in
    let cursor = ref 0 in
    (* Any traffic from a neighbour proves it is alive; the detector
       only ranks refetch candidates, it never blocks planned sends. *)
    let detector = Detector.create ~on_suspect:(fun _ -> ctx.note_suspicion ())
        ~now:ctx.now ~timeout:(4 * ctx.pace) () in
    (* token -> round the plan delivers it to us; filled from the plan. *)
    let expected : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let expected_filled = ref false in
    (* token -> (pull attempts, retry deadline) for the fallback pull. *)
    let refetch : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
    let ensure_plan () =
      match !plan_cell with
      | Some _ -> ()
      | None ->
          let start = Knowledge.steps_to_complete inst in
          plan_cell :=
            Some (start, Array.of_list (Schedule.steps (plan ~seed:ctx.seed inst)))
    in
    let ensure_expected () =
      if not !expected_filled then
        match !plan_cell with
        | None -> ()
        | Some (start, steps) ->
            Array.iteri
              (fun i moves ->
                List.iter
                  (fun (m : Move.t) ->
                    if m.dst = v && not (Hashtbl.mem expected m.token) then
                      Hashtbl.add expected m.token (start + i))
                  moves)
              steps;
            expected_filled := true
    in
    let flood () =
      if Bitset.cardinal known < n || Hashtbl.length neighbor_done < Array.length neighbors
      then
        Array.iter
          (fun u ->
            if not (Hashtbl.mem neighbor_done u) then
              ctx.send ~dst:u (Message.State (Bitset.copy known)))
          neighbors
    in
    let enqueue_due_steps () =
      match !plan_cell with
      | None -> ()
      | Some (start, steps) ->
          let round = ctx.now () / ctx.pace in
          while !cursor < Array.length steps && start + !cursor <= round do
            List.iter
              (fun (m : Move.t) ->
                if m.src = v && not (Hashtbl.mem jobs (m.dst, m.token)) then begin
                  let job =
                    { dst = m.dst; token = m.token; attempts = 0; deadline = 0 }
                  in
                  Hashtbl.add jobs (m.dst, m.token) job;
                  job_order := job :: !job_order
                end)
              steps.(!cursor);
            incr cursor
          done
    in
    let pump () =
      let now = ctx.now () in
      let live = ref [] in
      List.iter
        (fun job ->
          if Hashtbl.mem jobs (job.dst, job.token) then
            if job.attempts >= max_attempts then begin
              ctx.give_up ();
              Hashtbl.remove jobs (job.dst, job.token)
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
      | Some (start, steps) ->
          ensure_expected ();
          let now = ctx.now () in
          let plan_end = start + Array.length steps in
          Bitset.iter
            (fun token ->
              if not (ctx.has token) then begin
                let due_round =
                  match Hashtbl.find_opt expected token with
                  | Some r -> r + refetch_grace
                  | None -> plan_end + refetch_grace
                in
                if now >= due_round * ctx.pace then begin
                  let a, deadline =
                    match Hashtbl.find_opt refetch token with
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
                    Hashtbl.replace refetch token (a + 1, now + (2 * ctx.pace));
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
          if Bitset.cardinal s = n then Hashtbl.replace neighbor_done src ()
          else
            (* A partial State from a previously-done neighbour is the
               recovery handshake: it crashed, restarted with amnesia,
               and needs re-flooding to rebuild its knowledge. *)
            Hashtbl.remove neighbor_done src;
          if Bitset.cardinal known = n then ensure_plan ()
      | Message.Data token ->
          ignore (ctx.receive ~src token);
          ctx.send ~dst:src (Message.Ack token)
      | Message.Ack token -> Hashtbl.remove jobs (src, token)
      | Message.Request token ->
          if ctx.has token then ctx.send ~dst:src (Message.Data token)
      | Message.Announce _ | Message.Dht _ -> ()
    in
    { Protocol.on_start = round; on_message }
  in
  { Protocol.name = "flood-plan"; init }
