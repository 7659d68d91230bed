open Ocd_prelude

module Tracker = struct
  type t = {
    want : Bitset.t array;
    vertex_deficit : int array;
    mutable total_deficit : int;
    mutable satisfied : int;
    completion : int array;
  }

  let create (inst : Instance.t) =
    let n = Instance.vertex_count inst in
    let vertex_deficit = Array.make n 0 in
    let completion = Array.make n (-1) in
    let total = ref 0 and satisfied = ref 0 in
    for v = 0 to n - 1 do
      let d = Bitset.cardinal (Bitset.diff inst.want.(v) inst.have.(v)) in
      vertex_deficit.(v) <- d;
      total := !total + d;
      if d = 0 then begin
        incr satisfied;
        completion.(v) <- 0
      end
    done;
    {
      want = inst.want;
      vertex_deficit;
      total_deficit = !total;
      satisfied = !satisfied;
      completion;
    }

  let deliver t ~step ~dst ~token =
    if Bitset.mem t.want.(dst) token then begin
      let d = t.vertex_deficit.(dst) - 1 in
      t.vertex_deficit.(dst) <- d;
      t.total_deficit <- t.total_deficit - 1;
      if d = 0 then begin
        t.satisfied <- t.satisfied + 1;
        t.completion.(dst) <- step
      end
    end

  let all_satisfied t = t.total_deficit = 0
  let satisfied t = t.satisfied
  let deficit t = t.total_deficit
  let completion_times t = t.completion
end

(* The one replay of a schedule.  A move is a first delivery iff its
   token is in range and its destination does not yet hold it; [first
   k ~step ~dst ~token] is called for each, [k] being the move's index
   in emission order and [step] the boundary it lands at, and
   [boundary step have] for the initial state and after every step.
   Adding a token the moment its first delivering move is seen is
   equivalent to the simultaneous-delivery semantics: possession only
   grows, and nothing here reads source possession.  The membership
   test then doubles as the within-step (dst, token) dedup.  Returns
   the final possession. *)
let replay (inst : Instance.t) schedule ~first ~boundary =
  let have = Array.map Bitset.copy inst.have in
  let token_count = inst.token_count in
  let k = ref 0 in
  boundary 0 have;
  for i = 0 to Schedule.length schedule - 1 do
    let step = i + 1 in
    Schedule.iter_step schedule i (fun ~src:_ ~dst ~token ->
        if
          token >= 0
          && token < token_count
          && not (Bitset.mem have.(dst) token)
        then begin
          Bitset.add have.(dst) token;
          first !k ~step ~dst ~token
        end;
        incr k);
    boundary step have
  done;
  have

type view = {
  step : int;
  have : Bitset.t array;
  deficit : int;
  satisfied : int;
  moves : int;
}

let fold inst schedule ~init ~f =
  let tracker = Tracker.create inst in
  let acc = ref init and moves = ref 0 in
  ignore
    (replay inst schedule ~first:(fun _ ~step ~dst ~token ->
         Tracker.deliver tracker ~step ~dst ~token)
       ~boundary:(fun step have ->
         moves := !moves + Schedule.step_move_count schedule (step - 1);
         acc :=
           f !acc
             {
               step;
               have;
               deficit = Tracker.deficit tracker;
               satisfied = Tracker.satisfied tracker;
               moves = !moves;
             }));
  !acc

type t = { tracker : Tracker.t; final : Bitset.t array; firsts : Bytes.t }

let run inst schedule =
  let tracker = Tracker.create inst in
  let firsts = Bytes.make (Schedule.move_count schedule) '\000' in
  let final =
    replay inst schedule
      ~first:(fun k ~step ~dst ~token ->
        Bytes.set firsts k '\001';
        Tracker.deliver tracker ~step ~dst ~token)
      ~boundary:(fun _ _ -> ())
  in
  { tracker; final; firsts }

let complete t = Tracker.all_satisfied t.tracker
let completion_times t = Tracker.completion_times t.tracker
let final t = t.final
let first_deliveries t = t.firsts
