open Ocd_prelude

module Tracker = struct
  type t = {
    want : Bitset.t array;
    vertex_deficit : int array;
    mutable total_deficit : int;
    mutable satisfied : int;
    mutable fresh : int;
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
      fresh = 0;
      completion;
    }

  let deliver t ~step ~dst ~token =
    t.fresh <- t.fresh + 1;
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
  let fresh_deliveries t = t.fresh
  let completion_times t = t.completion
end

type view = {
  step : int;
  have : Bitset.t array;
  deficit : int;
  satisfied : int;
  moves : int;
  arrivals : Move.t list;
}

let fold (inst : Instance.t) schedule ~init ~f =
  let tracker = Tracker.create inst in
  let have = Array.map Bitset.copy inst.have in
  let token_count = inst.token_count in
  let view step moves arrivals =
    {
      step;
      have;
      deficit = Tracker.deficit tracker;
      satisfied = Tracker.satisfied tracker;
      moves;
      arrivals;
    }
  in
  let acc = ref (f init (view 0 0 [])) in
  let moves_so_far = ref 0 in
  for i = 0 to Schedule.length schedule - 1 do
    let step = i + 1 in
    (* Adding a token the moment its first delivering move is seen is
       equivalent to the simultaneous-delivery semantics: possession
       only grows, and nothing here reads source possession.  The
       membership test then doubles as the within-step (dst, token)
       dedup. *)
    let arrivals = ref [] in
    Schedule.iter_step schedule i (fun ~src ~dst ~token ->
        if
          token >= 0
          && token < token_count
          && not (Bitset.mem have.(dst) token)
        then begin
          Bitset.add have.(dst) token;
          Tracker.deliver tracker ~step ~dst ~token;
          arrivals := { Move.src; dst; token } :: !arrivals
        end);
    moves_so_far := !moves_so_far + Schedule.step_move_count schedule i;
    acc := f !acc (view step !moves_so_far (List.rev !arrivals))
  done;
  !acc

type t = {
  length : int;
  complete : bool;
  completion_times : int array;
  deficits : int array;
  satisfied_counts : int array;
  fresh : int;
  final : Bitset.t array;
}

let run (inst : Instance.t) schedule =
  let length = Schedule.length schedule in
  let deficits = Array.make (length + 1) 0 in
  let satisfied_counts = Array.make (length + 1) 0 in
  (* Same pass as [fold], inlined so the tracker (and its per-vertex
     completion array) is ours to keep in the result. *)
  let tracker = Tracker.create inst in
  let have = Array.map Bitset.copy inst.have in
  let token_count = inst.token_count in
  deficits.(0) <- Tracker.deficit tracker;
  satisfied_counts.(0) <- Tracker.satisfied tracker;
  for i = 0 to Schedule.length schedule - 1 do
    let step = i + 1 in
    Schedule.iter_step schedule i (fun ~src:_ ~dst ~token ->
        if
          token >= 0
          && token < token_count
          && not (Bitset.mem have.(dst) token)
        then begin
          Bitset.add have.(dst) token;
          Tracker.deliver tracker ~step ~dst ~token
        end);
    deficits.(step) <- Tracker.deficit tracker;
    satisfied_counts.(step) <- Tracker.satisfied tracker
  done;
  {
    length;
    complete = Tracker.all_satisfied tracker;
    completion_times = Tracker.completion_times tracker;
    deficits;
    satisfied_counts;
    fresh = Tracker.fresh_deliveries tracker;
    final = have;
  }

let length t = t.length
let complete t = t.complete
let completion_times t = t.completion_times

let makespan t =
  if t.complete then Some (Array.fold_left max 0 t.completion_times) else None

let boundary t name i =
  if i < 0 || i > t.length then
    invalid_arg (Printf.sprintf "Timeline.%s: boundary %d out of range" name i)

let deficit_at t i =
  boundary t "deficit_at" i;
  t.deficits.(i)

let satisfied_at t i =
  boundary t "satisfied_at" i;
  t.satisfied_counts.(i)

let fresh_deliveries t = t.fresh
let final t = t.final
