open Ocd_prelude

type t = {
  makespan : int;
  complete : bool;
  bandwidth : int;
  pruned_bandwidth : int;
  completion_times : int array;
}

let of_schedule inst schedule =
  let timeline = Timeline.run inst schedule in
  let completion = Timeline.completion_times timeline in
  let makespan = Array.fold_left Int.max 0 completion in
  (* The flags belong to this pass's [timeline]; pass 2 may overwrite
     them. *)
  let pruned_bandwidth =
    Prune.mark inst schedule (Timeline.first_deliveries timeline)
  in
  {
    makespan;
    complete = Timeline.complete timeline;
    bandwidth = Schedule.move_count schedule;
    pruned_bandwidth;
    completion_times = completion;
  }

let makespan_cell t = if t.complete then string_of_int t.makespan else "n/a"

let mean_completion t =
  let defined =
    Array.to_list t.completion_times |> List.filter (fun x -> x >= 0)
  in
  match defined with
  | [] -> 0.0
  | xs -> Stats.mean (List.map float_of_int xs)
