open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph
module Condition = Ocd_dynamics.Condition
module Faults = Ocd_dynamics.Faults

type verdict = Partitioned | Unsatisfiable_window | Gave_up | Protocol_stall

type t = {
  outstanding : (int * int list) list;
  dead_at_horizon : int list;
  failed_jobs : int;
  sampled_rounds : int;
  partitioned_rounds : int;
  partition_cut_rounds : int;
  last_partition : int option;
  quiescent : bool;
  verdict : verdict;
}

let max_samples = 64

(* Vertices that can reach [target] in [g]: reverse BFS over pred. *)
let reaches g target =
  let n = Digraph.vertex_count g in
  let seen = Array.make n false in
  seen.(target) <- true;
  let queue = Queue.create () in
  Queue.add target queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Digraph.View.iter
      (fun u _ ->
        if not seen.(u) then begin
          seen.(u) <- true;
          Queue.add u queue
        end)
      (Digraph.pred g v)
  done;
  seen

let diagnose ~(instance : Instance.t) ~condition ~faults ~have ~rounds
    ~failed_jobs ~quiescent =
  let n = Instance.vertex_count instance in
  let outstanding =
    List.filter_map
      (fun v ->
        let missing = Bitset.diff instance.Instance.want.(v) have.(v) in
        if Bitset.is_empty missing then None
        else Some (v, Bitset.elements missing))
      (List.init n (fun v -> v))
  in
  let dead_at_horizon =
    List.filter
      (fun v -> not (Faults.up faults ~round:(Int.max 0 (rounds - 1)) v))
      (List.init n (fun v -> v))
  in
  (* Partition analysis: in the effective topology of a sampled round
     (condition and crashed nodes applied), can every outstanding want
     still be served by some initial holder?  Initial holders survive
     both durability models, so they are sound witnesses. *)
  let effective = Condition.compose condition (Faults.to_condition faults) in
  let stride = Int.max 1 (rounds / max_samples) in
  let sampled = ref 0 in
  let partitioned = ref 0 in
  let partition_cut = ref 0 in
  let last_partition = ref None in
  let round = ref 0 in
  while !round < rounds do
    incr sampled;
    let cut =
      match Condition.graph_at effective ~step:!round instance.Instance.graph with
      | None -> outstanding <> []
      | Some g ->
          List.exists
            (fun (v, tokens) ->
              let reach = reaches g v in
              List.exists
                (fun token ->
                  not
                    (List.exists
                       (fun holder -> reach.(holder))
                       (Instance.holders instance token)))
                tokens)
            outstanding
    in
    if cut then begin
      incr partitioned;
      (* Attribute the cut round to the partition plan when a split
         window was active: the distinction between "the environment's
         links flapped the wrong way" and "the network was split in
         two" is exactly what the verdict taxonomy is for. *)
      if Faults.partition_active faults ~round:!round then incr partition_cut;
      last_partition := Some !round
    end;
    round := !round + stride
  done;
  let verdict =
    if !partitioned > 0 then
      if !partition_cut > 0 then Partitioned else Unsatisfiable_window
    else if failed_jobs > 0 || quiescent then Gave_up
    else Protocol_stall
  in
  {
    outstanding;
    dead_at_horizon;
    failed_jobs;
    sampled_rounds = !sampled;
    partitioned_rounds = !partitioned;
    partition_cut_rounds = !partition_cut;
    last_partition = !last_partition;
    quiescent;
    verdict;
  }

let verdict_name = function
  | Partitioned -> "unsat-partition"
  | Unsatisfiable_window -> "unsat-window"
  | Gave_up -> "gave-up"
  | Protocol_stall -> "protocol-stall"
