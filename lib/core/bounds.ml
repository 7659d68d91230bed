open Ocd_prelude
open Ocd_graph

let deficit_at (inst : Instance.t) have v =
  Bitset.diff inst.want.(v) have.(v)

let remaining_bandwidth inst ~have =
  let acc = ref 0 in
  for v = 0 to Instance.vertex_count inst - 1 do
    acc := !acc + Bitset.cardinal (deficit_at inst have v)
  done;
  !acc

let bandwidth_lower_bound (inst : Instance.t) =
  remaining_bandwidth inst ~have:inst.have

let ceil_div a b = (a + b - 1) / b

(* M_i(v) maximised over i, for one vertex: given the multiset of
   nearest-holder distances of v's deficit tokens, as (distance,
   multiplicity) pairs, the tokens farther than i hops cannot have
   arrived within i steps, and thereafter at most [in_capacity v]
   tokens arrive per step. *)
let vertex_bound (distances : (int * int) list) in_capacity =
  match distances with
  | [] -> 0
  | distances ->
    let by_pair (d, k) (d', k') =
      let c = Int.compare d d' in
      if c <> 0 then c else Int.compare k k'
    in
    let sorted = List.sort by_pair distances in
    let total = List.fold_left (fun acc (_, k) -> acc + k) 0 sorted in
    let max_d = fst (List.nth sorted (List.length sorted - 1)) in
    let intake = Int.max 1 in_capacity in
    (* Only radii at distance thresholds matter; scanning all i in
       [0, max_d] is fine at evaluation sizes. *)
    let rec outside (i : int) rest count =
      (* count = |{d > i}| given [rest] sorted ascending with [count]
         elements remaining > previous threshold *)
      match rest with
      | (d, k) :: tl when d <= i -> outside i tl (count - k)
      | _ -> (count, rest)
    in
    let best = ref 0 in
    let rest = ref sorted and count = ref total in
    for i = 0 to max_d do
      let c, r = outside i !rest !count in
      rest := r;
      count := c;
      best := Int.max !best (i + ceil_div c intake)
    done;
    !best

(* Needed tokens with the same holders share one forward multi-source
   BFS from them, which gives each vertex one distance for all the
   group's tokens it lacks: one source holding everything costs one
   BFS.  O(T·n + G·(n + m + n·T/63)) for G distinct holder sets. *)
let remaining_makespan (inst : Instance.t) ~have =
  let g = inst.graph in
  let n = Instance.vertex_count inst and m = inst.token_count in
  let { Digraph.row_off; row_dst; _ } = Digraph.succ_rows g in
  let deficit = Array.init n (deficit_at inst have) in
  let needed = Bitset.create m in
  Array.iter (Bitset.union_into needed) deficit;
  let holders = Array.init m (fun _ -> Bitset.create n) in
  Array.iteri
    (fun v s -> Bitset.iter (fun t -> Bitset.add holders.(t) v) s)
    have;
  (* holder set -> the needed tokens with exactly those holders *)
  let groups = Hashtbl.create 8 in
  Bitset.iter
    (fun token ->
      let key = holders.(token) in
      if not (Hashtbl.mem groups key) then
        Hashtbl.add groups key (Bitset.create m);
      Bitset.add (Hashtbl.find groups key) token)
    needed;
  let distances = Array.make n [] in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  let lacking = Bitset.create m in
  Hashtbl.iter
    (fun seeds tokens ->
      Array.fill dist 0 n (-1);
      let tail = ref 0 in
      Bitset.iter
        (fun v ->
          dist.(v) <- 0;
          queue.(!tail) <- v;
          incr tail)
        seeds;
      let head = ref 0 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for i = row_off.(u) to row_off.(u + 1) - 1 do
          let w = row_dst.(i) in
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(u) + 1;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done;
      for v = 0 to n - 1 do
        Bitset.assign lacking tokens;
        Bitset.inter_into lacking deficit.(v);
        let k = Bitset.cardinal lacking in
        if k > 0 then
          if dist.(v) < 0 then
            invalid_arg "Bounds.remaining_makespan: unreachable token"
          else distances.(v) <- (dist.(v), k) :: distances.(v)
      done)
    groups;
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := Int.max !best (vertex_bound distances.(v) (Digraph.in_capacity g v))
  done;
  !best

let makespan_lower_bound (inst : Instance.t) =
  remaining_makespan inst ~have:inst.have

let one_step_feasible (inst : Instance.t) ~have =
  let g = inst.graph in
  let ok = ref true in
  for v = 0 to Instance.vertex_count inst - 1 do
    if !ok then begin
      let deficit = deficit_at inst have v in
      let need = Bitset.cardinal deficit in
      if need > 0 then begin
        let supply = ref 0 in
        Digraph.View.iter
          (fun u cap ->
            let available = Bitset.cardinal (Bitset.inter deficit have.(u)) in
            supply := !supply + Int.min cap available)
          (Digraph.pred g v);
        (* Every individual token must also be present at some
           in-neighbour. *)
        let covered =
          Bitset.for_all
            (fun token ->
              Digraph.View.exists
                (fun u _ -> Bitset.mem have.(u) token)
                (Digraph.pred g v))
            deficit
        in
        if (not covered) || !supply < need then ok := false
      end
    end
  done;
  !ok
