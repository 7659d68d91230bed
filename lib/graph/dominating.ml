open Ocd_prelude

(* Closed neighbourhood of each vertex as a bitset over vertices. *)
let closed_neighborhoods g =
  let n = Digraph.vertex_count g in
  Array.init n (fun v ->
      let s = Bitset.create n in
      Bitset.add s v;
      List.iter (Bitset.add s) (Digraph.neighbors g v);
      s)

(* Depth-first search for a dominating set of size exactly <= k,
   choosing, at each step, a coverer for the lowest-numbered uncovered
   vertex (any dominating set must contain a vertex of that vertex's
   closed neighbourhood, so branching over it is complete). *)
let search_of_size g k =
  let n = Digraph.vertex_count g in
  let hoods = closed_neighborhoods g in
  let rec go covered chosen budget =
    if Bitset.cardinal covered = n then Some chosen
    else if budget = 0 then None
    else
      match
        List.find_opt (fun v -> not (Bitset.mem covered v)) (Order.range n)
      with
      | None -> Some chosen
      | Some uncovered ->
        let candidates = Bitset.elements hoods.(uncovered) in
        let try_candidate acc c =
          match acc with
          | Some _ -> acc
          | None ->
            let covered' = Bitset.union covered hoods.(c) in
            go covered' (c :: chosen) (budget - 1)
        in
        List.fold_left try_candidate None candidates
  in
  if n = 0 then Some [] else go (Bitset.create n) [] k

let exists_of_size g k = Option.is_some (search_of_size g k)

let minimum g =
  let n = Digraph.vertex_count g in
  let rec first k =
    match search_of_size g k with
    | Some d -> List.sort Int.compare d
    | None -> if k >= n then [] else first (k + 1)
  in
  if n = 0 then [] else first 0
