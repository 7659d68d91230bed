open Ocd_prelude
open Ocd_graph

let paper_p n =
  if n <= 1 then 1.0
  else Float.min 1.0 (2.0 *. log (float_of_int n) /. float_of_int n)

(* Link weakly-connected components into one by adding an edge between
   a representative of each consecutive component pair. *)
let repair_edges g rng =
  match Components.weakly_connected_components g with
  | [] | [ _ ] -> []
  | components ->
    let reps = List.map (fun c -> Prng.pick_list rng c) components in
    let rec pair = function
      | a :: (b :: _ as rest) -> (a, b) :: pair rest
      | [ _ ] | [] -> []
    in
    pair reps

(* Repair edges join distinct weakly-connected components, so none of
   them can duplicate an existing edge (or each other): splicing them
   into the built graph yields exactly the graph a full rebuild over
   all m+r edges would, without re-running the duplicate merge. *)
let connect_repair rng ~weights g =
  match repair_edges g rng with
  | [] -> g
  | extra ->
    let weighted_extra = Weights.assign rng weights extra in
    Digraph.add_undirected_edges g weighted_extra

(* Runs [sample] with an edge sink, then draws the capacities in edge
   order and builds the graph. *)
let build rng ~n ~weights sample =
  let src = Int_vec.create () in
  let dst = Int_vec.create () in
  sample (fun u v ->
      Int_vec.push src u;
      Int_vec.push dst v);
  let cap = Weights.draw_array rng weights (Int_vec.length src) in
  let src = Int_vec.to_array src and dst = Int_vec.to_array dst in
  let g = Digraph.of_undirected_arrays ~vertex_count:n ~src ~dst ~cap in
  connect_repair rng ~weights g

let skip_pairs rng ~k ~p f =
  if p > 0.0 then begin
    let v = ref 1 and w = ref (-1) in
    while !v < k do
      w := !w + 1 + Prng.geometric rng p;
      while !v < k && !w >= !v do
        w := !w - !v;
        incr v
      done;
      if !v < k then f !w !v
    done
  end

let erdos_renyi rng ~n ?p ?(weights = Weights.paper_default) () =
  if n <= 0 then invalid_arg "Random_graph.erdos_renyi: n <= 0";
  let p = match p with Some p -> p | None -> paper_p n in
  if p < 0.0 || p > 1.0 then invalid_arg "Random_graph.erdos_renyi: bad p";
  build rng ~n ~weights (skip_pairs rng ~k:n ~p)

(* Waxman's parameters: edge probability envelope and distance decay. *)
let alpha = 0.4
let beta = 0.2

let waxman rng ~n ?(weights = Weights.paper_default) () =
  if n <= 0 then invalid_arg "Random_graph.waxman: n <= 0";
  (* Explicit loops: all x coordinates are drawn before any y. *)
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  for i = 0 to n - 1 do
    xs.(i) <- Prng.float rng 1.0
  done;
  for i = 0 to n - 1 do
    ys.(i) <- Prng.float rng 1.0
  done;
  (* Thinned skip sampling: the acceptance probability is bounded by
     the envelope [alpha] (distance only lowers it), so skip-sample
     candidate pairs at rate alpha and accept each with
     p(d)/alpha = exp (-d / (beta * sqrt 2)).  Expected work is
     proportional to the candidate count alpha * n(n-1)/2. *)
  let max_dist = sqrt 2.0 in
  let env = Float.min alpha 1.0 in
  build rng ~n ~weights (fun edge ->
      skip_pairs rng ~k:n ~p:env (fun u v ->
          let d = Float.hypot (xs.(u) -. xs.(v)) (ys.(u) -. ys.(v)) in
          let accept = alpha *. exp (-.d /. (beta *. max_dist)) /. env in
          if Prng.float rng 1.0 < accept then edge u v))
