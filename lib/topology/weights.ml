open Ocd_prelude

type policy = Uniform of int * int | Constant of int

let paper_default = Uniform (3, 15)

let draw rng = function
  | Constant c ->
    if c <= 0 then invalid_arg "Weights: non-positive constant capacity";
    c
  | Uniform (lo, hi) ->
    if lo <= 0 || hi < lo then invalid_arg "Weights: bad uniform bounds";
    Prng.int_in rng lo hi

(* An explicit loop, because [Array.init]'s evaluation order is
   unspecified and the draws must follow edge order. *)
let draw_array rng policy count =
  let caps = Array.make count 0 in
  for i = 0 to count - 1 do
    caps.(i) <- draw rng policy
  done;
  caps

let assign rng policy edges =
  List.map (fun (u, v) -> (u, v, draw rng policy)) edges
