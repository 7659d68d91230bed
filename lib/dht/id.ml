open Ocd_prelude

let bits = 62

(* The space has 2^62 points and OCaml's native int has exactly 62
   value bits above the sign on 64-bit platforms, so [max_int] is
   2^62 - 1 and [land max_int] is reduction mod 2^62 — including on
   intermediate sums that wander into the sign bit, whose low 62
   two's-complement bits are still correct. *)

let of_vertex ~seed v = Prng.mix ~seed (2 * v)
let of_key ~seed k = Prng.mix ~seed ((2 * k) + 1)

let dist ~from x = (x - from) land max_int

let in_oo ~(lo : int) ~(hi : int) (x : int) =
  if lo < hi then lo < x && x < hi
  else if lo = hi then x <> lo
  else x > lo || x < hi

let in_oc ~(lo : int) ~(hi : int) (x : int) =
  if lo < hi then lo < x && x <= hi
  else if lo = hi then true
  else x > lo || x <= hi

let finger_target id k =
  if k < 0 || k >= bits then invalid_arg "Id.finger_target: bad index";
  (id + (1 lsl k)) land max_int
