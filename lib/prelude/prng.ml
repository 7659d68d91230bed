(* SplitMix64.  The 64-bit state is stored as two 32-bit native-int
   limbs, so a generator is a record of plain ints that [copy] and the
   draw helpers below read without touching Int64.  [step] rebuilds
   the state as an [int64] local and runs the mixer on it: ocamlopt
   keeps a let-bound [int64] that does not escape its function
   unboxed in a register, flambda or not, so a draw is one add, two
   multiplies and a few shifts, with no allocation.  test_prelude
   checks the stream, [split] and [mix] against an Int64 oracle. *)

type t = {
  mutable hi : int; (* state bits 32..63 *)
  mutable lo : int; (* state bits 0..31 *)
  (* mixed output of the latest [step], so the helpers below stay
     allocation-free (no tuple return) *)
  mutable out_hi : int;
  mutable out_lo : int;
}

let mask32 = 0xFFFFFFFF

(* golden gamma *)
let gamma = 0x9E3779B97F4A7C15L

(* Variant 13 of the 64-bit MurmurHash3 finaliser (the SplitMix64
   reference mixer).  Inlined at each use, so its argument and result
   stay unboxed. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] hi32 z = Int64.to_int (Int64.shift_right_logical z 32)
let[@inline] lo32 z = Int64.to_int z land mask32

(* Advance the Weyl sequence and mix; the draw lands in out_hi/out_lo. *)
let step g =
  let s =
    Int64.(add (logor (shift_left (of_int g.hi) 32) (of_int g.lo)) gamma)
  in
  g.hi <- hi32 s;
  g.lo <- lo32 s;
  let z = mix64 s in
  g.out_hi <- hi32 z;
  g.out_lo <- lo32 z

(* A generator whose state is mix64 [seed].  Inlined, like [output],
   so that [create] and [split] allocate the record and no Int64 box. *)
let[@inline] of_seed seed =
  let z = mix64 seed in
  { hi = hi32 z; lo = lo32 z; out_hi = 0; out_lo = 0 }

(* the latest [step]'s draw *)
let[@inline] output g =
  Int64.logor (Int64.shift_left (Int64.of_int g.out_hi) 32) (Int64.of_int g.out_lo)

(* [Int64.of_int] sign-extends the native seed to 64 bits. *)
let create ~seed = of_seed (Int64.of_int seed)

let bits64 g =
  step g;
  output g

(* Rejection sampling over 62 usable bits keeps the result exactly
   uniform even when [bound] does not divide the range.  Top-level
   recursion (not a local [let rec]) so a draw allocates nothing; the
   62 usable bits ((bits64 >>> 2) as a non-negative int) are extracted
   inline because the engines make hundreds of thousands of draws per
   step and each extra call layer is measurable. *)
let rec int_reject g bound =
  step g;
  let r = (g.out_hi lsl 30) lor (g.out_lo lsr 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_reject g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_reject g bound

let skip_int g bound =
  if bound <= 0 then invalid_arg "Prng.skip_int: bound must be positive";
  (* Same state evolution as [int g bound], value discarded.  A draw
     is rejected only when [r >= 2^62 - (2^62 mod bound)], and
     [2^62 mod bound <= bound - 1], so below the conservative
     threshold the single [step] is certainly accepted and the [mod]
     — a hardware division, the most expensive part of a draw — can
     be skipped.  The threshold is hit with probability under
     [bound / 2^62]; there the exact rejection logic replays. *)
  step g;
  let r = (g.out_hi lsl 30) lor (g.out_lo lsr 2) in
  if r >= max_int - bound + 2 then begin
    let v = r mod bound in
    if r - v > max_int - bound + 1 then ignore (int_reject g bound)
  end

let int_in g lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g bound =
  (* top 53 bits of the draw: (bits64 >>> 11) *)
  step g;
  let r = float_of_int ((g.out_hi lsl 21) lor (g.out_lo lsr 11)) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let exponential g ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  (* Inverse transform over u in [0, 1); 1 - u is in (0, 1], so the
     log is finite and the result non-negative. *)
  let u = float g 1.0 in
  -.mean *. log (1.0 -. u)

let bool g =
  step g;
  g.out_lo land 1 = 1

let bernoulli g p = float g 1.0 < p

let geometric g p =
  if p <= 0.0 then invalid_arg "Prng.geometric: p must be positive";
  if p >= 1.0 then 0
  else begin
    (* Inverse transform of the geometric distribution: number of
       failures before the next success of a Bernoulli(p) process from
       one uniform draw.  Clamped so extreme [p]/[u] pairs cannot
       overflow the int conversion. *)
    let u = float g 1.0 in
    let f = Float.log1p (-.u) /. Float.log1p (-.p) in
    if f >= 1.0e18 then max_int / 2 else int_of_float f
  end

let mix ~seed x =
  (* h = mix64 seed, exactly as [create] derives its initial state;
     fold the key in, decorrelate with one golden-gamma Weyl step so
     that [mix ~seed x] and [mix ~seed:(seed lxor x) 0] disagree, and
     finalise once more *)
  let h = mix64 (Int64.of_int seed) in
  let z = mix64 (Int64.add (Int64.logxor h (Int64.of_int x)) gamma) in
  (* 62 usable bits, same extraction as [int_reject] *)
  Int64.to_int (Int64.shift_right_logical z 2)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Prng.pick_list: empty list"
  | l -> List.nth l (int g (List.length l))

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first [k] positions are needed. *)
  for i = 0 to k - 1 do
    let j = i + int g (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)
