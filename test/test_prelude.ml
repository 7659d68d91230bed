(* Tests for ocd_prelude: Prng, Bitset, Stats, Pqueue, Order. *)

open Ocd_prelude

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.int g 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_prng_int_in_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_prng_int_covers_all_residues () =
  let g = Prng.create ~seed:9 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_bounds () =
  let g = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let g = Prng.create ~seed:4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli g 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli g 1.0)
  done

let test_prng_bool_mixes () =
  let g = Prng.create ~seed:6 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool g then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let test_shuffle_is_permutation () =
  let g = Prng.create ~seed:8 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let g = Prng.create ~seed:10 in
  for _ = 1 to 50 do
    let s = Prng.sample_without_replacement g 5 12 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter
      (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 12))
      s
  done

let test_sample_full () =
  let g = Prng.create ~seed:10 in
  let s = Prng.sample_without_replacement g 6 6 in
  Alcotest.(check (list int)) "all elements" (Order.range 6)
    (List.sort compare s)

let test_pick_singleton () =
  let g = Prng.create ~seed:2 in
  Alcotest.(check int) "array" 9 (Prng.pick g [| 9 |]);
  Alcotest.(check int) "list" 9 (Prng.pick_list g [ 9 ])

let test_prng_invalid_args () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in g 3 2));
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick g [||]));
  Alcotest.check_raises "exponential mean 0"
    (Invalid_argument "Prng.exponential: mean must be positive") (fun () ->
      ignore (Prng.exponential g ~mean:0.0))

let test_prng_exponential_deterministic () =
  let a = Prng.create ~seed:11 and b = Prng.create ~seed:11 in
  for _ = 1 to 50 do
    Alcotest.(check (float 0.0))
      "same draws"
      (Prng.exponential a ~mean:8.0)
      (Prng.exponential b ~mean:8.0)
  done

let test_prng_exponential_distribution () =
  let g = Prng.create ~seed:12 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential g ~mean:8.0 in
    Alcotest.(check bool) "non-negative" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  (* stderr of the sample mean is mean/sqrt(n) ~ 0.036; 0.3 is ~8 sigma *)
  Alcotest.(check bool) "sample mean near 8"
    true
    (Float.abs (mean -. 8.0) < 0.3)

(* The production generator stores its 64-bit state as two 32-bit
   native-int limbs and rebuilds it as an Int64 local to mix
   (prng.ml); this reference is the textbook Int64 SplitMix64 it must
   reproduce bit for bit. *)
module Prng_ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))

  let create ~seed = { state = mix64 (Int64.of_int seed) }

  let bits64 g =
    g.state <- Int64.add g.state golden_gamma;
    mix64 g.state

  (* Prng.mix as prng.mli states it: mix64 of (mix64 seed xor x)
     advanced by one golden-gamma Weyl step, top 62 bits. *)
  let mix ~seed x =
    let h = mix64 (Int64.of_int seed) in
    let z = mix64 (Int64.add (Int64.logxor h (Int64.of_int x)) golden_gamma) in
    Int64.to_int (Int64.shift_right_logical z 2)
end

(* Seeds that exercise limb carries and sign extension. *)
let oracle_seeds = [ 0; 1; 42; -1; -123456789; max_int; min_int; 0x123456789ABCDEF ]

let test_prng_matches_int64_oracle () =
  List.iter
    (fun seed ->
      let a = Prng.create ~seed and b = Prng_ref.create ~seed in
      for _ = 0 to 1999 do
        Alcotest.(check int64) "stream" (Prng_ref.bits64 b) (Prng.bits64 a)
      done)
    oracle_seeds

(* Every DHT id, per-pair Net seed and campaign seed goes through
   [Prng.mix]; pin it against the reference at the oracle's seeds, on
   both arguments. *)
let test_mix_matches_int64_oracle () =
  List.iter
    (fun seed ->
      List.iter
        (fun x ->
          Alcotest.(check int)
            (Printf.sprintf "mix ~seed:%d %d" seed x)
            (Prng_ref.mix ~seed x) (Prng.mix ~seed x))
        oracle_seeds)
    oracle_seeds

let test_prng_skip_int_advances_like_int () =
  (* skip_int must leave the generator in exactly the state int would
     (the engines use it to consume shuffle draws without the values),
     across small bounds, word-size bounds and bounds large enough to
     make rejection plausible. *)
  let bounds = [ 1; 2; 3; 7; 63; 64; 65; 1000; max_int / 2; max_int ] in
  let a = Prng.create ~seed:2026 and b = Prng.create ~seed:2026 in
  for round = 0 to 199 do
    let bound = List.nth bounds (round mod List.length bounds) in
    ignore (Prng.int a bound);
    Prng.skip_int b bound;
    Alcotest.(check int64)
      (Printf.sprintf "state after bound %d" bound)
      (Prng.bits64 a) (Prng.bits64 b)
  done

(* ------------------------------------------------------------------ *)
(* Mixing hash                                                         *)
(* ------------------------------------------------------------------ *)

let test_mix_deterministic () =
  List.iter
    (fun seed ->
      List.iter
        (fun x ->
          let h = Prng.mix ~seed x in
          Alcotest.(check int) "same inputs, same hash" h (Prng.mix ~seed x);
          Alcotest.(check bool) "62-bit range" true (h >= 0 && h <= max_int))
        [ 0; 1; 2; 3; 1000; max_int; min_int; -7 ])
    [ 0; 1; 42; -1; max_int ]

let test_mix_seed_and_input_sensitivity () =
  Alcotest.(check bool)
    "different seeds decorrelate" true
    (Prng.mix ~seed:1 7 <> Prng.mix ~seed:2 7);
  Alcotest.(check bool)
    "different inputs decorrelate" true
    (Prng.mix ~seed:1 7 <> Prng.mix ~seed:1 8)

let test_mix_avalanche () =
  (* Flipping one input bit must flip about half of the 62 output
     bits.  Mean flip ratio over many (input, bit) pairs sits near 0.5
     for a good mixer; the tolerance band is generous enough to be
     seed-robust yet far below what a weak hash (e.g. multiply-only)
     achieves on low bits. *)
  let popcount x =
    let c = ref 0 in
    for b = 0 to 61 do
      if (x lsr b) land 1 = 1 then incr c
    done;
    !c
  in
  let trials = ref 0 and flipped_bits = ref 0 in
  for x = 0 to 199 do
    let h = Prng.mix ~seed:9 x in
    for bit = 0 to 61 do
      let h' = Prng.mix ~seed:9 (x lxor (1 lsl bit)) in
      incr trials;
      flipped_bits := !flipped_bits + popcount (h lxor h')
    done
  done;
  let ratio = float_of_int !flipped_bits /. (62.0 *. float_of_int !trials) in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche ratio %.4f within [0.47, 0.53]" ratio)
    true
    (ratio > 0.47 && ratio < 0.53)

let test_mix_distribution () =
  (* Consecutive integers (the common vertex/key pattern) must spread
     evenly: hash 4096 consecutive inputs into 64 buckets by their top
     bits and check no bucket is wildly off the mean of 64. *)
  let buckets = Array.make 64 0 in
  for x = 0 to 4095 do
    let b = Prng.mix ~seed:2026 x lsr 56 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d within [32, 96]" i c)
        true
        (c >= 32 && c <= 96))
    buckets

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_empty () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty s);
  Alcotest.(check (list int)) "elements" [] (Bitset.elements s)

let test_bitset_add_remove () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check (list int)) "after remove" [ 0; 64; 99 ] (Bitset.elements s);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "mem 63" false (Bitset.mem s 63)

let test_bitset_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.add s 5;
  Alcotest.(check int) "cardinal" 1 (Bitset.cardinal s)

let test_bitset_full () =
  let s = Bitset.full 130 in
  Alcotest.(check int) "cardinal" 130 (Bitset.cardinal s);
  Alcotest.(check bool) "mem last" true (Bitset.mem s 129)

let test_bitset_ops () =
  let a = Bitset.of_list 100 [ 1; 2; 3; 64 ] in
  let b = Bitset.of_list 100 [ 2; 3; 4; 65 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 64; 65 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 2; 3 ]
    (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 64 ]
    (Bitset.elements (Bitset.diff a b))

let test_bitset_subset_disjoint () =
  let a = Bitset.of_list 80 [ 1; 70 ] in
  let b = Bitset.of_list 80 [ 1; 5; 70 ] in
  let c = Bitset.of_list 80 [ 2; 6 ] in
  Alcotest.(check bool) "a ⊆ b" true (Bitset.subset a b);
  Alcotest.(check bool) "b ⊄ a" false (Bitset.subset b a);
  Alcotest.(check bool) "c ⊄ a" false (Bitset.subset c a)

let test_bitset_next_member () =
  let s = Bitset.of_list 200 [ 3; 62; 63; 150 ] in
  Alcotest.(check (option int)) "from 0" (Some 3) (Bitset.next_member s 0);
  Alcotest.(check (option int)) "from 4" (Some 62) (Bitset.next_member s 4);
  Alcotest.(check (option int)) "from 63" (Some 63) (Bitset.next_member s 63);
  Alcotest.(check (option int)) "from 64" (Some 150) (Bitset.next_member s 64);
  Alcotest.(check (option int)) "from 151" None (Bitset.next_member s 151);
  Alcotest.(check (option int)) "past capacity" None (Bitset.next_member s 200)

let test_bitset_into_ops () =
  let a = Bitset.of_list 70 [ 1; 65 ] in
  let b = Bitset.of_list 70 [ 2; 65 ] in
  Bitset.union_into a b;
  Alcotest.(check (list int)) "union_into" [ 1; 2; 65 ] (Bitset.elements a);
  Bitset.diff_into a (Bitset.of_list 70 [ 1 ]);
  Alcotest.(check (list int)) "diff_into" [ 2; 65 ] (Bitset.elements a);
  Bitset.inter_into a (Bitset.of_list 70 [ 2; 3 ]);
  Alcotest.(check (list int)) "inter_into" [ 2 ] (Bitset.elements a)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  Alcotest.(check (list int)) "original untouched" [ 1 ] (Bitset.elements a)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> Bitset.union_into a b)

let test_bitset_out_of_range () =
  let a = Bitset.create 10 in
  Alcotest.check_raises "range" (Invalid_argument "Bitset: element out of range")
    (fun () -> Bitset.add a 10)

(* Property tests against a sorted-list model. *)
let bitset_model_gen =
  QCheck.Gen.(
    let* cap = int_range 1 150 in
    let* elts = list_size (int_range 0 60) (int_range 0 (cap - 1)) in
    return (cap, List.sort_uniq compare elts))

let bitset_pair_gen =
  QCheck.Gen.(
    let* cap = int_range 1 150 in
    let* xs = list_size (int_range 0 60) (int_range 0 (cap - 1)) in
    let* ys = list_size (int_range 0 60) (int_range 0 (cap - 1)) in
    return (cap, List.sort_uniq compare xs, List.sort_uniq compare ys))

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset elements = model" ~count:300
    (QCheck.make bitset_model_gen) (fun (cap, elts) ->
      Bitset.elements (Bitset.of_list cap elts) = elts)

let prop_bitset_union =
  QCheck.Test.make ~name:"bitset union = model union" ~count:300
    (QCheck.make bitset_pair_gen) (fun (cap, xs, ys) ->
      Bitset.elements (Bitset.union (Bitset.of_list cap xs) (Bitset.of_list cap ys))
      = List.sort_uniq compare (xs @ ys))

let prop_bitset_inter =
  QCheck.Test.make ~name:"bitset inter = model inter" ~count:300
    (QCheck.make bitset_pair_gen) (fun (cap, xs, ys) ->
      Bitset.elements (Bitset.inter (Bitset.of_list cap xs) (Bitset.of_list cap ys))
      = List.filter (fun x -> List.mem x ys) xs)

let prop_bitset_diff =
  QCheck.Test.make ~name:"bitset diff = model diff" ~count:300
    (QCheck.make bitset_pair_gen) (fun (cap, xs, ys) ->
      Bitset.elements (Bitset.diff (Bitset.of_list cap xs) (Bitset.of_list cap ys))
      = List.filter (fun x -> not (List.mem x ys)) xs)

let prop_bitset_cardinal =
  QCheck.Test.make ~name:"bitset cardinal = model length" ~count:300
    (QCheck.make bitset_model_gen) (fun (cap, elts) ->
      Bitset.cardinal (Bitset.of_list cap elts) = List.length elts)

let test_bitset_full_word_boundaries () =
  (* Capacities around the 63-bit word size: the last word's partial
     mask is where a fill/full bug would over- or under-set bits. *)
  List.iter
    (fun cap ->
      let s = Bitset.full cap in
      Alcotest.(check int)
        (Printf.sprintf "cardinal at %d" cap)
        cap (Bitset.cardinal s);
      Alcotest.(check (list int))
        (Printf.sprintf "elements at %d" cap)
        (List.init cap Fun.id) (Bitset.elements s))
    [ 0; 1; 62; 63; 64; 125; 126; 127; 189 ]

let test_bitset_popcount () =
  (* every bit of a word counts, the sign bit included *)
  List.iter
    (fun (w, expected) ->
      Alcotest.(check int) (Printf.sprintf "popcount %d" w) expected
        (Bitset.popcount w))
    [ (0, 0); (1, 1); (0b1011, 3); (max_int, Sys.int_size - 1);
      (min_int, 1); (-1, Sys.int_size) ]

let test_bitset_fill_matches_full () =
  List.iter
    (fun cap ->
      let s = Bitset.of_list cap (if cap = 0 then [] else [ cap - 1 ]) in
      Bitset.fill s;
      Alcotest.(check int)
        (Printf.sprintf "fill cardinal at %d" cap)
        cap (Bitset.cardinal s);
      Alcotest.(check bool)
        (Printf.sprintf "fill = full at %d" cap)
        true
        (Bitset.elements s = Bitset.elements (Bitset.full cap)))
    [ 0; 1; 62; 63; 64; 126; 200 ]

let prop_bitset_full =
  QCheck.Test.make ~name:"bitset full = model range" ~count:200
    QCheck.(make Gen.(int_range 0 300))
    (fun cap ->
      let s = Bitset.full cap in
      Bitset.cardinal s = cap && Bitset.elements s = List.init cap Fun.id)

let prop_bitset_fill =
  QCheck.Test.make ~name:"bitset fill saturates any set" ~count:200
    (QCheck.make bitset_model_gen) (fun (cap, elts) ->
      let s = Bitset.of_list cap elts in
      Bitset.fill s;
      Bitset.cardinal s = cap && Bitset.elements s = List.init cap Fun.id)

(* [is_full] against its definition at capacities 0-200, weighted
   towards the word boundaries: random sets, full ones, full ones with
   one element removed, and empty ones. *)
let is_full_gen =
  QCheck.Gen.(
    let* cap =
      oneof [ int_range 0 200; oneofl [ 0; 1; 62; 63; 64; 126; 127; 189 ] ]
    in
    let top = Int.max 0 (cap - 1) in
    let* kind = oneofl [ `Random; `Full; `Holed; `Empty ] in
    let* elts = list_size (int_range 0 (2 * cap)) (int_range 0 top) in
    let* hole = int_range 0 top in
    return
      (match kind with
      | `Random -> Bitset.of_list cap elts
      | `Full -> Bitset.full cap
      | `Holed ->
          let s = Bitset.full cap in
          if cap > 0 then Bitset.remove s hole;
          s
      | `Empty -> Bitset.create cap))

let prop_bitset_is_full =
  QCheck.Test.make ~name:"bitset is_full = cardinal is capacity" ~count:500
    (QCheck.make
       ~print:(fun s ->
         Printf.sprintf "capacity %d, %d elements" (Bitset.capacity s)
           (Bitset.cardinal s))
       is_full_gen)
    (fun s -> Bitset.is_full s = (Bitset.cardinal s = Bitset.capacity s))

(* [Bitset.Rows] against an array of sets, at capacities on both sides
   of each word boundary: a random run of adds, a copy taken halfway
   through, and a random set to subtract each row from and join each
   row into. *)
let rows_gen =
  QCheck.Gen.(
    let* cap = oneofl [ 1; 62; 63; 64; 65; 126; 127 ] in
    let* n = int_range 1 6 in
    let* adds =
      list_size (int_range 0 80)
        (pair (int_range 0 (n - 1)) (int_range 0 (cap - 1)))
    in
    let* other = list_size (int_range 0 40) (int_range 0 (cap - 1)) in
    return (cap, n, adds, other))

let prop_bitset_rows =
  QCheck.Test.make ~name:"bitset rows = array-of-sets model" ~count:300
    (QCheck.make rows_gen) (fun (cap, n, adds, other) ->
      let model = Array.init n (fun _ -> Bitset.create cap) in
      let rows = Bitset.Rows.of_sets cap model in
      let half = List.length adds / 2 in
      let snapshot = ref (Bitset.Rows.copy rows, Array.map Bitset.copy model) in
      let fresh_ok =
        List.for_all Fun.id
          (List.mapi
             (fun i (v, x) ->
               if i = half then
                 snapshot := (Bitset.Rows.copy rows, Array.map Bitset.copy model);
               let fresh = not (Bitset.mem model.(v) x) in
               Bitset.add model.(v) x;
               Bitset.Rows.add rows v x = fresh)
             adds)
      in
      let agrees rows model =
        let other = Bitset.of_list cap other in
        let row = Bitset.create cap and rest = Bitset.copy other in
        let joined = Bitset.copy other in
        let bpw = Bitset.bits_per_word in
        List.for_all
          (fun v ->
            Bitset.Rows.into row rows v;
            Bitset.assign rest other;
            Bitset.Rows.diff_into rest rows v;
            Bitset.assign joined other;
            Bitset.Rows.union_into joined rows v;
            Bitset.equal row model.(v)
            && Bitset.equal rest (Bitset.diff other model.(v))
            && Bitset.equal joined (Bitset.union other model.(v))
            && Bitset.Rows.is_empty rows v = Bitset.is_empty model.(v)
            && Bitset.Rows.cardinal rows v = Bitset.cardinal model.(v)
            && Bitset.Rows.next_member rows v cap = -1
            && Bitset.Rows.next_member rows v (-1) = -1
            && List.for_all
                 (fun x ->
                   let in_word =
                     Bitset.Rows.word rows v (x / bpw) land (1 lsl (x mod bpw))
                     <> 0
                   in
                   Bitset.Rows.mem rows v x = Bitset.mem model.(v) x
                   && in_word = Bitset.mem model.(v) x
                   && Bitset.Rows.next_member rows v x
                      = Option.value (Bitset.next_member model.(v) x) ~default:(-1))
                 (List.init cap Fun.id))
          (List.init n Fun.id)
      in
      let copy_rows, copy_model = !snapshot in
      fresh_ok
      && Bitset.Rows.stride rows = Bitset.words_for cap
      && agrees rows model
      && agrees (Bitset.Rows.of_sets cap model) model
      && agrees copy_rows copy_model)

(* ------------------------------------------------------------------ *)
(* Int_tab                                                             *)
(* ------------------------------------------------------------------ *)

let test_int_tab_incr_and_find () =
  let t = Int_tab.create () in
  Alcotest.(check int) "absent finds 0" 0 (Int_tab.find t 7);
  Alcotest.(check bool) "absent not mem" false (Int_tab.mem t 7);
  Alcotest.(check int) "first incr" 1 (Int_tab.incr t 7);
  Alcotest.(check int) "second incr" 2 (Int_tab.incr t 7);
  Alcotest.(check int) "other key" 1 (Int_tab.incr t 8);
  Alcotest.(check int) "find" 2 (Int_tab.find t 7);
  Alcotest.(check bool) "mem" true (Int_tab.mem t 7);
  Alcotest.(check int) "length" 2 (Int_tab.length t)

let test_int_tab_set_overwrites () =
  let t = Int_tab.create () in
  Int_tab.set t 5 10;
  Int_tab.set t 5 20;
  Alcotest.(check int) "overwritten" 20 (Int_tab.find t 5);
  Alcotest.(check int) "single entry" 1 (Int_tab.length t);
  Alcotest.(check int) "incr from set" 21 (Int_tab.incr t 5)

let test_int_tab_clear_is_generation () =
  (* clear is an O(1) stamp bump; stale slots from earlier generations
     must be invisible, including after many clears. *)
  let t = Int_tab.create ~capacity:4 () in
  for gen = 1 to 50 do
    Int_tab.clear t;
    Alcotest.(check int) "empty after clear" 0 (Int_tab.length t);
    Alcotest.(check int) "stale key gone" 0 (Int_tab.find t gen);
    Alcotest.(check int) "fresh incr" 1 (Int_tab.incr t gen);
    Alcotest.(check int) "fresh incr other" 1 (Int_tab.incr t (gen + 1000))
  done

let test_int_tab_growth_preserves () =
  let t = Int_tab.create ~capacity:2 () in
  (* Sparse, collision-prone keys (packed arc ids are sparse too). *)
  for i = 0 to 999 do
    Int_tab.set t (i * 7919) i
  done;
  Alcotest.(check int) "length" 1000 (Int_tab.length t);
  let ok = ref true in
  for i = 0 to 999 do
    if Int_tab.find t (i * 7919) <> i then ok := false
  done;
  Alcotest.(check bool) "all values survive growth" true !ok

let prop_int_tab_matches_hashtbl =
  QCheck.Test.make ~name:"int_tab incr = hashtbl model" ~count:200
    QCheck.(list (pair (int_range (-50) 50) (int_range 0 3)))
    (fun ops ->
      (* op = (key, 0|1 incr / 2 set / 3 clear); compare against a
         Hashtbl model after every operation. *)
      let t = Int_tab.create ~capacity:2 () in
      let m = Hashtbl.create 16 in
      List.for_all
        (fun (key, op) ->
          match op with
          | 3 ->
            Int_tab.clear t;
            Hashtbl.reset m;
            Int_tab.length t = 0
          | 2 ->
            Int_tab.set t key 99;
            Hashtbl.replace m key 99;
            Int_tab.find t key = 99
          | _ ->
            let v = Int_tab.incr t key in
            let v' = (try Hashtbl.find m key with Not_found -> 0) + 1 in
            Hashtbl.replace m key v';
            v = v' && Int_tab.length t = Hashtbl.length m)
        ops)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let feq = Alcotest.(check (float 1e-9))

let test_stats_mean () = feq "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_summary () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  feq "mean" 5.0 s.Stats.mean;
  (* sample stddev: sum of squared deviations is 32 over n-1 = 7 *)
  feq "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  feq "min" 2.0 s.Stats.min;
  feq "max" 9.0 s.Stats.max;
  Alcotest.(check int) "count" 8 s.Stats.count

let test_stats_median_even () =
  feq "median" 4.5 (Stats.summarize [ 1.0; 4.0; 5.0; 9.0 ]).Stats.median

let test_stats_median_odd () =
  feq "median" 4.0 (Stats.summarize [ 9.0; 4.0; 1.0 ]).Stats.median

let test_stats_percentile () =
  feq "p0" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  feq "p100" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 1.0);
  feq "p50" 2.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.5)

let test_stats_singleton () =
  let s = Stats.summarize [ 5.0 ] in
  feq "mean" 5.0 s.Stats.mean;
  feq "stddev" 0.0 s.Stats.stddev

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize []))

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~priority:p p) [ 5; 1; 4; 2; 3 ];
  let popped = List.init 5 (fun _ -> Option.get (Pqueue.pop q) |> snd) in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] popped;
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_duplicates () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q ~priority:1 x) [ "x"; "y"; "z" ];
  Pqueue.push q ~priority:0 "w";
  (match Pqueue.pop q with
  | Some (0, "w") -> ()
  | _ -> Alcotest.fail "min first");
  Alcotest.(check int) "rest" 3 (Pqueue.length q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list small_int) (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q ~priority:x x) xs;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (_, x) -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let test_pqueue_growth () =
  let q = Pqueue.create () in
  for i = 100 downto 1 do
    Pqueue.push q ~priority:i i
  done;
  Alcotest.(check int) "length" 100 (Pqueue.length q);
  (match Pqueue.pop q with
  | Some (1, 1) -> ()
  | _ -> Alcotest.fail "min across growth")

let test_pqueue_fifo_ties () =
  (* Equal priorities drain in insertion order — the discrete-event
     simulator's determinism rests on this. *)
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q ~priority:1 x) [ "a"; "b"; "c"; "d" ];
  Pqueue.push q ~priority:0 "head";
  List.iter (fun x -> Pqueue.push q ~priority:1 x) [ "e"; "f" ];
  let drained = List.init 7 (fun _ -> Option.get (Pqueue.pop q) |> snd) in
  Alcotest.(check (list string))
    "FIFO within a priority"
    [ "head"; "a"; "b"; "c"; "d"; "e"; "f" ]
    drained

let test_pqueue_fifo_ties_interleaved () =
  (* Ties stay FIFO even when pops interleave with pushes. *)
  let q = Pqueue.create () in
  Pqueue.push q ~priority:2 "x1";
  Pqueue.push q ~priority:2 "x2";
  (match Pqueue.pop q with
  | Some (2, "x1") -> ()
  | _ -> Alcotest.fail "first push first");
  Pqueue.push q ~priority:2 "x3";
  Alcotest.(check (list string))
    "remaining order" [ "x2"; "x3" ]
    (List.init 2 (fun _ -> Option.get (Pqueue.pop q) |> snd))

let prop_pqueue_stable =
  QCheck.Test.make ~name:"pqueue ties drain in insertion order" ~count:200
    QCheck.(list (int_range 0 3))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.push q ~priority:k (k, i)) keys;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (_, x) -> drain (x :: acc)
      in
      (* sorting (key, insertion index) pairs lexicographically is
         exactly stable-by-key order *)
      drain [] = List.sort compare (List.mapi (fun i k -> (k, i)) keys))

(* ------------------------------------------------------------------ *)
(* Order                                                               *)
(* ------------------------------------------------------------------ *)

let test_order_sort_by_stable () =
  Alcotest.(check (list string)) "stable" [ "b"; "c"; "aa"; "dd" ]
    (Order.sort_by String.length [ "aa"; "b"; "dd"; "c" ] |> fun l ->
     (* equal keys keep input order: b before c, aa before dd *)
     l)

let test_order_take () =
  Alcotest.(check (list int)) "take 2" [ 1; 2 ] (Order.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Order.take 5 [ 1 ]);
  Alcotest.(check (list int)) "take 0" [] (Order.take 0 [ 1 ])

let test_order_range () =
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Order.range 3);
  Alcotest.(check (list int)) "range 0" [] (Order.range 0)

(* [stable_sort_by_key] against [List.stable_sort] on element ids with
   few distinct keys (many ties), at lengths on both sides of the
   insertion-sort cutoff. *)
let prop_int_vec_stable_sorts =
  QCheck.Test.make ~name:"Int_vec stable sorts = List.stable_sort" ~count:300
    QCheck.(pair (int_range 0 150) (int_range 0 1000))
    (fun (len, seed) ->
      let rng = Prng.create ~seed in
      let key = Array.init len (fun _ -> Prng.int rng 5) in
      let ids = List.init len Fun.id in
      let shuffled = Array.of_list ids in
      Prng.shuffle rng shuffled;
      let expected =
        List.stable_sort
          (fun a b -> compare key.(a) key.(b))
          (Array.to_list shuffled)
      in
      let sorted sort =
        let v = Int_vec.create () in
        Array.iter (Int_vec.push v) shuffled;
        sort v;
        Array.to_list (Int_vec.to_array v)
      in
      sorted (Int_vec.stable_sort_by_key key) = expected)

let () =
  Alcotest.run "ocd_prelude"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
          Alcotest.test_case "int covers residues" `Quick
            test_prng_int_covers_all_residues;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bool mixes" `Quick test_prng_bool_mixes;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "sample full" `Quick test_sample_full;
          Alcotest.test_case "pick singleton" `Quick test_pick_singleton;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid_args;
          Alcotest.test_case "exponential deterministic" `Quick
            test_prng_exponential_deterministic;
          Alcotest.test_case "exponential distribution" `Quick
            test_prng_exponential_distribution;
          Alcotest.test_case "matches Int64 oracle" `Quick
            test_prng_matches_int64_oracle;
          Alcotest.test_case "mix matches Int64 oracle" `Quick
            test_mix_matches_int64_oracle;
          Alcotest.test_case "skip_int advances like int" `Quick
            test_prng_skip_int_advances_like_int;
          Alcotest.test_case "mix deterministic" `Quick test_mix_deterministic;
          Alcotest.test_case "mix sensitivity" `Quick
            test_mix_seed_and_input_sensitivity;
          Alcotest.test_case "mix avalanche" `Quick test_mix_avalanche;
          Alcotest.test_case "mix distribution" `Quick test_mix_distribution;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "add idempotent" `Quick test_bitset_add_idempotent;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
          Alcotest.test_case "subset/disjoint" `Quick test_bitset_subset_disjoint;
          Alcotest.test_case "next_member" `Quick test_bitset_next_member;
          Alcotest.test_case "in-place ops" `Quick test_bitset_into_ops;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
          Alcotest.test_case "full word boundaries" `Quick
            test_bitset_full_word_boundaries;
          Alcotest.test_case "fill matches full" `Quick
            test_bitset_fill_matches_full;
          Alcotest.test_case "popcount" `Quick test_bitset_popcount;
          qtest prop_bitset_roundtrip;
          qtest prop_bitset_union;
          qtest prop_bitset_inter;
          qtest prop_bitset_diff;
          qtest prop_bitset_cardinal;
          qtest prop_bitset_full;
          qtest prop_bitset_fill;
          qtest prop_bitset_is_full;
          qtest prop_bitset_rows;
        ] );
      ( "int_tab",
        [
          Alcotest.test_case "incr and find" `Quick test_int_tab_incr_and_find;
          Alcotest.test_case "set overwrites" `Quick test_int_tab_set_overwrites;
          Alcotest.test_case "clear is generational" `Quick
            test_int_tab_clear_is_generation;
          Alcotest.test_case "growth preserves" `Quick
            test_int_tab_growth_preserves;
          qtest prop_int_tab_matches_hashtbl;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
          Alcotest.test_case "growth" `Quick test_pqueue_growth;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "fifo ties interleaved" `Quick
            test_pqueue_fifo_ties_interleaved;
          qtest prop_pqueue_sorts;
          qtest prop_pqueue_stable;
        ] );
      ( "order",
        [
          Alcotest.test_case "sort_by stable" `Quick test_order_sort_by_stable;
          Alcotest.test_case "take" `Quick test_order_take;
          Alcotest.test_case "range" `Quick test_order_range;
        ] );
      ("int_vec", [ qtest prop_int_vec_stable_sorts ]);
    ]
