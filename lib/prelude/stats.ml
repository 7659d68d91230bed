type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
    if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    (* The boundaries are exact order statistics, not interpolations:
       p=0 is the minimum and p=1 the maximum even when floating-point
       noise in [p *. (n-1)] would otherwise push [ceil rank] one slot
       past the end (the off-by-one was visible at a single-sample
       input, where any such overshoot indexed out of bounds). *)
    if p <= 0.0 || n = 1 then a.(0)
    else if p >= 1.0 then a.(n - 1)
    else begin
      let rank = p *. float_of_int (n - 1) in
      let lo = Int.min (n - 1) (Int.max 0 (int_of_float (Float.floor rank))) in
      let hi = Int.min (n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      if hi = lo || frac <= 0.0 then a.(lo)
      else (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
    end

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | xs ->
    let count = List.length xs in
    let mu = mean xs in
    (* Sample (Bessel-corrected) variance: sweeps summarise small
       samples of trials, not whole populations. *)
    let var =
      if count <= 1 then 0.0
      else
        List.fold_left
          (fun acc x ->
            let d = x -. mu in
            acc +. (d *. d))
          0.0 xs
        /. float_of_int (count - 1)
    in
    {
      count;
      mean = mu;
      stddev = sqrt var;
      min = List.fold_left Float.min infinity xs;
      max = List.fold_left Float.max neg_infinity xs;
      median = percentile xs 0.5;
    }

let summarize_ints xs = summarize (List.map float_of_int xs)
