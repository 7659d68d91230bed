(* One OCaml [int] holds 63 usable bits; we use all of them. *)
let bits_per_word = Sys.int_size

type t = { capacity : int; words : int array }

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { capacity; words = Array.make (words_for capacity) 0 }

let capacity s = s.capacity

let copy s = { capacity = s.capacity; words = Array.copy s.words }

let assign dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset: capacity mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check_element s x =
  if x < 0 || x >= s.capacity then invalid_arg "Bitset: element out of range"

let check_same a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let mem s x =
  check_element s x;
  s.words.(x / bits_per_word) land (1 lsl (x mod bits_per_word)) <> 0

let add s x =
  check_element s x;
  let w = x / bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl (x mod bits_per_word))

let remove s x =
  check_element s x;
  let w = x / bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (x mod bits_per_word))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill s =
  let nwords = Array.length s.words in
  Array.fill s.words 0 nwords (-1);
  (* Bits at positions >= capacity must stay 0: [cardinal], [equal] and
     the word-parallel predicates all rely on that invariant. *)
  let rem = s.capacity mod bits_per_word in
  if rem > 0 then s.words.(nwords - 1) <- (1 lsl rem) - 1

let of_list capacity elements =
  let s = create capacity in
  List.iter (add s) elements;
  s

let full capacity =
  let s = create capacity in
  fill s;
  s

let singleton capacity x =
  let s = create capacity in
  add s x;
  s

let popcount =
  (* Kernighan's loop is fine: words are sparse in most of our sets and
     the function is not the bottleneck relative to bulk set ops. *)
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  fun w -> go 0 w

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

(* Word by word, stopping at the first gap: every word but the last is
   [-1] (all [bits_per_word] bits), the last holds exactly the bits
   below [capacity].  A plain loop, so no closure is allocated. *)
let is_full s =
  let words = s.words in
  let last = Array.length words - 1 in
  let i = ref 0 in
  while !i < last && words.(!i) = -1 do
    incr i
  done;
  let rem = s.capacity mod bits_per_word in
  last < 0
  || (!i = last && words.(last) = if rem = 0 then -1 else (1 lsl rem) - 1)

let equal a b =
  check_same a b;
  Array.for_all2 Int.equal a.words b.words

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let union_into dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let diff_into dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let union a b = let r = copy a in union_into r b; r
let inter a b = let r = copy a in inter_into r b; r
let diff a b = let r = copy a in diff_into r b; r

(* Count trailing zeros of a word with exactly one bit set, by binary
   search: 6 branches instead of up to 62 shifts. *)
let ctz_bit b =
  let i = ref 0 in
  let b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin i := !i + 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin i := !i + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr i;
  !i

let iter f s =
  for i = 0 to Array.length s.words - 1 do
    let w = ref s.words.(i) in
    while !w <> 0 do
      let bit = !w land (- !w) in
      f ((i * bits_per_word) + ctz_bit bit);
      w := !w land (!w - 1)
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun x -> acc := f x !acc) s;
  !acc

let elements s = List.rev (fold (fun x acc -> x :: acc) s [])

exception Found

let exists p s =
  try
    iter (fun x -> if p x then raise Found) s;
    false
  with Found -> true

let for_all p s = not (exists (fun x -> not (p x)) s)

let next_member s x =
  if x >= s.capacity then None
  else begin
    let x = Int.max x 0 in
    let nwords = Array.length s.words in
    let rec scan i w =
      if w <> 0 then Some ((i * bits_per_word) + ctz_bit (w land (-w)))
      else if i + 1 >= nwords then None
      else scan (i + 1) s.words.(i + 1)
    in
    let i0 = x / bits_per_word in
    (* Mask off bits below [x] in the first word. *)
    let first = s.words.(i0) land lnot ((1 lsl (x mod bits_per_word)) - 1) in
    scan i0 first
  end

module Rows = struct
  type set = t

  (* Row [v] is [words.(v * stride) .. words.(v * stride + stride - 1)];
     this module is the only place that offset is computed. *)
  type t = { capacity : int; stride : int; words : int array }

  let of_sets capacity (sets : set array) =
    let stride = words_for capacity in
    let words = Array.make (Array.length sets * stride) 0 in
    Array.iteri
      (fun v (s : set) ->
        if s.capacity <> capacity then invalid_arg "Bitset: capacity mismatch";
        Array.blit s.words 0 words (v * stride) stride)
      sets;
    { capacity; stride; words }

  let copy r = { r with words = Array.copy r.words }
  let stride r = r.stride
  let word r v j = r.words.((v * r.stride) + j)

  (* Index of [x]'s word in row [v]. *)
  let index r v x =
    if x < 0 || x >= r.capacity then invalid_arg "Bitset: element out of range";
    (v * r.stride) + (x / bits_per_word)

  let mem r v x = r.words.(index r v x) land (1 lsl (x mod bits_per_word)) <> 0

  let add r v x =
    let i = index r v x and b = 1 lsl (x mod bits_per_word) in
    let w = r.words.(i) in
    r.words.(i) <- w lor b;
    w land b = 0

  let is_empty r v =
    let rec go j = j >= r.stride || (word r v j = 0 && go (j + 1)) in
    go 0

  let cardinal r v =
    let acc = ref 0 in
    for j = 0 to r.stride - 1 do
      acc := !acc + popcount (word r v j)
    done;
    !acc

  let next_member r v x =
    if x < 0 || x >= r.capacity then -1
    else begin
      let base = v * r.stride in
      let j = ref (x / bits_per_word) in
      (* Bits below [x] in its word are masked off. *)
      let w = ref (r.words.(base + !j) land (-1 lsl (x mod bits_per_word))) in
      while !w = 0 && !j < r.stride - 1 do
        incr j;
        w := r.words.(base + !j)
      done;
      if !w = 0 then -1 else (!j * bits_per_word) + ctz_bit (!w land - !w)
    end

  let into (s : set) r v =
    if s.capacity <> r.capacity then invalid_arg "Bitset: capacity mismatch";
    Array.blit r.words (v * r.stride) s.words 0 r.stride

  let diff_into (s : set) r v =
    if s.capacity <> r.capacity then invalid_arg "Bitset: capacity mismatch";
    for j = 0 to r.stride - 1 do
      s.words.(j) <- s.words.(j) land lnot (word r v j)
    done

  let union_into (s : set) r v =
    if s.capacity <> r.capacity then invalid_arg "Bitset: capacity mismatch";
    for j = 0 to r.stride - 1 do
      s.words.(j) <- s.words.(j) lor word r v j
    done
end
