(* Slots are interleaved in one flat array — [3i] generation stamp,
   [3i+1] key, [3i+2] value — so a probe touches a single cache line
   even when the table has grown past L2 (the engine's per-step move
   validation probes it tens of thousands of times per step on random
   keys). *)
type t = {
  mutable data : int array;
  mutable mask : int;  (* slot count - 1; slot count is a power of two *)
  mutable live : int;
  mutable stamp : int;
}

let rec pow2_at_least c n = if n >= c then n else pow2_at_least c (2 * n)

(* stamp starts at 1 so a freshly zeroed data array reads as empty *)
let create ?(capacity = 16) () =
  let cap = pow2_at_least (Int.max capacity 2) 2 in
  { data = Array.make (3 * cap) 0; mask = cap - 1; live = 0; stamp = 1 }

let clear t =
  t.stamp <- t.stamp + 1;
  t.live <- 0

let length t = t.live

(* Fibonacci-style multiplicative spread, folded so high bits reach the
   low-index range; the constant fits the 63-bit native int. *)
let hash key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* Base index of the first slot that is free or already holds [key];
   linear probing.  The load factor is kept at or below 1/2, so the
   walk terminates. *)
let rec find_base t key i =
  let b = 3 * i in
  if t.data.(b) <> t.stamp then b
  else if t.data.(b + 1) = key then b
  else find_base t key ((i + 1) land t.mask)

let grow t =
  let old = t.data in
  let cap = 2 * (t.mask + 1) in
  t.data <- Array.make (3 * cap) 0;
  t.mask <- cap - 1;
  let i = ref 0 in
  while !i < Array.length old do
    if old.(!i) = t.stamp then begin
      let k = old.(!i + 1) in
      let b = find_base t k (hash k t.mask) in
      t.data.(b) <- t.stamp;
      t.data.(b + 1) <- k;
      t.data.(b + 2) <- old.(!i + 2)
    end;
    i := !i + 3
  done

let incr t key =
  if 2 * (t.live + 1) > t.mask + 1 then grow t;
  let b = find_base t key (hash key t.mask) in
  let data = t.data in
  if data.(b) = t.stamp then begin
    let v = data.(b + 2) + 1 in
    data.(b + 2) <- v;
    v
  end
  else begin
    data.(b) <- t.stamp;
    data.(b + 1) <- key;
    data.(b + 2) <- 1;
    t.live <- t.live + 1;
    1
  end

let set t key v =
  if 2 * (t.live + 1) > t.mask + 1 then grow t;
  let b = find_base t key (hash key t.mask) in
  let data = t.data in
  if data.(b) <> t.stamp then begin
    data.(b) <- t.stamp;
    data.(b + 1) <- key;
    t.live <- t.live + 1
  end;
  data.(b + 2) <- v

let find t key =
  let b = find_base t key (hash key t.mask) in
  if t.data.(b) = t.stamp then t.data.(b + 2) else 0

let mem t key =
  let b = find_base t key (hash key t.mask) in
  t.data.(b) = t.stamp

module Key = struct
  type t = int

  let equal = Int.equal
  let hash k = hash k max_int
end
