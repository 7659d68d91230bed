type 'a t = {
  mutable size : int;
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable next_seq : int;
}

let create () =
  { size = 0; keys = Array.make 16 0; seqs = Array.make 16 0; values = [||];
    next_seq = 0 }

let is_empty q = q.size = 0
let length q = q.size

let grow q x =
  let cap = Array.length q.keys in
  if q.size >= cap then begin
    q.keys <- Array.append q.keys (Array.make cap 0);
    q.seqs <- Array.append q.seqs (Array.make cap 0);
    let filler = if q.size = 0 then x else q.values.(0) in
    let values = Array.make (2 * cap) filler in
    Array.blit q.values 0 values 0 q.size;
    q.values <- values
  end;
  if Array.length q.values = 0 then q.values <- Array.make (Array.length q.keys) x

let swap q i j =
  let k = q.keys.(i) in
  q.keys.(i) <- q.keys.(j);
  q.keys.(j) <- k;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let v = q.values.(i) in
  q.values.(i) <- q.values.(j);
  q.values.(j) <- v

(* Strict (key, seq) lexicographic order: seq is the insertion counter,
   so equal keys drain first-in-first-out. *)
let before q i j =
  q.keys.(i) < q.keys.(j)
  || (q.keys.(i) = q.keys.(j) && q.seqs.(i) < q.seqs.(j))

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && before q l !smallest then smallest := l;
  if r < q.size && before q r !smallest then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q ~priority x =
  grow q x;
  q.keys.(q.size) <- priority;
  q.seqs.(q.size) <- q.next_seq;
  q.next_seq <- q.next_seq + 1;
  q.values.(q.size) <- x;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let key = q.keys.(0) and value = q.values.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.keys.(0) <- q.keys.(q.size);
      q.seqs.(0) <- q.seqs.(q.size);
      q.values.(0) <- q.values.(q.size);
      sift_down q 0
    end;
    Some (key, value)
  end

let min_priority q =
  if q.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  q.keys.(0)
