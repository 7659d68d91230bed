type vertex = int

type arc = { src : vertex; dst : vertex; capacity : int }

(* Flat CSR adjacency: the out-arcs of vertex [v] live at indices
   [succ_off.(v) .. succ_off.(v+1) - 1] of the parallel [succ_dst] /
   [succ_cap] int arrays, destinations ascending; the predecessor side
   mirrors it.  For graphs built from undirected edges the two sides
   are physically the same arrays (the adjacency is symmetric), which
   halves the footprint of every evaluation topology. *)
type t = {
  vertex_count : int;
  arc_count : int;
  succ_off : int array;
  succ_dst : int array;
  succ_cap : int array;
  pred_off : int array;
  pred_dst : int array;
  pred_cap : int array;
}

type view = { dsts : int array; caps : int array; off : int; len : int }

module View = struct
  type nonrec t = view

  let length v = v.len
  let dst v i = v.dsts.(v.off + i)
  let cap v i = v.caps.(v.off + i)

  let iter f v =
    for i = v.off to v.off + v.len - 1 do
      f v.dsts.(i) v.caps.(i)
    done

  let iteri f v =
    for i = 0 to v.len - 1 do
      f i v.dsts.(v.off + i) v.caps.(v.off + i)
    done

  let fold f acc v =
    let acc = ref acc in
    for i = v.off to v.off + v.len - 1 do
      acc := f !acc v.dsts.(i) v.caps.(i)
    done;
    !acc

  let exists p v =
    let rec go i =
      i < v.len && (p v.dsts.(v.off + i) v.caps.(v.off + i) || go (i + 1))
    in
    go 0

  let dsts v = Array.sub v.dsts v.off v.len
  let caps v = Array.sub v.caps v.off v.len

  let caps_into v out =
    if Array.length out < v.len then invalid_arg "Digraph.View.caps_into";
    Array.blit v.caps v.off out 0 v.len

  let to_array v = Array.init v.len (fun i -> (dst v i, cap v i))

  let index v u =
    (* Rows are sorted ascending: binary search.  [slot] keeps its
       own copy of this loop; routing both through one shared helper
       made the synchronous sweep measurably slower. *)
    let lo = ref 0 and hi = ref (v.len - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let d = v.dsts.(v.off + mid) in
      if d = u then begin
        found := mid;
        lo := !hi + 1
      end
      else if d < u then lo := mid + 1
      else hi := mid - 1
    done;
    !found
end

let vertex_count g = g.vertex_count
let arc_count g = g.arc_count

type rows = { row_off : int array; row_dst : int array; row_cap : int array }

let succ_rows g = { row_off = g.succ_off; row_dst = g.succ_dst; row_cap = g.succ_cap }
let pred_rows g = { row_off = g.pred_off; row_dst = g.pred_dst; row_cap = g.pred_cap }

(* ---------------------- construction core ------------------------- *)

let check_arc ~fn ~vertex_count src dst capacity =
  if src < 0 || src >= vertex_count || dst < 0 || dst >= vertex_count then
    invalid_arg (fn ^ ": endpoint out of range");
  if src = dst then invalid_arg (fn ^ ": self-loop");
  if capacity <= 0 then invalid_arg (fn ^ ": non-positive capacity")

(* In-place quicksort of [dst].(lo..hi) ascending, mirroring every swap
   in [cap] — monomorphic int comparisons only, no boxing. *)
let sort_row (dst : int array) (cap : int array) lo hi =
  let swap i j =
    let d = dst.(i) in
    dst.(i) <- dst.(j);
    dst.(j) <- d;
    let c = cap.(i) in
    cap.(i) <- cap.(j);
    cap.(j) <- c
  in
  let rec go lo hi =
    if hi - lo < 12 then
      for i = lo + 1 to hi do
        let d = dst.(i) and c = cap.(i) in
        let j = ref i in
        while !j > lo && dst.(!j - 1) > d do
          dst.(!j) <- dst.(!j - 1);
          cap.(!j) <- cap.(!j - 1);
          decr j
        done;
        dst.(!j) <- d;
        cap.(!j) <- c
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if dst.(mid) < dst.(lo) then swap mid lo;
      if dst.(hi) < dst.(lo) then swap hi lo;
      if dst.(hi) < dst.(mid) then swap hi mid;
      let pivot = dst.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while dst.(!i) < pivot do incr i done;
        while dst.(!j) > pivot do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      go lo !j;
      go !i hi
    end
  in
  if hi > lo then go lo hi

(* Group the [m] directed arcs in [src]/[dst]/[cap] by source (counting
   sort), sort each row by destination and merge duplicates by summing
   capacities.  Returns the (offsets, destinations, capacities) of one
   CSR side. *)
let build_side ~vertex_count ~m ~src ~dst ~cap =
  let off = Array.make (vertex_count + 1) 0 in
  for k = 0 to m - 1 do
    off.(src.(k)) <- off.(src.(k)) + 1
  done;
  let total = ref 0 in
  for v = 0 to vertex_count - 1 do
    let d = off.(v) in
    off.(v) <- !total;
    total := !total + d
  done;
  off.(vertex_count) <- !total;
  let cursor = Array.sub off 0 vertex_count in
  let d_out = Array.make m 0 and c_out = Array.make m 0 in
  for k = 0 to m - 1 do
    let s = src.(k) in
    let i = cursor.(s) in
    d_out.(i) <- dst.(k);
    c_out.(i) <- cap.(k);
    cursor.(s) <- i + 1
  done;
  for v = 0 to vertex_count - 1 do
    sort_row d_out c_out off.(v) (off.(v + 1) - 1)
  done;
  (* Compact duplicate destinations (rows are sorted, so duplicates are
     adjacent); capacities sum, as the paper's multi-arc flattening
     prescribes. *)
  let w = ref 0 in
  let merged_off = Array.make (vertex_count + 1) 0 in
  for v = 0 to vertex_count - 1 do
    merged_off.(v) <- !w;
    let i = ref off.(v) in
    let row_end = off.(v + 1) in
    while !i < row_end do
      let d = d_out.(!i) in
      let c = ref c_out.(!i) in
      incr i;
      while !i < row_end && d_out.(!i) = d do
        c := !c + c_out.(!i);
        incr i
      done;
      d_out.(!w) <- d;
      c_out.(!w) <- !c;
      incr w
    done
  done;
  merged_off.(vertex_count) <- !w;
  if !w = m then (merged_off, d_out, c_out)
  else (merged_off, Array.sub d_out 0 !w, Array.sub c_out 0 !w)

(* Predecessor side of a merged successor side: scanning sources in
   ascending order fills every pred row already sorted and merged. *)
let transpose ~vertex_count (off, dsts, caps) =
  let m = off.(vertex_count) in
  let p_off = Array.make (vertex_count + 1) 0 in
  for i = 0 to m - 1 do
    p_off.(dsts.(i)) <- p_off.(dsts.(i)) + 1
  done;
  let total = ref 0 in
  for v = 0 to vertex_count - 1 do
    let d = p_off.(v) in
    p_off.(v) <- !total;
    total := !total + d
  done;
  p_off.(vertex_count) <- !total;
  let cursor = Array.sub p_off 0 vertex_count in
  let p_dst = Array.make m 0 and p_cap = Array.make m 0 in
  for v = 0 to vertex_count - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      let d = dsts.(i) in
      let j = cursor.(d) in
      p_dst.(j) <- v;
      p_cap.(j) <- caps.(i);
      cursor.(d) <- j + 1
    done
  done;
  (p_off, p_dst, p_cap)

let of_sides ~vertex_count (succ_off, succ_dst, succ_cap)
    (pred_off, pred_dst, pred_cap) =
  {
    vertex_count;
    arc_count = succ_off.(vertex_count);
    succ_off;
    succ_dst;
    succ_cap;
    pred_off;
    pred_dst;
    pred_cap;
  }

let of_arcs ~vertex_count arcs =
  if vertex_count < 0 then invalid_arg "Digraph.of_arcs: negative vertex count";
  List.iter
    (fun { src; dst; capacity } ->
      check_arc ~fn:"Digraph.of_arcs" ~vertex_count src dst capacity)
    arcs;
  let m = List.length arcs in
  let src = Array.make m 0 and dst = Array.make m 0 and cap = Array.make m 0 in
  List.iteri
    (fun k a ->
      src.(k) <- a.src;
      dst.(k) <- a.dst;
      cap.(k) <- a.capacity)
    arcs;
  let succ = build_side ~vertex_count ~m ~src ~dst ~cap in
  of_sides ~vertex_count succ (transpose ~vertex_count succ)

(* Symmetric bulk build shared by [of_edges] and
   [of_undirected_arrays]: each undirected edge contributes both
   directed arcs, and — duplicates merging by sum on the unordered pair
   — the adjacency is symmetric, so the predecessor side aliases the
   successor arrays. *)
let symmetric ~fn ~vertex_count ~count ~edge =
  if vertex_count < 0 then invalid_arg (fn ^ ": negative vertex count");
  let m = 2 * count in
  let src = Array.make m 0 and dst = Array.make m 0 and cap = Array.make m 0 in
  for k = 0 to count - 1 do
    let u, v, c = edge k in
    check_arc ~fn ~vertex_count u v c;
    src.(2 * k) <- u;
    dst.(2 * k) <- v;
    cap.(2 * k) <- c;
    src.((2 * k) + 1) <- v;
    dst.((2 * k) + 1) <- u;
    cap.((2 * k) + 1) <- c
  done;
  let side = build_side ~vertex_count ~m ~src ~dst ~cap in
  of_sides ~vertex_count side side

let of_edges ~vertex_count edges =
  let edges = Array.of_list edges in
  symmetric ~fn:"Digraph.of_arcs" ~vertex_count ~count:(Array.length edges)
    ~edge:(fun k -> edges.(k))

let of_undirected_arrays ~vertex_count ~src ~dst ~cap =
  let count = Array.length src in
  if Array.length dst <> count || Array.length cap <> count then
    invalid_arg "Digraph.of_undirected_arrays: length mismatch";
  symmetric ~fn:"Digraph.of_undirected_arrays" ~vertex_count ~count
    ~edge:(fun k -> (src.(k), dst.(k), cap.(k)))

(* ------------------------- appending ------------------------------ *)

(* One CSR side with per-vertex sorted insertion rows merged in (equal
   destinations sum): a single linear copy, no re-sort of the existing
   m arcs. *)
let merge_side ~vertex_count (off, dsts, caps) extra =
  let added = Array.fold_left (fun acc row -> acc + List.length row) 0 extra in
  let m = off.(vertex_count) in
  let n_off = Array.make (vertex_count + 1) 0 in
  let n_dst = Array.make (m + added) 0 and n_cap = Array.make (m + added) 0 in
  let w = ref 0 in
  for v = 0 to vertex_count - 1 do
    n_off.(v) <- !w;
    let row_start = !w in
    let i = ref off.(v) in
    let ins = ref extra.(v) in
    let push d c =
      if !w > row_start && n_dst.(!w - 1) = d then n_cap.(!w - 1) <- n_cap.(!w - 1) + c
      else begin
        n_dst.(!w) <- d;
        n_cap.(!w) <- c;
        incr w
      end
    in
    while !i < off.(v + 1) || !ins <> [] do
      match !ins with
      | (d, c) :: rest when !i >= off.(v + 1) || d <= dsts.(!i) ->
        push d c;
        ins := rest
      | _ ->
        push dsts.(!i) caps.(!i);
        incr i
    done
  done;
  n_off.(vertex_count) <- !w;
  if !w = m + added then (n_off, n_dst, n_cap)
  else (n_off, Array.sub n_dst 0 !w, Array.sub n_cap 0 !w)

let add_undirected_edges g edges =
  match edges with
  | [] -> g
  | edges ->
    let n = g.vertex_count in
    let ins = Array.make n [] in
    List.iter
      (fun (u, v, c) ->
        check_arc ~fn:"Digraph.of_arcs" ~vertex_count:n u v c;
        ins.(u) <- (v, c) :: ins.(u);
        ins.(v) <- (u, c) :: ins.(v))
      edges;
    for v = 0 to n - 1 do
      ins.(v) <-
        List.sort (fun (a, _) (b, _) -> Int.compare a b) ins.(v)
    done;
    let succ = merge_side ~vertex_count:n (g.succ_off, g.succ_dst, g.succ_cap) ins in
    let pred =
      (* Symmetric graphs keep the two sides aliased. *)
      if g.pred_dst == g.succ_dst && g.pred_off == g.succ_off then succ
      else merge_side ~vertex_count:n (g.pred_off, g.pred_dst, g.pred_cap) ins
    in
    of_sides ~vertex_count:n succ pred

(* -------------------------- queries ------------------------------- *)

let succ g v =
  {
    dsts = g.succ_dst;
    caps = g.succ_cap;
    off = g.succ_off.(v);
    len = g.succ_off.(v + 1) - g.succ_off.(v);
  }

let pred g v =
  {
    dsts = g.pred_dst;
    caps = g.pred_cap;
    off = g.pred_off.(v);
    len = g.pred_off.(v + 1) - g.pred_off.(v);
  }

let slot g u v =
  (* Rows are sorted by destination: binary search. *)
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = g.succ_dst.(mid) in
    if d = v then begin
      found := mid;
      lo := !hi + 1
    end
    else if d < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let capacity g u v =
  let s = slot g u v in
  if s < 0 then 0 else g.succ_cap.(s)

let mem_arc g u v = capacity g u v > 0

let sum_row off cap v =
  let acc = ref 0 in
  for i = off.(v) to off.(v + 1) - 1 do
    acc := !acc + cap.(i)
  done;
  !acc

let in_capacity g v = sum_row g.pred_off g.pred_cap v

let arcs g =
  let acc = ref [] in
  for src = g.vertex_count - 1 downto 0 do
    for i = g.succ_off.(src + 1) - 1 downto g.succ_off.(src) do
      acc := { src; dst = g.succ_dst.(i); capacity = g.succ_cap.(i) } :: !acc
    done
  done;
  !acc

let neighbors g v =
  (* Merge-union of the two sorted rows, ascending. *)
  let s_lo = g.succ_off.(v) and s_hi = g.succ_off.(v + 1) in
  let p_lo = g.pred_off.(v) and p_hi = g.pred_off.(v + 1) in
  let rec go i j acc =
    if i >= s_hi && j >= p_hi then List.rev acc
    else if j >= p_hi || (i < s_hi && g.succ_dst.(i) < g.pred_dst.(j)) then
      go (i + 1) j (g.succ_dst.(i) :: acc)
    else if i >= s_hi || g.pred_dst.(j) < g.succ_dst.(i) then
      go i (j + 1) (g.pred_dst.(j) :: acc)
    else go (i + 1) (j + 1) (g.succ_dst.(i) :: acc)
  in
  go s_lo p_lo []

let vertices g = List.init g.vertex_count Fun.id
