type t = {
  arcs : (Digraph.vertex * Digraph.vertex) list;
  terminals : Digraph.vertex list;
  covered : bool array;
}

let takahashi_matsuyama g ~sources ~terminals =
  if sources = [] then invalid_arg "Steiner: no sources";
  let n = Digraph.vertex_count g in
  let { Digraph.row_off; row_dst; _ } = Digraph.succ_rows g in
  let pred = Digraph.pred_rows g in
  let in_tree = Array.make n false in
  (* [dist.(v)]: hop distance from the current tree (0 on it, -1 when
     unreachable), kept exact across rounds.  [fresh.(0 .. k - 1)]
     holds the vertices that joined the tree last; [lower k] runs a
     BFS from them that only lowers distances.  It visits in
     nondecreasing distance, so each vertex is lowered at most once
     and [fresh] (length n) doubles as its FIFO. *)
  let dist = Array.make n (-1) in
  let fresh = Array.make n 0 in
  let lower k =
    let head = ref 0 and tail = ref k in
    while !head < !tail do
      let u = fresh.(!head) in
      incr head;
      let d = dist.(u) + 1 in
      for i = row_off.(u) to row_off.(u + 1) - 1 do
        let v = row_dst.(i) in
        if dist.(v) < 0 || dist.(v) > d then begin
          dist.(v) <- d;
          fresh.(!tail) <- v;
          incr tail
        end
      done
    done
  in
  let k =
    List.fold_left
      (fun k s ->
        if in_tree.(s) then k
        else begin
          in_tree.(s) <- true;
          dist.(s) <- 0;
          fresh.(k) <- s;
          k + 1
        end)
      0 sources
  in
  lower k;
  let covered = Array.make n false in
  List.iter (fun t -> if in_tree.(t) then covered.(t) <- true) terminals;
  let tree_arcs = ref [] in
  (* The parent of [v] is its first tight predecessor, ascending. *)
  let parent v =
    let target = dist.(v) - 1 in
    let rec first i =
      let u = pred.Digraph.row_dst.(i) in
      if dist.(u) = target then u else first (i + 1)
    in
    first pred.Digraph.row_off.(v)
  in
  (* Each round attaches the first closest still-uncovered terminal
     and folds its shortest path into the tree; distances are read
     before the path joins, then lowered from it. *)
  let rec rounds () =
    let best =
      List.fold_left
        (fun best t ->
          if covered.(t) || dist.(t) < 0 then best
          else if best >= 0 && dist.(best) <= dist.(t) then best
          else t)
        (-1) terminals
    in
    if best >= 0 then begin
      let rec absorb v k =
        if in_tree.(v) then k
        else begin
          let u = parent v in
          in_tree.(v) <- true;
          tree_arcs := (u, v) :: !tree_arcs;
          fresh.(k) <- v;
          absorb u (k + 1)
        end
      in
      let k = absorb best 0 in
      for i = 0 to k - 1 do
        dist.(fresh.(i)) <- 0
      done;
      lower k;
      covered.(best) <- true;
      rounds ()
    end
  in
  rounds ();
  { arcs = !tree_arcs; terminals; covered }

let cost t = List.length t.arcs

let covers_all t = List.for_all (fun v -> t.covered.(v)) t.terminals
