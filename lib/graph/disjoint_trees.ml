type tree = {
  root : Digraph.vertex;
  parent : int array;
  children : Digraph.vertex list array;
}

type forest = tree list

(* Build one spanning tree that avoids [used] arcs, expanding the
   root's outgoing arcs lazily: a plain BFS would consume every root
   arc in the first round, making a second disjoint tree impossible.
   Instead we seed the tree through a single designated root arc
   (rotated per round) and only fall back to further unused root arcs
   when the frontier dies out before covering the target set. *)
let lazy_root_tree g ~root ~used ~preferred =
  let n = Digraph.vertex_count g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(root) <- true;
  let queue = Queue.create () in
  let adopt u v =
    seen.(v) <- true;
    parent.(v) <- u;
    Queue.add v queue
  in
  let expand u =
    Digraph.View.iter
      (fun v _ ->
        if (not seen.(v)) && not (Hashtbl.mem used (u, v)) then adopt u v)
      (Digraph.succ g u)
  in
  let root_arcs =
    let row = Digraph.succ g root in
    let deg = Digraph.View.length row in
    (* rotate so each round prefers a different first arc *)
    Array.init deg (fun i -> Digraph.View.dst row ((i + preferred) mod deg))
  in
  let next_root_arc = ref 0 in
  let try_seed () =
    (* Push one more unused root arc into the tree, if any remains. *)
    let rec go () =
      if !next_root_arc >= Array.length root_arcs then false
      else begin
        let v = root_arcs.(!next_root_arc) in
        incr next_root_arc;
        if (not seen.(v)) && not (Hashtbl.mem used (root, v)) then begin
          adopt root v;
          true
        end
        else go ()
      end
    in
    go ()
  in
  let rec drain () =
    if not (Queue.is_empty queue) then begin
      expand (Queue.pop queue);
      drain ()
    end
    else if try_seed () then drain ()
  in
  drain ();
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  ({ root; parent; children }, seen)

let extract g ~root ~k =
  if k < 0 then invalid_arg "Disjoint_trees.extract: negative k";
  let used = Hashtbl.create 64 in
  let target = Traversal.reachable g root in
  let covers seen =
    let ok = ref true in
    Array.iteri (fun v t -> if t && not seen.(v) then ok := false) target;
    !ok
  in
  let rec rounds i acc =
    if i >= k then List.rev acc
    else begin
      let tree, seen = lazy_root_tree g ~root ~used ~preferred:i in
      if not (covers seen) then List.rev acc
      else begin
        Array.iteri
          (fun v p -> if p >= 0 then Hashtbl.replace used (p, v) ())
          tree.parent;
        rounds (i + 1) (tree :: acc)
      end
    end
  in
  rounds 0 []
