open Ocd_prelude

type tree = {
  root : Digraph.vertex;
  parent : int array;
  children : Digraph.vertex list array;
}

let prim g ~cost ~root =
  let n = Digraph.vertex_count g in
  let in_tree = Array.make n false in
  let parent = Array.make n (-1) in
  let best = Array.make n max_int in
  let via = Array.make n (-1) in
  let heap = Pqueue.create () in
  best.(root) <- 0;
  Pqueue.push heap ~priority:0 root;
  let relax_from u =
    let relax v =
      if not in_tree.(v) then begin
        let c = cost u v in
        if c < 0 then invalid_arg "Mst.prim: negative cost";
        if c < best.(v) then begin
          best.(v) <- c;
          via.(v) <- u;
          Pqueue.push heap ~priority:c v
        end
      end
    in
    (* Undirected view: both arc directions connect u and v. *)
    List.iter relax (Digraph.neighbors g u)
  in
  let rec drain () =
    match Pqueue.pop heap with
    | None -> ()
    | Some (c, u) ->
      if not in_tree.(u) && c = best.(u) then begin
        in_tree.(u) <- true;
        parent.(u) <- via.(u);
        relax_from u
      end;
      drain ()
  in
  drain ();
  let children = Array.make n [] in
  Array.iteri
    (fun v p -> if p >= 0 then children.(p) <- v :: children.(p))
    parent;
  { root; parent; children }

let depth t =
  let n = Array.length t.parent in
  let d = Array.make n (-1) in
  d.(t.root) <- 0;
  let queue = Queue.create () in
  Queue.add t.root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        d.(v) <- d.(u) + 1;
        Queue.add v queue)
      t.children.(u)
  done;
  d
