open Ocd_prelude

let hop_distances g src = Traversal.bfs_levels g src

let dijkstra g ~cost src =
  let n = Digraph.vertex_count g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Pqueue.create () in
  dist.(src) <- 0;
  Pqueue.push heap ~priority:0 src;
  let rec drain () =
    match Pqueue.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) && d = dist.(u) then begin
        settled.(u) <- true;
        let relax v _cap =
          let c = cost u v in
          if c < 0 then invalid_arg "Paths.dijkstra: negative arc cost";
          let candidate = d + c in
          if candidate < dist.(v) then begin
            dist.(v) <- candidate;
            parent.(v) <- u;
            Pqueue.push heap ~priority:candidate v
          end
        in
        Digraph.View.iter relax (Digraph.succ g u)
      end;
      drain ()
  in
  drain ();
  (dist, parent)

let eccentricity g v =
  Array.fold_left Int.max 0 (hop_distances g v)

let diameter g =
  let n = Digraph.vertex_count g in
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := Int.max !best (eccentricity g v)
  done;
  !best
