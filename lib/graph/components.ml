let weakly_connected_components g =
  let n = Digraph.vertex_count g in
  let seen = Array.make n false in
  let component root =
    let queue = Queue.create () in
    let acc = ref [] in
    seen.(root) <- true;
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      acc := u :: !acc;
      let push v =
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end
      in
      List.iter push (Digraph.neighbors g u)
    done;
    List.sort Int.compare !acc
  in
  List.filter_map
    (fun v -> if seen.(v) then None else Some (component v))
    (Digraph.vertices g)

let is_weakly_connected g =
  Digraph.vertex_count g <= 1
  || (match weakly_connected_components g with [ _ ] -> true | _ -> false)
