(* Iterative Tarjan SCC.  The recursion is replaced by an explicit
   frame stack holding (vertex, next-successor index) so that graphs
   with thousands of vertices do not overflow the OCaml stack. *)
let strongly_connected_components g =
  let n = Digraph.vertex_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let components = ref [] in
  let visit root =
    if index.(root) = -1 then begin
      let frames = Stack.create () in
      let open_vertex v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        Stack.push v stack;
        on_stack.(v) <- true;
        Stack.push (v, ref 0) frames
      in
      open_vertex root;
      while not (Stack.is_empty frames) do
        let v, cursor = Stack.top frames in
        let row = Digraph.succ g v in
        if !cursor < Digraph.View.length row then begin
          let w = Digraph.View.dst row !cursor in
          incr cursor;
          if index.(w) = -1 then open_vertex w
          else if on_stack.(w) then lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          ignore (Stack.pop frames);
          (match Stack.top_opt frames with
          | Some (parent, _) -> lowlink.(parent) <- Int.min lowlink.(parent) lowlink.(v)
          | None -> ());
          if lowlink.(v) = index.(v) then begin
            let component = ref [] in
            let finished = ref false in
            while not !finished do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              component := w :: !component;
              if w = v then finished := true
            done;
            components := !component :: !components
          end
        end
      done
    end
  in
  List.iter visit (Digraph.vertices g);
  List.rev !components

let is_strongly_connected g =
  Digraph.vertex_count g <= 1
  || (match strongly_connected_components g with [ _ ] -> true | _ -> false)

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
