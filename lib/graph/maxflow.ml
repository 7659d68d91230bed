(* Dinic with arc-array representation: arcs stored in pairs, arc i's
   residual twin is i lxor 1. *)

type t = {
  node_count : int;
  mutable heads : int array;     (* head of adjacency list per node *)
  mutable nexts : int array;     (* next arc in list *)
  mutable dsts : int array;
  mutable caps : int array;      (* residual capacities *)
  mutable arc_count : int;
  mutable original : (int * int * int) list;  (* (arc_id, src, dst), reversed *)
}

let create ~node_count =
  {
    node_count;
    heads = Array.make node_count (-1);
    nexts = Array.make 16 (-1);
    dsts = Array.make 16 0;
    caps = Array.make 16 0;
    arc_count = 0;
    original = [];
  }

let ensure_room t =
  let cap = Array.length t.nexts in
  if t.arc_count + 2 > cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.nexts <- grow t.nexts (-1);
    t.dsts <- grow t.dsts 0;
    t.caps <- grow t.caps 0
  end

let push_arc t ~src ~dst ~capacity =
  let id = t.arc_count in
  t.nexts.(id) <- t.heads.(src);
  t.dsts.(id) <- dst;
  t.caps.(id) <- capacity;
  t.heads.(src) <- id;
  t.arc_count <- id + 1;
  id

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.node_count || dst < 0 || dst >= t.node_count then
    invalid_arg "Maxflow.add_edge: node out of range";
  if capacity < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  ensure_room t;
  let id = push_arc t ~src ~dst ~capacity in
  ignore (push_arc t ~src:dst ~dst:src ~capacity:0);
  t.original <- (id, src, dst) :: t.original

(* BFS level graph. *)
let levels t ~source ~sink =
  let level = Array.make t.node_count (-1) in
  let queue = Queue.create () in
  level.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let arc = ref t.heads.(u) in
    while !arc >= 0 do
      let v = t.dsts.(!arc) in
      if t.caps.(!arc) > 0 && level.(v) = -1 then begin
        level.(v) <- level.(u) + 1;
        Queue.add v queue
      end;
      arc := t.nexts.(!arc)
    done
  done;
  if level.(sink) = -1 then None else Some level

(* DFS blocking flow with iteration pointers. *)
let blocking_flow t ~source ~sink ~level ~cursor =
  let rec dfs u pushed =
    if u = sink then pushed
    else begin
      let result = ref 0 in
      while !result = 0 && cursor.(u) >= 0 do
        let arc = cursor.(u) in
        let v = t.dsts.(arc) in
        if t.caps.(arc) > 0 && level.(v) = level.(u) + 1 then begin
          let sent = dfs v (Int.min pushed t.caps.(arc)) in
          if sent > 0 then begin
            t.caps.(arc) <- t.caps.(arc) - sent;
            t.caps.(arc lxor 1) <- t.caps.(arc lxor 1) + sent;
            result := sent
          end
          else cursor.(u) <- t.nexts.(arc)
        end
        else cursor.(u) <- t.nexts.(arc)
      done;
      !result
    end
  in
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let sent = dfs source max_int in
    if sent = 0 then continue := false else total := !total + sent
  done;
  !total

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Maxflow.max_flow: source = sink";
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    match levels t ~source ~sink with
    | None -> continue := false
    | Some level ->
      let cursor = Array.copy t.heads in
      total := !total + blocking_flow t ~source ~sink ~level ~cursor
  done;
  !total

let flow_on_edges t =
  List.rev_map
    (fun (id, src, dst) ->
      (* flow = residual capacity accumulated on the twin *)
      (src, dst, t.caps.(id lxor 1)))
    t.original
  |> List.filter (fun (_, _, f) -> f > 0)
