open Ocd_core
open Ocd_graph

let vertex_s = 0
let vertex_t = 1
let relay i = 2 + i

(* v'_i ids follow all relays. *)
let receiver_of ~n i = 2 + n + i

let undirected_edges g =
  let edges = ref [] in
  List.iter
    (fun { Digraph.src; dst; _ } ->
      if src < dst then edges := (src, dst) :: !edges
      else if not (Digraph.mem_arc g dst src) then edges := (dst, src) :: !edges)
    (Digraph.arcs g);
  List.sort_uniq compare !edges

let instance g ~k =
  let n = Digraph.vertex_count g in
  if k < 0 || k > n then invalid_arg "Reduction.instance: bad k";
  let receiver = receiver_of ~n in
  let token_count = n - k + 1 in
  let arcs = ref [] in
  let add src dst = arcs := { Digraph.src; dst; capacity = 1 } :: !arcs in
  for i = 0 to n - 1 do
    add vertex_s (relay i);
    add (relay i) vertex_t;
    add (relay i) (receiver i)
  done;
  List.iter
    (fun (i, j) ->
      add (relay i) (receiver j);
      add (relay j) (receiver i))
    (undirected_edges g);
  let graph = Digraph.of_arcs ~vertex_count:(2 + (2 * n)) !arcs in
  let all_tokens = List.init token_count Fun.id in
  let b_tokens = List.init (n - k) (fun i -> i + 1) in
  Instance.make ~graph ~token_count
    ~have:[ (vertex_s, all_tokens) ]
    ~want:
      ((vertex_t, b_tokens)
      :: List.init n (fun i -> (receiver i, [ 0 ])))

let check_dominating g dominating =
  let n = Digraph.vertex_count g in
  let covered = Array.make n false in
  List.iter
    (fun d ->
      if d < 0 || d >= n then invalid_arg "Reduction: dominator out of range";
      covered.(d) <- true;
      List.iter (fun u -> covered.(u) <- true) (Digraph.neighbors g d))
    dominating;
  Array.for_all Fun.id covered

let schedule_of_dominating_set g ~k ~dominating =
  let n = Digraph.vertex_count g in
  let receiver = receiver_of ~n in
  if List.length dominating > k then
    invalid_arg "Reduction.schedule_of_dominating_set: set larger than k";
  if not (check_dominating g dominating) then
    invalid_arg "Reduction.schedule_of_dominating_set: not dominating";
  let in_d = Array.make n false in
  List.iter (fun d -> in_d.(d) <- true) dominating;
  (* n - k relays outside D carry the B tokens (there are at least
     n - k of them since |D| <= k). *)
  let carriers =
    List.filteri (fun idx _ -> idx < n - k)
      (List.filter (fun i -> not in_d.(i)) (List.init n Fun.id))
  in
  let step1 =
    List.mapi
      (fun idx i -> { Move.src = vertex_s; dst = relay i; token = idx + 1 })
      carriers
    @ List.map
        (fun d -> { Move.src = vertex_s; dst = relay d; token = 0 })
        dominating
  in
  let dominator_of j =
    if in_d.(j) then j
    else
      match List.find_opt (fun u -> in_d.(u)) (Digraph.neighbors g j) with
      | Some u -> u
      | None -> assert false (* checked dominating *)
  in
  let step2 =
    List.mapi
      (fun idx i -> { Move.src = relay i; dst = vertex_t; token = idx + 1 })
      carriers
    @ List.init n (fun j ->
          { Move.src = relay (dominator_of j); dst = receiver j; token = 0 })
  in
  Schedule.of_steps [ step1; step2 ]

(* Exact 2-step decision.  By the symmetry of the B tokens, a 2-step
   schedule exists iff some set D of at most k relays can receive
   token 0 in step 1 and cover every receiver in step 2 (the other
   n - k relays carry the B tokens to t).  We enumerate all subsets D
   over the *reduced instance's* arcs — independent of the Dominating
   module, though of course it mirrors the proof of Theorem 5. *)
let two_step_solvable g ~k =
  let n = Digraph.vertex_count g in
  let inst = instance g ~k in
  let receiver = receiver_of ~n in
  let covers d_mask =
    let ok = ref true in
    for j = 0 to n - 1 do
      if !ok then begin
        let covered = ref false in
        Digraph.View.iter
          (fun src _ ->
            (* in-neighbours of v'_j in the reduced graph are relays *)
            let i = src - 2 in
            if i >= 0 && i < n && d_mask land (1 lsl i) <> 0 then covered := true)
          (Digraph.pred inst.Instance.graph (receiver j));
        if not !covered then ok := false
      end
    done;
    !ok
  in
  if n > Sys.int_size - 2 then invalid_arg "Reduction.two_step_solvable: n too large";
  let rec scan mask =
    if mask >= 1 lsl n then false
    else if Ocd_prelude.Bitset.popcount mask <= k && covers mask then true
    else scan (mask + 1)
  in
  scan 0
