open Ocd_core
open Ocd_prelude
open Ocd_graph

type 'a result = Solved of 'a | Unsatisfiable | Budget_exceeded

type solution = { objective : int; schedule : Schedule.t }

exception Out_of_budget

(* States pack each vertex's possession into one int bitmask; the
   exact solvers are for instances with few tokens. *)
let mask_of_bitset s =
  Bitset.fold (fun t acc -> acc lor (1 lsl t)) s 0

let bits_of_mask mask =
  let rec go m acc =
    if m = 0 then List.rev acc
    else
      let b = m land -m in
      let rec index b i = if b = 1 then i else index (b lsr 1) (i + 1) in
      go (m land (m - 1)) (index b 0 :: acc)
  in
  go mask []

(* All submasks of [mask] with exactly [k] bits. *)
let submasks_of_size mask k =
  let bits = Array.of_list (bits_of_mask mask) in
  let n = Array.length bits in
  let acc = ref [] in
  let rec choose i chosen m =
    if chosen = k then acc := m :: !acc
    else if i >= n then ()
    else begin
      choose (i + 1) (chosen + 1) (m lor (1 lsl bits.(i)));
      (* prune: not enough bits left *)
      if n - i - 1 >= k - chosen then choose (i + 1) chosen m
    end
  in
  choose 0 0 0;
  !acc

(* All submasks of [mask] with at most [k] bits (including 0). *)
let submasks_up_to mask k =
  if mask = 0 then [ 0 ]
  else begin
    let acc = ref [] in
    let sub = ref mask in
    let continue = ref true in
    while !continue do
      if Bitset.popcount !sub <= k then acc := !sub :: !acc;
      if !sub = 0 then continue := false else sub := (!sub - 1) land mask
    done;
    !acc
  end

type context = {
  instance : Instance.t;
  arcs : (int * int * int) array;  (* src, dst, capacity *)
  want_masks : int array;
  max_states : int;
  mutable explored : int;
  mutable emitted : int;
}

let make_context ?(max_states = 200_000) (inst : Instance.t) =
  if inst.token_count > Sys.int_size - 1 then
    invalid_arg "Search: too many tokens for the exact solver";
  let arcs =
    Array.of_list
      (List.map
         (fun { Digraph.src; dst; capacity } -> (src, dst, capacity))
         (Digraph.arcs inst.graph))
  in
  {
    instance = inst;
    arcs;
    want_masks = Array.map mask_of_bitset inst.want;
    max_states;
    explored = 0;
    emitted = 0;
  }

let initial_state ctx = Array.map mask_of_bitset ctx.instance.Instance.have

let satisfied ctx state =
  let n = Array.length state in
  let rec go v =
    v >= n || (state.(v) land ctx.want_masks.(v) = ctx.want_masks.(v) && go (v + 1))
  in
  go 0

let charge ctx =
  ctx.explored <- ctx.explored + 1;
  if ctx.explored > ctx.max_states then raise Out_of_budget

(* Enumerate the per-arc choice lists, then fold their cartesian
   product into successor states.  [choices_for] returns the list of
   token masks an arc may carry.  [emit] receives (state', moves,
   move_count). *)
let expand ctx state ~choices_for ~emit =
  let arcs = ctx.arcs in
  let n_arcs = Array.length arcs in
  (* Skip arcs with a single empty choice to keep recursion shallow. *)
  let relevant = ref [] in
  for i = n_arcs - 1 downto 0 do
    match choices_for arcs.(i) state with
    | [ 0 ] | [] -> ()
    | choices -> relevant := (arcs.(i), choices) :: !relevant
  done;
  let rec product pending acc_moves acc_count deliveries =
    match pending with
    | [] ->
      if acc_count > 0 then begin
        (* Successor emissions dwarf state pops on capacity-bound
           instances; budget them separately so a single state cannot
           hang the search. *)
        ctx.emitted <- ctx.emitted + 1;
        if ctx.emitted > 10 * ctx.max_states then raise Out_of_budget;
        let state' = Array.copy state in
        List.iter
          (fun (dst, mask) -> state'.(dst) <- state'.(dst) lor mask)
          deliveries;
        emit state' acc_moves acc_count
      end
    | ((src, dst, _cap), choices) :: rest ->
      List.iter
        (fun mask ->
          let moves =
            if mask = 0 then acc_moves
            else
              List.fold_left
                (fun acc token -> { Move.src; dst; token } :: acc)
                acc_moves (bits_of_mask mask)
          in
          product rest moves
            (acc_count + Bitset.popcount mask)
            (if mask = 0 then deliveries else (dst, mask) :: deliveries))
        choices;
  in
  product !relevant [] 0 []

(* FOCD choices: maximal useful selections per arc. *)
let focd_choices (src, dst, cap) state =
  let useful = state.(src) land lnot state.(dst) in
  if useful = 0 then [ 0 ]
  else if Bitset.popcount useful <= cap then [ useful ]
  else submasks_of_size useful cap

(* EOCD choices: every useful subset within capacity. *)
let eocd_choices (src, dst, cap) state =
  let useful = state.(src) land lnot state.(dst) in
  submasks_up_to useful cap

let reconstruct parents key =
  let rec go key acc =
    match Hashtbl.find_opt parents key with
    | None | Some None -> acc
    | Some (Some (prev_key, moves)) -> go prev_key (moves :: acc)
  in
  Schedule.of_steps (go key [])

let focd ?max_states inst =
  let ctx = make_context ?max_states inst in
  let start = initial_state ctx in
  if satisfied ctx start then
    Solved { objective = 0; schedule = Schedule.empty }
  else begin
    let visited = Hashtbl.create 1024 in
    let parents = Hashtbl.create 1024 in
    Hashtbl.replace visited start ();
    Hashtbl.replace parents start None;
    let frontier = Queue.create () in
    Queue.add (start, 0) frontier;
    let result = ref None in
    (try
       while !result = None && not (Queue.is_empty frontier) do
         let state, depth = Queue.pop frontier in
         charge ctx;
         expand ctx state ~choices_for:focd_choices ~emit:(fun state' moves _count ->
             if !result = None && not (Hashtbl.mem visited state') then begin
               Hashtbl.replace visited state' ();
               Hashtbl.replace parents state' (Some (state, List.rev moves));
               if satisfied ctx state' then
                 result :=
                   Some
                     {
                       objective = depth + 1;
                       schedule = reconstruct parents state';
                     }
               else Queue.add (state', depth + 1) frontier
             end)
       done;
       match !result with
       | Some s -> Solved s
       | None -> Unsatisfiable
     with Out_of_budget -> Budget_exceeded)
  end

module State_map = Hashtbl

let eocd ?max_states ?horizon inst =
  let ctx = make_context ?max_states inst in
  let start = initial_state ctx in
  if satisfied ctx start then
    Solved { objective = 0; schedule = Schedule.empty }
  else begin
    match horizon with
    | None ->
      (* Uniform-cost search on states, cost = moves per step. *)
      let dist : (int array, int) State_map.t = State_map.create 1024 in
      let parents = State_map.create 1024 in
      let heap = Pqueue.create () in
      State_map.replace dist start 0;
      State_map.replace parents start None;
      Pqueue.push heap ~priority:0 start;
      let result = ref None in
      (try
         let rec drain () =
           match Pqueue.pop heap with
           | None -> ()
           | Some (d, state) ->
             if !result <> None then ()
             else if d > Option.value (State_map.find_opt dist state) ~default:max_int
             then drain ()
             else if satisfied ctx state then
               result :=
                 Some { objective = d; schedule = reconstruct parents state }
             else begin
               charge ctx;
               expand ctx state ~choices_for:eocd_choices
                 ~emit:(fun state' moves count ->
                   let d' = d + count in
                   let known =
                     Option.value (State_map.find_opt dist state') ~default:max_int
                   in
                   if d' < known then begin
                     State_map.replace dist state' d';
                     State_map.replace parents state'
                       (Some (state, List.rev moves));
                     Pqueue.push heap ~priority:d' state'
                   end);
               drain ()
             end
         in
         drain ();
         match !result with Some s -> Solved s | None -> Unsatisfiable
       with Out_of_budget -> Budget_exceeded)
    | Some horizon ->
      (* Layered DP over timesteps; key = (state, step). *)
      let dist = State_map.create 1024 in
      let parents = State_map.create 1024 in
      State_map.replace dist (start, 0) 0;
      State_map.replace parents (start, 0) None;
      let layer = ref [ (start, 0) ] in
      let best = ref None in
      let note_solution key d =
        match !best with
        | Some (bd, _) when bd <= d -> ()
        | _ -> best := Some (d, key)
      in
      if satisfied ctx start then note_solution (start, 0) 0;
      (try
         for step = 0 to horizon - 1 do
           let next = ref [] in
           List.iter
             (fun (state, _) ->
               let d = State_map.find dist (state, step) in
               charge ctx;
               expand ctx state ~choices_for:eocd_choices
                 ~emit:(fun state' moves count ->
                   let key' = (state', step + 1) in
                   let d' = d + count in
                   let known =
                     Option.value (State_map.find_opt dist key') ~default:max_int
                   in
                   if d' < known then begin
                     if known = max_int then next := key' :: !next;
                     State_map.replace dist key' d';
                     State_map.replace parents key'
                       (Some ((state, step), List.rev moves));
                     if satisfied ctx state' then note_solution key' d'
                   end))
             !layer;
           layer := !next
         done;
         match !best with
         | None -> Unsatisfiable
         | Some (d, key) ->
           Solved { objective = d; schedule = reconstruct parents key }
       with Out_of_budget -> Budget_exceeded)
  end
