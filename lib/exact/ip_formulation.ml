open Ocd_core
open Ocd_prelude
open Ocd_graph

type outcome =
  | Solved of { bandwidth : int; schedule : Schedule.t }
  | Infeasible_at_horizon
  | Budget_exceeded

(* Arc universe: real arcs first, then one self-arc per vertex. *)
type layout = {
  real_arcs : (int * int * int) array;  (* src, dst, capacity *)
  n : int;
  m : int;  (* tokens *)
  horizon : int;  (* τ: real-arc steps are 1..τ, self-arc steps 1..τ+1 *)
}

let layout_of (inst : Instance.t) ~horizon =
  {
    real_arcs =
      Array.of_list
        (List.map
           (fun { Digraph.src; dst; capacity } -> (src, dst, capacity))
           (Digraph.arcs inst.graph));
    n = Instance.vertex_count inst;
    m = inst.token_count;
    horizon;
  }

let arc_total l = Array.length l.real_arcs + l.n

(* Variable ids: steps 1..τ hold all arcs (real then self); step τ+1
   holds only the self arcs, appended at the end. *)
let var_real l ~step ~arc ~token =
  assert (step >= 1 && step <= l.horizon);
  (((step - 1) * arc_total l) + arc) * l.m + token

let var_self l ~step ~vertex ~token =
  if step <= l.horizon then
    (((step - 1) * arc_total l) + Array.length l.real_arcs + vertex) * l.m
    + token
  else begin
    assert (step = l.horizon + 1);
    (l.horizon * arc_total l * l.m) + (vertex * l.m) + token
  end

let variable_count_of l = (l.horizon * arc_total l * l.m) + (l.n * l.m)

let variable_count inst ~horizon =
  variable_count_of (layout_of inst ~horizon)

(* Incoming arcs of u in E' = real in-arcs plus the self arc. *)
let incoming (inst : Instance.t) l u =
  let real = ref [] in
  Array.iteri
    (fun arc (_, dst, _) -> if dst = u then real := arc :: !real)
    l.real_arcs;
  (* Digraph.pred would be faster but indices into [real_arcs] are
     needed; instance sizes here are tiny. *)
  ignore inst;
  !real

let constraints (inst : Instance.t) l =
  let vars = variable_count_of l in
  let acc = ref [] in
  let add coeffs relation rhs =
    acc := { Simplex.coeffs; relation; rhs } :: !acc
  in
  let row () = Array.make vars 0.0 in
  let incoming_of = Array.init l.n (fun u -> incoming inst l u) in
  (* Possession constraints. *)
  let possession ~step ~var_id ~u ~token =
    let coeffs = row () in
    coeffs.(var_id) <- 1.0;
    let rhs = ref 0.0 in
    if step - 1 = 0 then begin
      (* x^0: only self arcs are nonzero, and they are constants. *)
      if Bitset.mem inst.have.(u) token then rhs := 1.0
    end
    else begin
      List.iter
        (fun arc ->
          coeffs.(var_real l ~step:(step - 1) ~arc ~token) <- -1.0)
        incoming_of.(u);
      coeffs.(var_self l ~step:(step - 1) ~vertex:u ~token) <- -1.0
    end;
    add coeffs Simplex.Le !rhs
  in
  for step = 1 to l.horizon do
    Array.iteri
      (fun arc (src, _, _) ->
        for token = 0 to l.m - 1 do
          possession ~step ~var_id:(var_real l ~step ~arc ~token) ~u:src ~token
        done)
      l.real_arcs;
    for vertex = 0 to l.n - 1 do
      for token = 0 to l.m - 1 do
        possession ~step ~var_id:(var_self l ~step ~vertex ~token) ~u:vertex
          ~token
      done
    done
  done;
  (* Final storage step τ+1 for self arcs. *)
  let final = l.horizon + 1 in
  for vertex = 0 to l.n - 1 do
    for token = 0 to l.m - 1 do
      possession ~step:final
        ~var_id:(var_self l ~step:final ~vertex ~token)
        ~u:vertex ~token
    done
  done;
  (* Capacity constraints on real arcs. *)
  for step = 1 to l.horizon do
    Array.iteri
      (fun arc (_, _, cap) ->
        let coeffs = row () in
        for token = 0 to l.m - 1 do
          coeffs.(var_real l ~step ~arc ~token) <- 1.0
        done;
        add coeffs Simplex.Le (float_of_int cap))
      l.real_arcs
  done;
  (* Delivery constraints. *)
  for vertex = 0 to l.n - 1 do
    Bitset.iter
      (fun token ->
        let coeffs = row () in
        coeffs.(var_self l ~step:final ~vertex ~token) <- 1.0;
        add coeffs Simplex.Ge 1.0)
      inst.want.(vertex)
  done;
  List.rev !acc

let objective l =
  let vars = variable_count_of l in
  let c = Array.make vars 0 in
  for step = 1 to l.horizon do
    Array.iteri
      (fun arc _ ->
        for token = 0 to l.m - 1 do
          c.(var_real l ~step ~arc ~token) <- 1
        done)
      l.real_arcs
  done;
  c

let schedule_of_solution (l : layout) solution =
  let steps =
    List.init l.horizon (fun j ->
        let step = j + 1 in
        let moves = ref [] in
        Array.iteri
          (fun arc (src, dst, _) ->
            for token = 0 to l.m - 1 do
              if solution.(var_real l ~step ~arc ~token) then
                moves := { Move.src; dst; token } :: !moves
            done)
          l.real_arcs;
        !moves)
  in
  Schedule.drop_trailing_empty (Schedule.of_steps steps)

let eocd_at_horizon ?max_nodes (inst : Instance.t) ~horizon =
  if horizon < 0 then invalid_arg "Ip_formulation: negative horizon";
  let l = layout_of inst ~horizon in
  match
    Ilp.minimize ?max_nodes ~var_count:(variable_count_of l)
      ~objective:(objective l) ~constraints:(constraints inst l) ()
  with
  | Ilp.Infeasible -> Infeasible_at_horizon
  | Ilp.Budget_exceeded -> Budget_exceeded
  | Ilp.Optimal { objective = bandwidth; solution } ->
    let schedule = schedule_of_solution l solution in
    (match Validate.check_successful inst schedule with
    | Ok () -> Solved { bandwidth; schedule }
    | Error e ->
      invalid_arg
        (Format.asprintf "Ip_formulation: extracted schedule invalid: %a"
           Validate.pp_error e))

let max_horizon = 16

let focd inst =
  let lower =
    if Instance.trivially_satisfied inst then 0
    else max 1 (Bounds.makespan_lower_bound inst)
  in
  let rec scan horizon =
    if horizon > max_horizon then None
    else
      match eocd_at_horizon inst ~horizon with
      | Solved { schedule; _ } -> Some (horizon, schedule)
      | Infeasible_at_horizon -> scan (horizon + 1)
      | Budget_exceeded -> None
  in
  scan lower
