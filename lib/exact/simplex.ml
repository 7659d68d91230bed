type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

type problem = {
  var_count : int;
  objective : float array;
  constraints : constr list;
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Tableau layout: columns [0, total_vars) are structural, slack and
   artificial variables; column [total_vars] is the RHS.  [basis.(i)]
   is the variable basic in row [i].  The objective row [z] satisfies
   z.(j) = reduced cost of variable j (for minimisation: optimal when
   all z.(j) >= -eps ... we store the classic "c_j - z_j" row and
   enter on negative entries). *)
type tableau = {
  rows : float array array;  (* constraint rows, RHS last *)
  z : float array;           (* objective row, RHS last = -objective value *)
  basis : int array;
  total_vars : int;
}

let check_problem p =
  if Array.length p.objective <> p.var_count then
    invalid_arg "Simplex: objective length mismatch";
  List.iter
    (fun c ->
      if Array.length c.coeffs <> p.var_count then
        invalid_arg "Simplex: constraint length mismatch")
    p.constraints

(* Build the initial tableau with slack/surplus/artificial columns and
   the phase-1 objective (minimise artificial sum) already in
   canonical form. *)
let build p =
  let constraints = Array.of_list p.constraints in
  let m = Array.length constraints in
  let n = p.var_count in
  (* Normalise RHS to be non-negative. *)
  let normalized =
    Array.map
      (fun c ->
        if c.rhs < 0.0 then
          {
            coeffs = Array.map (fun x -> -.x) c.coeffs;
            rhs = -.c.rhs;
            relation =
              (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          }
        else c)
      constraints
  in
  let slack_count =
    Array.fold_left
      (fun acc c -> match c.relation with Le | Ge -> acc + 1 | Eq -> acc)
      0 normalized
  in
  let artificial_count =
    Array.fold_left
      (fun acc c -> match c.relation with Ge | Eq -> acc + 1 | Le -> acc)
      0 normalized
  in
  let total = n + slack_count + artificial_count in
  let rows = Array.make_matrix m (total + 1) 0.0 in
  let basis = Array.make m (-1) in
  let next_slack = ref n in
  let next_artificial = ref (n + slack_count) in
  let artificials = ref [] in
  Array.iteri
    (fun i c ->
      Array.blit c.coeffs 0 rows.(i) 0 n;
      rows.(i).(total) <- c.rhs;
      (match c.relation with
      | Le ->
        rows.(i).(!next_slack) <- 1.0;
        basis.(i) <- !next_slack;
        incr next_slack
      | Ge ->
        rows.(i).(!next_slack) <- -1.0;
        incr next_slack;
        rows.(i).(!next_artificial) <- 1.0;
        basis.(i) <- !next_artificial;
        artificials := !next_artificial :: !artificials;
        incr next_artificial
      | Eq ->
        rows.(i).(!next_artificial) <- 1.0;
        basis.(i) <- !next_artificial;
        artificials := !next_artificial :: !artificials;
        incr next_artificial))
    normalized;
  (* Phase-1 objective row: minimise Σ artificials.  Canonical form
     requires zero reduced cost on basic columns, so subtract each
     artificial's row. *)
  let z = Array.make (total + 1) 0.0 in
  List.iter (fun a -> z.(a) <- 1.0) !artificials;
  Array.iteri
    (fun i b ->
      if List.mem b !artificials then
        for j = 0 to total do
          z.(j) <- z.(j) -. rows.(i).(j)
        done)
    basis;
  ({ rows; z; basis; total_vars = total }, !artificials)

let pivot t ~row ~col =
  let total = t.total_vars in
  let p = t.rows.(row).(col) in
  for j = 0 to total do
    t.rows.(row).(j) <- t.rows.(row).(j) /. p
  done;
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > eps then
      for j = 0 to total do
        target.(j) <- target.(j) -. (f *. t.rows.(row).(j))
      done
  in
  Array.iteri (fun i r -> if i <> row then eliminate r) t.rows;
  eliminate t.z;
  t.basis.(row) <- col

(* Bland's rule: entering = smallest-index column with negative
   reduced cost; leaving = ratio test, ties by smallest basis
   variable.  Returns `Optimal | `Unbounded. *)
let optimize ?(forbidden = fun _ -> false) t =
  let total = t.total_vars in
  let m = Array.length t.rows in
  let rec iterate () =
    let entering = ref (-1) in
    (let j = ref 0 in
     while !entering = -1 && !j < total do
       if (not (forbidden !j)) && t.z.(!j) < -.eps then entering := !j;
       incr j
     done);
    if !entering = -1 then `Optimal
    else begin
      let col = !entering in
      let row = ref (-1) in
      let best = ref infinity in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if a > eps then begin
          let ratio = t.rows.(i).(total) /. a in
          if
            ratio < !best -. eps
            || (ratio < !best +. eps
               && (!row = -1 || t.basis.(i) < t.basis.(!row)))
          then begin
            best := ratio;
            row := i
          end
        end
      done;
      if !row = -1 then `Unbounded
      else begin
        pivot t ~row:!row ~col;
        iterate ()
      end
    end
  in
  iterate ()

let objective_value t = -.t.z.(t.total_vars)

let solution_of t n =
  let x = Array.make n 0.0 in
  Array.iteri
    (fun i b -> if b < n then x.(b) <- t.rows.(i).(t.total_vars))
    t.basis;
  x

(* After phase 1, drive remaining basic artificials out of the basis
   (or detect the row as redundant). *)
let purge_artificials t artificials =
  let is_artificial = Array.make t.total_vars false in
  List.iter (fun a -> is_artificial.(a) <- true) artificials;
  Array.iteri
    (fun i b ->
      if b >= 0 && b < t.total_vars && is_artificial.(b) then begin
        (* Find a non-artificial column with a nonzero entry. *)
        let col = ref (-1) in
        let j = ref 0 in
        while !col = -1 && !j < t.total_vars do
          if (not is_artificial.(!j)) && Float.abs t.rows.(i).(!j) > eps then
            col := !j;
          incr j
        done;
        match !col with
        | -1 -> () (* redundant row; artificial stays at value 0 *)
        | c -> pivot t ~row:i ~col:c
      end)
    t.basis;
  is_artificial

let minimize p =
  check_problem p;
  let t, artificials = build p in
  match optimize t with
  | `Unbounded ->
    (* Phase-1 objective is bounded below by 0; cannot happen. *)
    assert false
  | `Optimal ->
    if objective_value t < -.eps *. 100.0 then assert false
    else if Float.abs (objective_value t) > 1e-6 then Infeasible
    else begin
      let is_artificial = purge_artificials t artificials in
      (* Install the real objective row (minimise c·x): z.(j) starts
         at c_j, then canonicalise against the basis. *)
      Array.fill t.z 0 (t.total_vars + 1) 0.0;
      Array.blit p.objective 0 t.z 0 p.var_count;
      Array.iteri
        (fun i b ->
          if b >= 0 && Float.abs t.z.(b) > eps then begin
            let f = t.z.(b) in
            for j = 0 to t.total_vars do
              t.z.(j) <- t.z.(j) -. (f *. t.rows.(i).(j))
            done
          end)
        t.basis;
      match optimize ~forbidden:(fun j -> is_artificial.(j)) t with
      | `Unbounded -> Unbounded
      | `Optimal ->
        Optimal
          {
            objective = -.t.z.(t.total_vars);
            solution = solution_of t p.var_count;
          }
    end
