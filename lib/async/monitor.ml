type violation = { tick : int; node : int; rule : string; detail : string }

type t = {
  on : bool;
  mutable count : int;
  mutable violations : violation list;  (* newest first, capped at [limit] *)
  by_rule : (string, int) Hashtbl.t;  (* exact per-rule totals, uncapped *)
}

(* Violations that keep their detail records. *)
let limit = 64

let disabled =
  { on = false; count = 0; violations = []; by_rule = Hashtbl.create 1 }

let create () =
  { on = true; count = 0; violations = []; by_rule = Hashtbl.create 8 }

let enabled m = m.on

let record m ~tick ~node ~rule ~detail =
  if m.on then begin
    m.count <- m.count + 1;
    Hashtbl.replace m.by_rule rule
      (1 + Option.value ~default:0 (Hashtbl.find_opt m.by_rule rule));
    if List.length m.violations < limit then
      m.violations <- { tick; node; rule; detail } :: m.violations
  end

let check m ~tick ~node ~rule ~ok ~detail =
  if m.on && not ok then record m ~tick ~node ~rule ~detail:(detail ())

let count m = m.count
let ok m = m.count = 0
let violations m = List.rev m.violations

let rule_counts m =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun rule c acc -> (rule, c) :: acc) m.by_rule [])
