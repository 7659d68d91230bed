open Ocd_prelude
open Ocd_graph

type error =
  | No_such_arc of { step : int; move : Move.t }
  | Duplicate_assignment of { step : int; move : Move.t }
  | Capacity_exceeded of {
      step : int;
      src : int;
      dst : int;
      sent : int;
      capacity : int;
    }
  | Not_possessed of { step : int; move : Move.t }
  | Unsatisfied of { vertex : int; missing : int list }

let pp_error ppf = function
  | No_such_arc { step; move } ->
    Format.fprintf ppf "step %d: move %a uses a non-existent arc" step Move.pp
      move
  | Duplicate_assignment { step; move } ->
    Format.fprintf ppf "step %d: move %a repeated within the step" step Move.pp
      move
  | Capacity_exceeded { step; src; dst; sent; capacity } ->
    Format.fprintf ppf "step %d: arc %d->%d carries %d tokens (capacity %d)"
      step src dst sent capacity
  | Not_possessed { step; move } ->
    Format.fprintf ppf "step %d: move %a sends a token the source lacks" step
      Move.pp move
  | Unsatisfied { vertex; missing } ->
    Format.fprintf ppf "vertex %d never received wanted tokens %a" vertex
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      missing

let final_possessions inst schedule =
  Array.map Bitset.copy (Timeline.final (Timeline.run inst schedule))

let check_validity (inst : Instance.t) schedule =
  let g = inst.graph in
  let n = Instance.vertex_count inst in
  let token_count = inst.token_count in
  let before = Array.map Bitset.copy inst.have in
  let error = ref None in
  let fail e = if !error = None then error := Some e in
  (* Int-packed keys — [(src·n + dst)·m + token] and [src·n + dst] —
     in stamped tables hoisted out of the step loop: clearing is O(1)
     per step and a probe allocates nothing. *)
  let seen = Int_tab.create () in
  let arc_load = Int_tab.create () in
  let run_step step =
    Int_tab.clear seen;
    Int_tab.clear arc_load;
    let check_move ~src ~dst ~token =
      let cap = Digraph.capacity g src dst in
      let in_range = token >= 0 && token < token_count in
      if cap = 0 then fail (No_such_arc { step; move = { Move.src; dst; token } })
      else begin
        (* Out-of-range tokens skip the dedup table (the packed key
           cannot represent them); they fail [Not_possessed] below, so
           any later duplicate is shadowed by that earlier error either
           way. *)
        if in_range then begin
          let key = ((src * n) + dst) * token_count + token in
          if Int_tab.incr seen key > 1 then
            fail (Duplicate_assignment { step; move = { Move.src; dst; token } })
        end;
        let load = Int_tab.incr arc_load ((src * n) + dst) in
        if load > cap then
          fail (Capacity_exceeded { step; src; dst; sent = load; capacity = cap });
        if not (in_range && Bitset.mem before.(src) token) then
          fail (Not_possessed { step; move = { Move.src; dst; token } })
      end
    in
    Schedule.iter_step schedule step check_move;
    (* Deliveries become visible only at the next step. *)
    Schedule.iter_step schedule step (fun ~src:_ ~dst ~token ->
        if token >= 0 && token < token_count then Bitset.add before.(dst) token)
  in
  for step = 0 to Schedule.length schedule - 1 do
    run_step step
  done;
  match !error with Some e -> Error e | None -> Ok before

let check inst schedule =
  match check_validity inst schedule with Ok _ -> Ok () | Error e -> Error e

let check_successful (inst : Instance.t) schedule =
  match check_validity inst schedule with
  | Error e -> Error e
  | Ok final ->
    let rec scan v =
      if v >= Instance.vertex_count inst then Ok ()
      else if Bitset.subset inst.want.(v) final.(v) then scan (v + 1)
      else
        Error
          (Unsatisfied
             {
               vertex = v;
               missing = Bitset.elements (Bitset.diff inst.want.(v) final.(v));
             })
    in
    scan 0
