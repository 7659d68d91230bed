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

let final_possessions inst schedule = Timeline.final (Timeline.run inst schedule)

let check_validity (inst : Instance.t) schedule =
  let g = inst.graph in
  let { Digraph.row_cap; _ } = Digraph.succ_rows g in
  let token_count = inst.token_count in
  let have = Bitset.Rows.of_sets token_count inst.have in
  let error = ref None in
  let fail e = if !error = None then error := Some e in
  (* Per-step state indexed by the arc's CSR slot: [load] counts the
     arc's moves, and [sent] holds one token bitset row per slot for
     the (arc, token) duplicate test.  A slot is reset when first used
     in a step ([stamp] is not that step), so a step costs only the
     slots it touches; memory is arc count × (stride + 2) words. *)
  let arcs = Digraph.arc_count g in
  let stride = Bitset.words_for token_count in
  let stamp = Array.make arcs (-1) in
  let load = Array.make arcs 0 in
  let sent = Array.make (arcs * stride) 0 in
  let run_step step =
    let check_move ~src ~dst ~token =
      let slot = Digraph.slot g src dst in
      if slot < 0 then fail (No_such_arc { step; move = { Move.src; dst; token } })
      else begin
        if stamp.(slot) <> step then begin
          stamp.(slot) <- step;
          load.(slot) <- 0;
          Array.fill sent (slot * stride) stride 0
        end;
        let in_range = token >= 0 && token < token_count in
        (* Out-of-range tokens have no bit to dedup on; they fail
           [Not_possessed] below, so any later duplicate is shadowed by
           that earlier error either way. *)
        if in_range then begin
          let i = (slot * stride) + (token / Bitset.bits_per_word) in
          let b = 1 lsl (token mod Bitset.bits_per_word) in
          if sent.(i) land b <> 0 then
            fail (Duplicate_assignment { step; move = { Move.src; dst; token } })
          else sent.(i) <- sent.(i) lor b
        end;
        let l = load.(slot) + 1 in
        load.(slot) <- l;
        let cap = row_cap.(slot) in
        if l > cap then
          fail (Capacity_exceeded { step; src; dst; sent = l; capacity = cap });
        if not (in_range && Bitset.Rows.mem have src token) then
          fail (Not_possessed { step; move = { Move.src; dst; token } })
      end
    in
    Schedule.iter_step schedule step check_move;
    (* Deliveries become visible only at the next step. *)
    Schedule.iter_step schedule step (fun ~src:_ ~dst ~token ->
        if token >= 0 && token < token_count then
          ignore (Bitset.Rows.add have dst token))
  in
  for step = 0 to Schedule.length schedule - 1 do
    run_step step
  done;
  match !error with Some e -> Error e | None -> Ok have

let check inst schedule =
  match check_validity inst schedule with Ok _ -> Ok () | Error e -> Error e

let check_successful (inst : Instance.t) schedule =
  match check_validity inst schedule with
  | Error e -> Error e
  | Ok final ->
    let missing = Bitset.create inst.token_count in
    let rec scan v =
      if v >= Instance.vertex_count inst then Ok ()
      else begin
        Bitset.assign missing inst.want.(v);
        Bitset.Rows.diff_into missing final v;
        if Bitset.is_empty missing then scan (v + 1)
        else Error (Unsatisfied { vertex = v; missing = Bitset.elements missing })
      end
    in
    scan 0
