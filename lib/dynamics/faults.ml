type durability = Durable | Lost_unless_source

(* A crash plan answers "is [node] up in [round]?", a partition plan
   "when did the window covering [round] start?" (-1 when whole).  The
   seeded forms are partial applications of Condition.chain; the
   explicit forms, which the shrinker replays, look up literal
   spans and windows. *)
type crash_plan = { is_up : int -> int -> bool; durability : durability }

type partition_plan = { p_seed : int; groups : int; window_at : int -> int }

type t = { crash : crash_plan option; part : partition_plan option }

let none = { crash = None; part = None }
let is_none t = t.crash = None && t.part = None
let has_partition t = t.part <> None

(* ---------------------------- constructors -------------------------- *)

(* A node's chain is keyed (node, -2), disjoint from Condition.churn's
   (node, -1) and from every arc's (src, dst) under the same seed. *)
let crashes ~seed ?(protected = []) ?(durability = Lost_unless_source)
    ?(recover_prob = 0.5) ~crash_prob () =
  let down =
    Condition.chain ~seed ~down_prob:crash_prob ~up_prob:recover_prob
  in
  let is_up node round =
    Ocd_prelude.Order.mem_int node protected
    || down ~b:node ~c:(-2) ~step:round < 0
  in
  { crash = Some { is_up; durability }; part = None }

let of_downtime ?(durability = Lost_unless_source) spans =
  match spans with
  | [] -> none
  | _ ->
      let by_node = Hashtbl.create 16 in
      List.iter
        (fun (v, from_, until) ->
          if from_ < 1 || until <= from_ then
            invalid_arg "Faults.of_downtime: spans need 1 <= from < until";
          let prev = Option.value (Hashtbl.find_opt by_node v) ~default:[] in
          if List.exists (fun (a, b) -> from_ < b && a < until) prev then
            invalid_arg "Faults.of_downtime: overlapping spans for one node";
          Hashtbl.replace by_node v ((from_, until) :: prev))
        spans;
      let is_up node round =
        match Hashtbl.find_opt by_node node with
        | None -> true
        | Some spans ->
            not (List.exists (fun (a, b) -> round >= a && round < b) spans)
      in
      { crash = Some { is_up; durability }; part = None }

(* The split/heal chain is keyed (-1, -3): node-independent, so the
   whole network splits and heals together (this is what distinguishes
   a partition from independent churn). *)
let partitions ~seed ?(split_prob = 0.05) ?(heal_prob = 0.25) () =
  let split = Condition.chain ~seed ~down_prob:split_prob ~up_prob:heal_prob in
  let window_at round = split ~b:(-1) ~c:(-3) ~step:round in
  { crash = None; part = Some { p_seed = seed; groups = 2; window_at } }

let of_windows ~seed ?(groups = 2) windows =
  if groups < 2 then invalid_arg "Faults.of_windows: need at least 2 groups";
  match
    List.sort
      (fun (f1, u1) (f2, u2) ->
        let c = Int.compare f1 f2 in
        if c <> 0 then c else Int.compare u1 u2)
      windows
  with
  | [] -> none
  | sorted ->
      ignore
        (List.fold_left
           (fun prev_until (from_, until) ->
             if from_ < 1 || until <= from_ then
               invalid_arg "Faults.of_windows: windows need 1 <= from < until";
             if from_ < prev_until then
               invalid_arg "Faults.of_windows: overlapping windows";
             until)
           1 sorted);
      let window_at round =
        match List.find_opt (fun (a, b) -> round >= a && round < b) sorted with
        | Some (a, _) -> a
        | None -> -1
      in
      { crash = None; part = Some { p_seed = seed; groups; window_at } }

let compose a b =
  let crash =
    match (a.crash, b.crash) with
    | Some _, Some _ -> invalid_arg "Faults.compose: two crash plans"
    | (Some _ as c), None | None, c -> c
  in
  let part =
    match (a.part, b.part) with
    | Some _, Some _ -> invalid_arg "Faults.compose: two partition plans"
    | (Some _ as p), None | None, p -> p
  in
  { crash; part }

let durability t =
  match t.crash with None -> Durable | Some p -> p.durability

(* ------------------------------ crashes ----------------------------- *)

let up t ~round node =
  match t.crash with None -> true | Some p -> p.is_up node round

let transitions t ~node ~horizon =
  match t.crash with
  | None -> []
  | Some p ->
      let events = ref [] in
      let prev = ref true in
      for r = 1 to horizon do
        let cur = p.is_up node r in
        if cur <> !prev then
          events := (r, if cur then `Restart else `Crash) :: !events;
        prev := cur
      done;
      List.rev !events

let downtime t ~n ~horizon =
  match t.crash with
  | None -> []
  | Some _ ->
      List.concat_map
        (fun v ->
          let spans = ref [] in
          let open_at = ref None in
          List.iter
            (fun (r, ev) ->
              match (ev, !open_at) with
              | `Crash, None -> open_at := Some r
              | `Restart, Some a ->
                  spans := (v, a, r) :: !spans;
                  open_at := None
              | _ -> ())
            (transitions t ~node:v ~horizon);
          (match !open_at with
          | Some a -> spans := (v, a, horizon + 1) :: !spans
          | None -> ());
          List.rev !spans)
        (List.init n (fun v -> v))

(* ---------------------------- partitions ----------------------------- *)

(* A vertex's side within a window is keyed on (window start, vertex,
   -4), so the grouping is stable for the window's lifetime and
   reproducible from (seed, start) alone: an extracted window list
   replays through of_windows byte-identically. *)
let side p ~window v =
  let c = Condition.keyed_coin ~seed:p.p_seed ~a:window ~b:v ~c:(-4) in
  Int.min (p.groups - 1) (int_of_float (c *. float_of_int p.groups))

let partition_active t ~round =
  match t.part with None -> false | Some p -> p.window_at round >= 0

let separated t ~round u v =
  u <> v
  &&
  match t.part with
  | None -> false
  | Some p ->
      let w = p.window_at round in
      w >= 0 && side p ~window:w u <> side p ~window:w v

let windows t ~horizon =
  match t.part with
  | None -> []
  | Some p ->
      (* Track the window *start* rather than mere activity: two
         back-to-back windows must stay distinct because each one keys
         its group assignment on its own start round. *)
      let out = ref [] in
      let cur = ref (-1) in
      for r = 1 to horizon do
        let w = p.window_at r in
        if w <> !cur then begin
          if !cur >= 0 then out := (!cur, r) :: !out;
          cur := w
        end
      done;
      if !cur >= 0 then out := (!cur, horizon + 1) :: !out;
      List.rev !out

(* ------------------------------ shadow ------------------------------- *)

let to_condition t =
  if is_none t then Condition.static
  else
    Condition.make (fun ~step ~src ~dst ~base ->
        if
          up t ~round:step src && up t ~round:step dst
          && not (separated t ~round:step src dst)
        then base
        else 0)
