open Ocd_prelude
open Ocd_core
module C = Ocd_obs.Causal
module Faults = Ocd_dynamics.Faults

type category =
  | Transmit
  | Queue
  | Backoff
  | Suspicion
  | Crash_down
  | Partition_down
  | Protocol_idle

let categories =
  [
    Transmit;
    Queue;
    Backoff;
    Suspicion;
    Crash_down;
    Partition_down;
    Protocol_idle;
  ]

let category_name = function
  | Transmit -> "transmit"
  | Queue -> "queue"
  | Backoff -> "backoff"
  | Suspicion -> "suspicion"
  | Crash_down -> "crash-down"
  | Partition_down -> "partition-down"
  | Protocol_idle -> "protocol-idle"

let cat_idx = function
  | Transmit -> 0
  | Queue -> 1
  | Backoff -> 2
  | Suspicion -> 3
  | Crash_down -> 4
  | Partition_down -> 5
  | Protocol_idle -> 6

type delivery_stats = { fresh : int; max_hops : int; mean_hops : float }

type decomposition = {
  makespan : int;
  by_category : (category * int) list;
  path_events : int;
  path_hops : int;
  lower_bound : int;
  deliveries : delivery_stats option;
}

let find_complete log =
  let rec go i =
    if i < 0 then None
    else if C.kind log i = C.Complete then Some i
    else go (i - 1)
  in
  go (C.length log - 1)

(* Per-node crash intervals [crash, restart), reconstructed from the
   log itself so attribution needs no side channel to the fault plan; a
   crash with no matching restart is open-ended. *)
let down_intervals log =
  let opened = Hashtbl.create 16 in
  let ivals = Hashtbl.create 16 in
  let add v iv =
    Hashtbl.replace ivals v
      (iv :: (Option.value ~default:[] (Hashtbl.find_opt ivals v)))
  in
  for i = 0 to C.length log - 1 do
    match C.kind log i with
    | C.Crash -> Hashtbl.replace opened (C.node log i) (C.tick log i)
    | C.Restart -> (
        let v = C.node log i in
        match Hashtbl.find_opt opened v with
        | Some t0 ->
            Hashtbl.remove opened v;
            add v (t0, C.tick log i)
        | None -> ())
    | _ -> ()
  done;
  Hashtbl.iter (fun v t0 -> add v (t0, max_int)) opened;
  ivals

let down_at ivals v t =
  match Hashtbl.find_opt ivals v with
  | None -> false
  | Some l -> List.exists (fun (a, b) -> a <= t && t < b) l

(* Per-node detector-episode ticks. *)
let suspicion_ticks log =
  let tbl = Hashtbl.create 16 in
  for i = 0 to C.length log - 1 do
    if C.kind log i = C.Suspicion then
      Hashtbl.replace tbl (C.node log i)
        (C.tick log i
        :: Option.value ~default:[] (Hashtbl.find_opt tbl (C.node log i)))
  done;
  tbl

let suspected_in tbl v t0 t1 =
  match Hashtbl.find_opt tbl v with
  | None -> false
  | Some l -> List.exists (fun t -> t0 <= t && t < t1) l

let walk_path log complete =
  let rec go acc i =
    let acc = i :: acc in
    let p = C.parent log i in
    if p < 0 then acc else go acc p
  in
  go [] complete

let path log = Option.map (walk_path log) (find_complete log)

let delivery_stats log =
  let n = C.length log in
  let hops = Array.make (max n 1) 0 in
  let fresh = ref 0 and maxh = ref 0 and sumh = ref 0 in
  for i = 1 to n - 1 do
    let p = C.parent log i in
    let h =
      (if p >= 0 then hops.(p) else 0)
      + match C.kind log i with C.Deliver -> 1 | _ -> 0
    in
    hops.(i) <- h;
    if C.kind log i = C.Deliver && C.is_fresh log i then begin
      incr fresh;
      if h > !maxh then maxh := h;
      sumh := !sumh + h
    end
  done;
  {
    fresh = !fresh;
    max_hops = !maxh;
    mean_hops = (if !fresh = 0 then 0. else float !sumh /. float !fresh);
  }

let of_causal ?(faults = Faults.none) ~pace ~instance log =
  match find_complete log with
  | None -> None
  | Some complete ->
      let downs = down_intervals log in
      let susp = suspicion_ticks log in
      let counts = Array.make 7 0 in
      let add c n = counts.(cat_idx c) <- counts.(cat_idx c) + n in
      let part_on = Faults.has_partition faults in
      (* Context carried rootward from the nearest leaf-ward Send: who
         the waiting node was about to talk to, and whether that send
         was a retransmission. *)
      let ctx_peer = ref (-1) and ctx_retry = ref false in
      let classify_wait v t0 t1 =
        if t1 > t0 then begin
          let w = !ctx_peer in
          let seg_susp = suspected_in susp v t0 t1 in
          for t = t0 to t1 - 1 do
            let c =
              if w >= 0 && part_on && Faults.separated faults ~round:(t / pace) v w
              then Partition_down
              else if w >= 0 && down_at downs w t then Crash_down
              else if seg_susp then Suspicion
              else if !ctx_retry then Backoff
              else Protocol_idle
            in
            add c 1
          done
        end
      in
      let path_events = ref 0 and path_hops = ref 0 in
      let i = ref complete in
      let stop = ref false in
      while not !stop do
        incr path_events;
        let e = !i in
        let p = C.parent log e in
        if p < 0 then stop := true
        else begin
          let t1 = C.tick log e and t0 = C.tick log p in
          (match C.kind log e with
          | C.Deliver ->
              (* parent is the Send; split its span at departure *)
              incr path_hops;
              let d = C.depart log p in
              add Queue (d - t0);
              add Transmit (t1 - d)
          | C.Restart -> add Crash_down (t1 - t0)
          | C.Root | C.Suspicion -> ()
          | C.Send | C.Boot | C.Timer | C.Crash | C.Complete ->
              classify_wait (C.node log e) t0 t1);
          (match C.kind log e with
          | C.Send ->
              ctx_peer := C.peer log e;
              ctx_retry := C.is_retry log e
          | _ -> ());
          i := p
        end
      done;
      Some
        {
          makespan = C.tick log complete;
          by_category = List.map (fun c -> (c, counts.(cat_idx c))) categories;
          path_events = !path_events;
          path_hops = !path_hops;
          lower_bound = Bounds.makespan_lower_bound instance * pace;
          deliveries = Some (delivery_stats log);
        }

let flow_overlay ~sink log =
  if Ocd_obs.Sink.enabled sink then
    match path log with
    | None -> ()
    | Some ids ->
        let ids = List.filter (fun i -> i <> 0) ids in
        let last = List.length ids - 1 in
        List.iteri
          (fun j i ->
            let tid =
              if C.node log i >= 0 then C.node log i
              else
                let p = C.parent log i in
                if p >= 0 && C.node log p >= 0 then C.node log p else 0
            in
            let phase =
              if j = 0 then `Start else if j = last then `End else `Step
            in
            Ocd_obs.Span.flow sink ~pid:0 ~tid ~name:"critical-path"
              ~ts:(C.tick log i) ~id:1 phase)
          ids

(* Synchronous analogue: the token-dependency chain ending at the
   schedule's last move.  Each move's binding parent is the move that
   gave its source the token (or the initial state), so consecutive
   segments [parent_visible, move_round + 1) telescope to exactly the
   schedule length in rounds. *)
let of_schedule ?(pace = 1) ~instance sched =
  let n = Instance.vertex_count instance in
  let token_count = instance.Instance.token_count in
  let len = Schedule.length sched in
  (* Flat tables: the first move delivering [token] to [dst] at
     [dst * token_count + token] (source, round; -1 = none yet), and
     the busy (vertex, round) pairs at [src * len + round]. *)
  let acq_src = Array.make (n * token_count) (-1) in
  let acq_round = Array.make (n * token_count) 0 in
  let busy = Bitset.create (n * len) in
  let rounds = ref 0 and last_src = ref (-1) and last_token = ref 0 in
  for step = 0 to len - 1 do
    Schedule.iter_step sched step (fun ~src ~dst ~token ->
        rounds := step + 1;
        let k = (dst * token_count) + token in
        if acq_src.(k) < 0 then begin
          acq_src.(k) <- src;
          acq_round.(k) <- step
        end;
        Bitset.add busy ((src * len) + step);
        last_src := src;
        last_token := token)
  done;
  if !last_src < 0 then None
  else begin
    let counts = Array.make 7 0 in
    let add c n = counts.(cat_idx c) <- counts.(cat_idx c) + n in
    let hops = ref 0 in
    (* walk: the move at [r] needed its source to hold the token,
       which happened at [pr]; rounds [pr, r) are gap, [r] the move *)
    let rec back r src token =
      incr hops;
      add Transmit 1;
      let k = (src * token_count) + token in
      let psrc =
        if Bitset.mem instance.Instance.have.(src) token then -1
        else acq_src.(k)
      in
      let pr = if psrc < 0 then 0 else acq_round.(k) + 1 in
      for g = pr to r - 1 do
        if Bitset.mem busy ((src * len) + g) then add Queue 1
        else add Protocol_idle 1
      done;
      if psrc >= 0 then back acq_round.(k) psrc token
    in
    back (!rounds - 1) !last_src !last_token;
    let scale (c, n) = (c, n * pace) in
    Some
      {
        makespan = !rounds * pace;
        by_category =
          List.map scale (List.map (fun c -> (c, counts.(cat_idx c))) categories);
        path_events = !hops + 1;
        path_hops = !hops;
        lower_bound = Bounds.makespan_lower_bound instance * pace;
        deliveries = None;
      }
  end

let pct n total =
  if total = 0 then "0.0%" else Printf.sprintf "%.1f%%" (100. *. float n /. float total)

let table ?(title = "critical-path attribution") d =
  let t = Report.create ~title ~columns:[ "category"; "ticks"; "share" ] in
  List.iter
    (fun (c, n) ->
      Report.row t [ category_name c; string_of_int n; pct n d.makespan ])
    d.by_category;
  Report.row t
    [
      "total";
      string_of_int (List.fold_left (fun a (_, n) -> a + n) 0 d.by_category);
      (if d.makespan = 0 then "0.0%" else "100.0%");
    ];
  t

let notes d =
  let gap =
    if d.lower_bound > 0 then float d.makespan /. float d.lower_bound else 0.
  in
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf
       "makespan %d ticks; lower bound %d ticks (x%.2f); path %d events, %d \
        hops\n"
       d.makespan d.lower_bound gap d.path_events d.path_hops);
  (match d.deliveries with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf "fresh deliveries %d; deepest chain %d hops, mean %.2f\n"
           s.fresh s.max_hops s.mean_hops)
  | None -> ());
  Buffer.contents b
