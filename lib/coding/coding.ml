open Ocd_core
open Ocd_prelude
module Engine = Ocd_engine.Engine

type group = {
  group_id : int;
  tokens : Bitset.t;
  required : int;
  receivers : int list;
}

type t = {
  instance : Instance.t;
  groups : group list;
}

let single_file rng ~graph ~required ~coded ?source () =
  if required <= 0 || coded < required then
    invalid_arg "Coding.single_file: need 0 < required <= coded";
  let n = Ocd_graph.Digraph.vertex_count graph in
  let source =
    match source with
    | Some s ->
      if s < 0 || s >= n then invalid_arg "Coding.single_file: bad source";
      s
    | None -> Prng.int rng n
  in
  let receivers = List.filter (fun v -> v <> source) (Order.range n) in
  let all = Order.range coded in
  let instance =
    Instance.make ~graph ~token_count:coded
      ~have:[ (source, all) ]
      ~want:(List.map (fun v -> (v, all)) receivers)
  in
  {
    instance;
    groups =
      [
        {
          group_id = 0;
          tokens = Bitset.full coded;
          required;
          receivers;
        };
      ];
  }

let decoded t have v =
  List.for_all
    (fun g ->
      (not (Order.mem_int v g.receivers))
      || Bitset.cardinal (Bitset.inter have.(v) g.tokens) >= g.required)
    t.groups

let all_decoded t have =
  let n = Instance.vertex_count t.instance in
  let rec go v = v >= n || (decoded t have v && go (v + 1)) in
  go 0

type run = {
  strategy_name : string;
  outcome : Engine.outcome;
  schedule : Schedule.t;
  makespan : int;
  bandwidth : int;
  completion_times : int array;
}

(* Incremental decoding state: instead of re-testing [decoded] against
   a full possession snapshot per step (O(n · groups) each), track per
   (group, vertex) how many of the group's coded tokens the vertex
   holds and update in O(groups) per fresh delivery. *)
type decode_state = {
  ds_groups : group array;
  ds_member : bool array array;  (* group index -> vertex -> receiver? *)
  ds_counts : int array array;   (* group index -> vertex -> |p(v) ∩ tokens| *)
  ds_pending : int array;        (* vertex -> groups not yet decoded *)
  ds_completion : int array;     (* vertex -> first decoded boundary; -1 *)
  mutable ds_undecoded : int;    (* vertices not yet decoded *)
}

let decode_state t =
  let inst = t.instance in
  let n = Instance.vertex_count inst in
  let ds_groups = Array.of_list t.groups in
  let ds_member =
    Array.map
      (fun g ->
        let a = Array.make n false in
        List.iter (fun v -> a.(v) <- true) g.receivers;
        a)
      ds_groups
  in
  let ds_counts =
    Array.mapi
      (fun gi g ->
        Array.init n (fun v ->
            if ds_member.(gi).(v) then
              Bitset.cardinal (Bitset.inter inst.Instance.have.(v) g.tokens)
            else 0))
      ds_groups
  in
  let ds_pending = Array.make n 0 in
  Array.iteri
    (fun gi g ->
      for v = 0 to n - 1 do
        if ds_member.(gi).(v) && ds_counts.(gi).(v) < g.required then
          ds_pending.(v) <- ds_pending.(v) + 1
      done)
    ds_groups;
  let ds_completion = Array.map (fun p -> if p = 0 then 0 else -1) ds_pending in
  let ds_undecoded =
    Array.fold_left (fun acc p -> if p > 0 then acc + 1 else acc) 0 ds_pending
  in
  { ds_groups; ds_member; ds_counts; ds_pending; ds_completion; ds_undecoded }

(* [dst] just freshly received [token] (it was missing before), visible
   at boundary [step]. *)
let decode_deliver st ~step ~dst ~token =
  Array.iteri
    (fun gi g ->
      if st.ds_member.(gi).(dst) && Bitset.mem g.tokens token then begin
        let c = st.ds_counts.(gi).(dst) + 1 in
        st.ds_counts.(gi).(dst) <- c;
        if c = g.required then begin
          let p = st.ds_pending.(dst) - 1 in
          st.ds_pending.(dst) <- p;
          if p = 0 then begin
            st.ds_completion.(dst) <- step;
            st.ds_undecoded <- st.ds_undecoded - 1
          end
        end
      end)
    st.ds_groups

let run ~strategy ~seed t =
  let st = decode_state t in
  let completion =
    Engine.Custom
      {
        finished = (fun () -> st.ds_undecoded = 0);
        on_fresh = decode_deliver st;
      }
  in
  let r =
    Engine.rounds ~admission:Engine.Exact ~completion ~strategy ~seed t.instance
  in
  {
    strategy_name = strategy.Ocd_engine.Strategy.name;
    outcome = r.Engine.ended;
    schedule = r.Engine.recorded;
    makespan = Array.fold_left Int.max 0 st.ds_completion;
    bandwidth = Schedule.move_count r.Engine.recorded;
    completion_times = st.ds_completion;
  }
