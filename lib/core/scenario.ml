open Ocd_prelude
open Ocd_graph

type file = { file_id : int; tokens : int list; receivers : int list }

type t = {
  instance : Instance.t;
  sources : int list;
  files : file list;
}

let choose_source rng graph = function
  | Some s ->
    if s < 0 || s >= Digraph.vertex_count graph then
      invalid_arg "Scenario: source out of range";
    s
  | None -> Prng.int rng (Digraph.vertex_count graph)

let all_tokens tokens = Order.range tokens

let single_file rng ~graph ~tokens ?source () =
  let source = choose_source rng graph source in
  let receivers =
    List.filter (fun v -> v <> source) (Digraph.vertices graph)
  in
  let instance =
    Instance.make ~graph ~token_count:tokens
      ~have:[ (source, all_tokens tokens) ]
      ~want:(List.map (fun v -> (v, all_tokens tokens)) receivers)
  in
  {
    instance;
    sources = [ source ];
    files = [ { file_id = 0; tokens = all_tokens tokens; receivers } ];
  }

let receiver_density rng ~graph ~tokens ~threshold ?source () =
  if threshold < 0.0 || threshold > 1.0 then
    invalid_arg "Scenario.receiver_density: threshold out of [0,1]";
  let source = choose_source rng graph source in
  let receivers =
    List.filter
      (fun v -> v <> source && Prng.float rng 1.0 < threshold)
      (Digraph.vertices graph)
  in
  let instance =
    Instance.make ~graph ~token_count:tokens
      ~have:[ (source, all_tokens tokens) ]
      ~want:(List.map (fun v -> (v, all_tokens tokens)) receivers)
  in
  {
    instance;
    sources = [ source ];
    files = [ { file_id = 0; tokens = all_tokens tokens; receivers } ];
  }

let subdivide_files rng ~graph ~total_tokens ~files ?(multi_sender = false)
    ?source () =
  if files <= 0 || total_tokens mod files <> 0 then
    invalid_arg "Scenario.subdivide_files: files must divide total_tokens";
  let n = Digraph.vertex_count graph in
  if files > n - 1 then
    invalid_arg "Scenario.subdivide_files: more files than receivers";
  let per_file = total_tokens / files in
  let file_tokens i = List.init per_file (fun k -> (i * per_file) + k) in
  let source = choose_source rng graph source in
  (* Random balanced partition of the non-source vertices into one
     receiver group per file (sizes differ by at most one). *)
  let others =
    Array.of_list (List.filter (fun v -> v <> source) (Digraph.vertices graph))
  in
  Prng.shuffle rng others;
  let groups = Array.make files [] in
  Array.iteri (fun i v -> groups.(i mod files) <- v :: groups.(i mod files)) others;
  let file_records =
    List.map
      (fun i ->
        { file_id = i; tokens = file_tokens i; receivers = List.rev groups.(i) })
      (Order.range files)
  in
  let want =
    List.concat_map
      (fun f -> List.map (fun v -> (v, f.tokens)) f.receivers)
      file_records
  in
  if not multi_sender then begin
    let instance =
      Instance.make ~graph ~token_count:total_tokens
        ~have:[ (source, all_tokens total_tokens) ]
        ~want
    in
    { instance; sources = [ source ]; files = file_records }
  end
  else begin
    (* §5.3 multiple senders: "the source of each file was randomly
       chosen from the set of vertices which did not want it". *)
    let pick_sender f =
      let non_wanters =
        List.filter
          (fun v -> not (Order.mem_int v f.receivers))
          (Digraph.vertices graph)
      in
      Prng.pick_list rng non_wanters
    in
    let have =
      List.map (fun f -> (pick_sender f, f.tokens)) file_records
    in
    let instance =
      Instance.make ~graph ~token_count:total_tokens ~have ~want
    in
    {
      instance;
      sources = List.sort_uniq compare (List.map fst have);
      files = file_records;
    }
  end
