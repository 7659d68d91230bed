type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  edges : float array;  (* strictly increasing upper edges, +inf excluded *)
  counts : int array;  (* length = Array.length edges + 1; last = +inf bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { live : bool; tbl : (string, instrument) Hashtbl.t }

let create () = { live = true; tbl = Hashtbl.create 32 }
let disabled = { live = false; tbl = Hashtbl.create 0 }

let dummy_counter = { c = 0 }
let dummy_gauge = { g = 0.0 }

let dummy_histogram =
  {
    edges = [||];
    counts = [| 0 |];
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let kind_error name =
  invalid_arg
    (Printf.sprintf "Ocd_obs.Metrics: %S already registered as another kind"
       name)

let counter t name =
  if not t.live then dummy_counter
  else
    match Hashtbl.find_opt t.tbl name with
    | Some (C c) -> c
    | Some _ -> kind_error name
    | None ->
      let c = { c = 0 } in
      Hashtbl.add t.tbl name (C c);
      c

let incr ?(by = 1) c = c.c <- c.c + by
let add t name n = if t.live then incr ~by:n (counter t name)

let gauge t name =
  if not t.live then dummy_gauge
  else
    match Hashtbl.find_opt t.tbl name with
    | Some (G g) -> g
    | Some _ -> kind_error name
    | None ->
      let g = { g = 0.0 } in
      Hashtbl.add t.tbl name (G g);
      g

let set g v = g.g <- v
let set_int g v = g.g <- float_of_int v

let check_edges name (edges : float array) =
  let n = Array.length edges in
  for i = 0 to n - 2 do
    if not (edges.(i) < edges.(i + 1)) then
      invalid_arg
        (Printf.sprintf
           "Ocd_obs.Metrics.histogram %S: bucket edges must be strictly \
            increasing"
           name)
  done

let histogram t name ~buckets =
  if not t.live then dummy_histogram
  else begin
    check_edges name buckets;
    match Hashtbl.find_opt t.tbl name with
    | Some (H h) ->
      if h.edges <> buckets then
        invalid_arg
          (Printf.sprintf
             "Ocd_obs.Metrics.histogram %S: re-registered with different edges"
             name);
      h
    | Some _ -> kind_error name
    | None ->
      let h =
        {
          edges = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add t.tbl name (H h);
      h
  end

(* First bucket whose upper edge admits [v]; the trailing +inf bucket
   catches everything else.  Linear scan: histograms here have a
   handful of edges and live on instrumented (not disabled) paths. *)
let bucket_index h v =
  let n = Array.length h.edges in
  let i = ref 0 in
  while !i < n && v > h.edges.(!i) do
    Stdlib.incr i
  done;
  !i

let observe h v =
  if h != dummy_histogram then begin
    let i = bucket_index h v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let observe_int h v = observe h (float_of_int v)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) array;
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

let snapshot_hist h =
  let n = Array.length h.counts in
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    buckets =
      Array.init n (fun i ->
          ((if i < n - 1 then h.edges.(i) else infinity), h.counts.(i)));
  }

let snapshot t =
  Hashtbl.fold
    (fun name inst acc ->
      let v =
        match inst with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h -> Histogram (snapshot_hist h)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let float_cell f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      (match v with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s %d" name c)
      | Gauge g ->
        Buffer.add_string buf (Printf.sprintf "%s %s" name (float_cell g))
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "%s count:%d sum:%s" name h.count (float_cell h.sum));
        if h.count > 0 then
          Buffer.add_string buf
            (Printf.sprintf " min:%s max:%s" (float_cell h.min)
               (float_cell h.max));
        Array.iter
          (fun (edge, c) ->
            let e =
              if Float.is_integer edge && Float.abs edge < 1e15 then
                Printf.sprintf "%.0f" edge
              else if edge = infinity then "inf"
              else Printf.sprintf "%.6g" edge
            in
            Buffer.add_string buf (Printf.sprintf " le%s:%d" e c))
          h.buckets);
      Buffer.add_char buf '\n')
    (snapshot t);
  Buffer.contents buf

let merge ~into ?(prefix = "") src =
  if into.live then
    List.iter
      (fun (name, v) ->
        let name = prefix ^ name in
        match v with
        | Counter c -> incr ~by:c (counter into name)
        | Gauge g -> set (gauge into name) g
        | Histogram hs ->
          let edges =
            Array.of_list
              (List.filter_map
                 (fun (e, _) -> if e = infinity then None else Some e)
                 (Array.to_list hs.buckets))
          in
          let h = histogram into name ~buckets:edges in
          Array.iteri (fun i (_, c) -> h.counts.(i) <- h.counts.(i) + c)
            hs.buckets;
          h.h_count <- h.h_count + hs.count;
          h.h_sum <- h.h_sum +. hs.sum;
          if hs.min < h.h_min then h.h_min <- hs.min;
          if hs.max > h.h_max then h.h_max <- hs.max)
      (snapshot src)
