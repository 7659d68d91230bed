type acc = {
  mutable calls : int;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
}

type t = { mutex : Mutex.t; tbl : (string, acc) Hashtbl.t }

let create () = { mutex = Mutex.create (); tbl = Hashtbl.create 16 }

let acc_for t label =
  match Hashtbl.find_opt t.tbl label with
  | Some a -> a
  | None ->
    let a =
      {
        calls = 0;
        wall_s = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
        minor_collections = 0;
        major_collections = 0;
      }
    in
    Hashtbl.add t.tbl label a;
    a

let fold t label ~calls ~wall ~minor ~major ~minor_c ~major_c =
  Mutex.lock t.mutex;
  let a = acc_for t label in
  a.calls <- a.calls + calls;
  a.wall_s <- a.wall_s +. wall;
  a.minor_words <- a.minor_words +. minor;
  a.major_words <- a.major_words +. major;
  a.minor_collections <- a.minor_collections + minor_c;
  a.major_collections <- a.major_collections + major_c;
  Mutex.unlock t.mutex

type section = {
  probe : t;
  label : string;
  t0 : float;
  gc0 : Gc.stat;
}

let start probe label =
  { probe; label; t0 = Unix.gettimeofday (); gc0 = Gc.quick_stat () }

let stop s =
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  fold s.probe s.label ~calls:1 ~wall:(t1 -. s.t0)
    ~minor:(gc1.Gc.minor_words -. s.gc0.Gc.minor_words)
    ~major:(gc1.Gc.major_words -. s.gc0.Gc.major_words)
    ~minor_c:(gc1.Gc.minor_collections - s.gc0.Gc.minor_collections)
    ~major_c:(gc1.Gc.major_collections - s.gc0.Gc.major_collections)

let time t label f =
  let s = start t label in
  Fun.protect ~finally:(fun () -> stop s) f

type row = {
  label : string;
  calls : int;
  wall_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let rows t =
  Mutex.lock t.mutex;
  let rs =
    Hashtbl.fold
      (fun label (a : acc) acc_rows ->
        {
          label;
          calls = a.calls;
          wall_s = a.wall_s;
          minor_words = a.minor_words;
          major_words = a.major_words;
          minor_collections = a.minor_collections;
          major_collections = a.major_collections;
        }
        :: acc_rows)
      t.tbl []
  in
  Mutex.unlock t.mutex;
  List.sort (fun a b -> String.compare a.label b.label) rs

let human_words w =
  if w >= 1e9 then Printf.sprintf "%.2fG" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2fM" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
  else Printf.sprintf "%.0f" w

let render ?(title = "profile") t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "-- %s (wall-clock and GC; non-deterministic)\n" title);
  Buffer.add_string buf
    (Printf.sprintf "  %-36s %9s %12s %12s %10s %10s %8s %8s\n" "phase" "calls"
       "wall_ms" "ms/call" "minor_w" "major_w" "minor_gc" "major_gc");
  List.iter
    (fun r ->
      let per_call = if r.calls = 0 then 0.0 else r.wall_s /. float_of_int r.calls in
      Buffer.add_string buf
        (Printf.sprintf "  %-36s %9d %12.3f %12.5f %10s %10s %8d %8d\n" r.label
           r.calls (1000.0 *. r.wall_s) (1000.0 *. per_call)
           (human_words r.minor_words) (human_words r.major_words)
           r.minor_collections r.major_collections))
    (rows t);
  Buffer.contents buf
