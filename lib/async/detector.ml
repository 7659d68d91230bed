(* Sparse representation: a node only ever hears from the handful of
   peers it actually exchanges messages with (graph neighbours, DHT
   fingers/successors), so the contact table is a Hashtbl keyed by
   peer rather than an n-sized array.  A peer with no entry has been
   silent since the detector's birth — [birth] stands in for its last
   contact.  At n = 10^4 DHT nodes the per-node O(n) arrays of the old
   representation would cost gigabytes across the ring; the sparse
   table costs O(contacted peers).  Semantics are identical. *)

type t = {
  now : unit -> int;
  timeout : int;
  birth : int;
  last : (int, int) Hashtbl.t;
  (* members are peers whose current silence has already been observed
     as a suspicion, so [on_suspect] fires once per episode (cleared
     by [heard]).  Pure observability bookkeeping: it never influences
     what [suspected] returns. *)
  in_episode : (int, unit) Hashtbl.t;
  on_suspect : (int -> unit) option;
}

let create ?on_suspect ~now ~timeout () =
  if timeout <= 0 then invalid_arg "Detector.create: timeout must be positive";
  {
    now;
    timeout;
    birth = now ();
    last = Hashtbl.create 16;
    in_episode = Hashtbl.create 8;
    on_suspect;
  }

let heard t peer =
  Hashtbl.replace t.last peer (t.now ());
  Hashtbl.remove t.in_episode peer

(* Same idea as [birth] standing in for never-contacted peers, applied
   per peer: starting to expect contact counts as contact, so the
   timeout measures silence since observation began rather than since
   the detector was created. *)
let watch t peer =
  if not (Hashtbl.mem t.last peer) then Hashtbl.replace t.last peer (t.now ())

let last_heard t peer =
  match Hashtbl.find_opt t.last peer with Some tick -> tick | None -> t.birth

let suspected t peer =
  let s = t.now () - last_heard t peer > t.timeout in
  if s && not (Hashtbl.mem t.in_episode peer) then begin
    Hashtbl.replace t.in_episode peer ();
    match t.on_suspect with Some f -> f peer | None -> ()
  end;
  s
