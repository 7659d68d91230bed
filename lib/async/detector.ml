open Ocd_prelude

(* Sparse representation: a node only ever hears from the handful of
   peers it actually exchanges messages with (graph neighbours, DHT
   fingers/successors), so the contact table is keyed by peer rather
   than an n-sized array.  A peer with no entry has been
   silent since the detector's birth — [birth] stands in for its last
   contact.  At n = 10^4 DHT nodes the per-node O(n) arrays of the old
   representation would cost gigabytes across the ring; the sparse
   table costs O(contacted peers).  Semantics are identical. *)

(* One open-addressed [Int_tab] (int keys, flat arrays, no polymorphic
   hashing) holds both per-peer facts, packed into one value so a probe
   of [suspected] costs one table lookup:
   - bits 1..: the last contact tick plus one, or 0 if the peer has
     never been heard from (or watched);
   - bit 0: the peer's current silence has already been observed as a
     suspicion, so [on_suspect] fires once per episode.  Cleared by
     [heard]; pure observability bookkeeping that never influences
     what [suspected] returns.
   An absent key reads as 0: never heard, no episode open. *)
type t = {
  now : unit -> int;
  timeout : int;
  birth : int;
  peers : Int_tab.t;
  on_suspect : (int -> unit) option;
}

let create ?on_suspect ~now ~timeout () =
  if timeout <= 0 then invalid_arg "Detector.create: timeout must be positive";
  { now; timeout; birth = now (); peers = Int_tab.create (); on_suspect }

let contact tick = (tick + 1) lsl 1
let last_of t packed = if packed lsr 1 = 0 then t.birth else (packed lsr 1) - 1

let heard t peer = Int_tab.set t.peers peer (contact (t.now ()))

(* Same idea as [birth] standing in for never-contacted peers, applied
   per peer: starting to expect contact counts as contact, so the
   timeout measures silence since observation began rather than since
   the detector was created.  An open episode stays open. *)
let watch t peer =
  let packed = Int_tab.find t.peers peer in
  if packed lsr 1 = 0 then
    Int_tab.set t.peers peer (contact (t.now ()) lor (packed land 1))

let suspected t peer =
  let packed = Int_tab.find t.peers peer in
  let s = t.now () - last_of t packed > t.timeout in
  if s && packed land 1 = 0 then begin
    Int_tab.set t.peers peer (packed lor 1);
    match t.on_suspect with Some f -> f peer | None -> ()
  end;
  s
