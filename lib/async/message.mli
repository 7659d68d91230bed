(** Protocol messages of the asynchronous runtime.

    Four application messages (the classic swarm vocabulary), the
    knowledge-flood payload used by the flood-then-plan protocol, and
    the DHT control vocabulary used by [Ocd_dht]:

    - [Announce s]: "my possession set is [s]" — periodic gossip that
      lets neighbours target requests and pushes;
    - [Request t]: "send me token [t]";
    - [Data t]: one token in flight (the only capacity-paced message);
    - [Ack t]: "I received token [t]" — stops retransmission and
      updates the sender's belief about the receiver;
    - [State vs]: "I know the initial states of vertices [vs]" — the
      provenance flood of {!Flood_plan}, mirroring
      {!Ocd_engine.Knowledge};
    - [Dht m]: a Chord maintenance / lookup / provider-record message
      (see {!dht}).  The wire format lives here, next to the other
      message kinds, so {!Net} can classify it; the node state machine
      that speaks it lives a layer up, in [Ocd_dht.Node].

    Bitset payloads are defensive copies made at send time: messages in
    flight never alias a node's live mutable state. *)

open Ocd_prelude

(** Chord vocabulary.  Vertices are graph ids; identifier-space points
    ([target]) are 62-bit hashes ({i not} vertex ids).  [ticket] is an
    opaque correlation id chosen by the querier so replies can be
    matched to the pending lookup that asked. *)
type dht =
  | Find_succ of { target : int; ticket : int }
      (** "who owns identifier [target]?" — one hop of an iterative
          lookup *)
  | Succ_info of { ticket : int; node : int; final : bool }
      (** reply: [node] is the owner ([final]) or the next node to ask *)
  | Get_neighbors of { ticket : int }
      (** stabilise probe to the current successor *)
  | Neighbors of { ticket : int; pred : int; succs : int list }
      (** reply: the probed node's predecessor ([-1] for none) and
          successor list *)
  | Notify  (** "I believe I am your predecessor" *)
  | Store of { token : int; holder : int; replica : bool }
      (** provider record advertised to the key's successor; [replica]
          marks the owner's fan-out copy to its own successors *)
  | Get_providers of { token : int; ticket : int }
      (** "who advertised holding [token]?" — sent to the key's owner *)
  | Providers of { token : int; ticket : int; holders : int list }
      (** reply: known holders, ascending, truncated to the node's cap *)

type t =
  | Announce of Bitset.t  (** sender's possession at send time *)
  | Request of int        (** token id *)
  | Data of int           (** token id *)
  | Ack of int            (** token id *)
  | State of Bitset.t     (** vertex ids whose initial state the sender knows *)
  | Dht of dht            (** Chord control traffic (never carries data) *)

val is_data : t -> bool
(** Only [Data] consumes arc capacity; everything else is control
    traffic. *)
