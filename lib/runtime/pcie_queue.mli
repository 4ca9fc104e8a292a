(** The soil's bounded PCIe transfer queue under overload protection, and
    its deterministic shedding policy.

    When the queue is full, the request to shed is chosen among the queued
    ones and the incoming one: lowest priority first; among those, the one
    whose owning seed holds the most queued requests (the most over its
    fair share); ties shed the newest arrival, so the incoming request
    loses to equally guilty older ones.  Every operation but {!request}
    runs without allocating. *)

type 'a req = private {
  seq : int;  (** arrival order (newest = largest) *)
  prio : int;  (** shedding priority (higher survives longer) *)
  cells : int ref array;
      (** queued-count cell of each owning seed, repeats included *)
  payload : 'a;
}

type 'a t

(** An empty queue holding at most [capacity] requests; [dummy] fills
    unused slots. *)
val create : capacity:int -> 'a -> 'a t

val length : 'a t -> int
val is_full : 'a t -> bool

(** A new request, next in arrival order, owned by [seeds] (which may be
    empty or repeat a seed).  Not queued yet. *)
val request : 'a t -> prio:int -> seeds:int list -> 'a -> 'a req

(** Queue a request.  Raises [Invalid_argument] if the queue is full. *)
val push : 'a t -> 'a req -> unit

(** Remove and return the next request to transfer: highest priority
    first, FIFO within a priority.  Raises [Invalid_argument] if empty. *)
val pop : 'a t -> 'a req

(** [shed q r] offers [r] to the full queue [q] and returns the victim of
    the policy above: [r] itself, which then stays out, or a queued
    request, which leaves the queue while [r] joins at the back.  Raises
    [Invalid_argument] if [q] is not full. *)
val shed : 'a t -> 'a req -> 'a req
