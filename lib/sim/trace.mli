(** Deterministic structured tracing.

    Events are stamped with {e simulation time} only — never wall clock —
    so a traced run's event stream is byte-identical across replays and
    across [Sweep] domain counts.  A sink belongs to a single engine
    (there is no global trace state); attach one with
    [Engine.set_tracer].

    Created with [~ring:n > 0] the sink is a bounded flight recorder:
    the most recent [n] events are kept, older ones are overwritten (and
    counted in [dropped]).  The chaos suite dumps such a recorder on
    invariant failure for post-mortem debugging.

    The sink stores events in a compact structure-of-arrays encoding:
    recording through the [intern]-id emitters below allocates nothing,
    and all string formatting (decimal timestamps, JSON escaping) is
    deferred to [to_chrome_json]/[events] flush time. *)

type arg = S of string | I of int | F of float

type phase =
  | Span of float  (** complete span; payload is the duration in seconds *)
  | Instant
  | Counter of float

type event = {
  ts : float;  (** simulation time, seconds *)
  cat : string;  (** dotted category, e.g. ["soil.pcie"] *)
  name : string;
  tid : int;  (** logical track (0 = engine, else a node ordinal) *)
  ph : phase;
  args : (string * arg) list;
}

type t

val create : ?ring:int -> unit -> t
(** [create ()] is an unbounded append sink; [create ~ring:n ()] with
    [n > 0] keeps only the last [n] events (flight recorder). *)

val emit : t -> event -> unit

val span :
  t ->
  ts:float ->
  dur:float ->
  cat:string ->
  name:string ->
  ?tid:int ->
  ?args:(string * arg) list ->
  unit ->
  unit
(** Complete span ("ph":"X"): an operation starting at [ts] lasting
    [dur] seconds. *)

val instant :
  t ->
  ts:float ->
  cat:string ->
  name:string ->
  ?tid:int ->
  ?args:(string * arg) list ->
  unit ->
  unit

val counter : t -> ts:float -> cat:string -> name:string -> value:float -> ?tid:int -> unit -> unit

(** {1 Allocation-free fast path}

    Hot emission sites intern their category / name / argument-key
    strings once (ids are stable for the sink's lifetime, surviving
    [clear]) and then record events without allocating: every field is
    an unboxed float or an immediate int.  Decoding back to [event]
    records — and all JSON formatting — happens at flush time, so the
    emitted Chrome trace is byte-identical to the record-building
    entry points above. *)

val intern : t -> string -> int
(** Intern a string in the sink's table, returning its id.  O(1) after
    the first call; never allocates for a string already interned. *)

val instant0 : t -> ts:float -> cat:int -> name:int -> tid:int -> unit

val instant_i : t -> ts:float -> cat:int -> name:int -> tid:int -> k:int -> int -> unit
(** One [I] argument under key [k]. *)

val instant_is :
  t -> ts:float -> cat:int -> name:int -> tid:int -> k0:int -> int -> k1:int -> int -> unit
(** [I] then [S] argument; the string is passed as an interned id. *)

val instant_si :
  t -> ts:float -> cat:int -> name:int -> tid:int -> k0:int -> int -> k1:int -> int -> unit
(** [S] (interned id) then [I] argument. *)

val span0 : t -> ts:float -> dur:float -> cat:int -> name:int -> tid:int -> unit

val span_f : t -> ts:float -> dur:float -> cat:int -> name:int -> tid:int -> k:int -> float -> unit

val count : t -> int
(** Events currently held (≤ ring size for flight recorders). *)

val dropped : t -> int
(** Events overwritten by a full ring; always 0 for unbounded sinks. *)

val events : t -> event list
(** Oldest first. *)

val iter : (event -> unit) -> t -> unit
val clear : t -> unit

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON ({["{\"traceEvents\":[...]}"]}), loadable
    in Perfetto.  Timestamps are microseconds with fixed 3-decimal
    formatting, so equal event streams render byte-identical JSON. *)
