(** The common interface of the two Almanac execution engines: the
    reference tree-walking interpreter ({!Interp}) and the slot-compiled
    engine ({!Exec}).  Deployed seeds always run on {!Exec}; this module
    lets the differential tests and the benchmark drive either engine
    behind one signature, keeping the interpreter as the executable
    reference semantics (see DESIGN.md, "Almanac execution pipeline"). *)

type engine = [ `Interp | `Compiled ]

module type S = sig
  type t

  val kind : engine

  val create :
    ?externals:(string * Value.t) list ->
    program:Ast.program ->
    machine:string ->
    Host.host ->
    t

  val machine : t -> Ast.machine
  val current_state : t -> string
  val var : t -> string -> Value.t option
  val start : t -> unit
  val fire_trigger : t -> string -> Value.t -> unit

  (** Resolve a trigger name once; the returned closure is the hot-path
      firing entry point. *)
  val prepare_trigger : t -> string -> Value.t -> unit

  val deliver : t -> from:Host.source -> Value.t -> bool
  val realloc : t -> unit
  val snapshot : t -> (string * Value.t) list * string
  val restore : t -> vars:(string * Value.t) list -> state:string -> unit
  val call_function : t -> string -> Value.t list -> Value.t
end

module Interp_engine : S with type t = Interp.t = struct
  include Interp

  let kind = `Interp
end

module Compiled_engine : S with type t = Exec.t = struct
  include Exec

  let kind = `Compiled
end

(** An engine instance packed with its module — what the runtime stores
    per seed. *)
type instance = Inst : (module S with type t = 'a) * 'a -> instance

let create ?(engine = `Compiled) ?externals ~program ~machine host =
  match engine with
  | `Interp ->
      Inst
        ( (module Interp_engine),
          Interp_engine.create ?externals ~program ~machine host )
  | `Compiled ->
      Inst
        ( (module Compiled_engine),
          Compiled_engine.create ?externals ~program ~machine host )

let kind (Inst ((module E), _)) = E.kind
let machine (Inst ((module E), t)) = E.machine t
let current_state (Inst ((module E), t)) = E.current_state t
let var (Inst ((module E), t)) name = E.var t name
let start (Inst ((module E), t)) = E.start t
let fire_trigger (Inst ((module E), t)) name value = E.fire_trigger t name value
let prepare_trigger (Inst ((module E), t)) name = E.prepare_trigger t name
let deliver (Inst ((module E), t)) ~from value = E.deliver t ~from value
let realloc (Inst ((module E), t)) = E.realloc t
let snapshot (Inst ((module E), t)) = E.snapshot t

let restore (Inst ((module E), t)) ~vars ~state = E.restore t ~vars ~state

let call_function (Inst ((module E), t)) name argv = E.call_function t name argv
