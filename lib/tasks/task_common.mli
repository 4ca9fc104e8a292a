(** Shared pieces for the Table I task catalog: reusable Almanac auxiliary
    functions, harvester helpers, and the catalog entry type. *)

module Value := Farm_almanac.Value

(** Almanac helper functions prepended to task sources that need them:
    [rate_above cur prev th] (indices whose counter delta exceeds [th]) and
    [stats_list] (stats → list). *)
val stats_helpers : string

type entry = {
  name : string;
  description : string;
  source : string;  (** full Almanac source (helpers included) *)
  externals : (string * (string * Value.t) list) list;
  builtins : (string * (Value.t list -> Value.t)) list;
  extra_sigs : (string * Farm_almanac.Typecheck.func_sig) list;
  harvester : unit -> Farm_runtime.Harvester.spec;
      (** a factory, not a spec: stateful harvesters capture refs, and a
          shared closure would leak state between deployments *)
  harvester_loc : int;
      (** lines of harvester logic (the paper's Table I "Harv." column) *)
  adaptive : string list;
      (** poll variables the task's seeds may stretch under soil pressure
          (AIMD degraded mode, active only in overload-protected
          deployments); empty = fixed fidelity *)
}

(** Non-blank, non-comment lines of the entry's Almanac source (the
    "Seed" column of Table I). *)
val seed_loc : entry -> int

(** [override_externals entry [(machine, [(name, v); ...]); ...]]: the
    entry with each named external binding set to [v], added when the
    catalog does not bind it; every other binding is kept, so a copy
    tuned for an experiment cannot drop one the catalog gained later. *)
val override_externals :
  entry -> (string * (string * Value.t) list) list -> entry

val to_task_spec : entry -> Farm_runtime.Seeder.task_spec

(** A harvester that just collects seed reports. *)
val collector : unit -> Farm_runtime.Harvester.spec
