module Value = Farm_almanac.Value
module Harvester = Farm_runtime.Harvester
module Seeder = Farm_runtime.Seeder

let stats_helpers =
  {|
list rate_above(stats cur, list prev, float th) {
  list out = [];
  long i = 0;
  while (i < stats_size(cur)) {
    float p = 0;
    if (i < size(prev)) then { p = nth(prev, i); }
    if (stat(cur, i) - p > th) then { out = append(out, i); }
    i = i + 1;
  }
  return out;
}

list stats_list(stats s) {
  list out = [];
  long i = 0;
  while (i < stats_size(s)) {
    out = append(out, stat(s, i));
    i = i + 1;
  }
  return out;
}
|}

type entry = {
  name : string;
  description : string;
  source : string;
  externals : (string * (string * Value.t) list) list;
  builtins : (string * (Value.t list -> Value.t)) list;
  extra_sigs : (string * Farm_almanac.Typecheck.func_sig) list;
  harvester : unit -> Harvester.spec;
      (* a factory, not a spec: stateful harvesters capture refs, and a
         shared closure would leak state between deployments (breaking
         replay determinism within one process) *)
  harvester_loc : int;
  adaptive : string list;
      (* poll variables the seeds may stretch in degraded mode *)
}

let seed_loc entry =
  String.split_on_char '\n' entry.source
  |> List.filter (fun line ->
         let line = String.trim line in
         String.length line > 0
         && not (String.length line >= 2 && String.sub line 0 2 = "//"))
  |> List.length

let override_externals entry overrides =
  (* [base] with each key also in [over] combined by [f]; keys only in
     [over] are appended *)
  let merge f base over =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k over with Some o -> (k, f v o) | None -> (k, v))
      base
    @ List.filter (fun (k, _) -> not (List.mem_assoc k base)) over
  in
  { entry with
    externals = merge (merge (fun _ o -> o)) entry.externals overrides }

let to_task_spec entry =
  { Seeder.ts_name = entry.name;
    ts_source = entry.source;
    ts_externals = entry.externals;
    ts_builtins = entry.builtins;
    ts_extra_sigs = entry.extra_sigs;
    ts_harvester = entry.harvester ();
    ts_adaptive = entry.adaptive }

let collector () = Harvester.collector_spec
