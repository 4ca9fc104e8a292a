(* Pure helpers of the benchmark: order statistics with the
   "ten samples beyond" rule, self time of nested spans, and the
   failed-operation accounting behind [failed_share]. *)

(* Linear interpolation between closest ranks, rank = p/100 * (n-1): the
   same definition as [Metrics.Histogram.percentile], so figures read
   off a simulator histogram and figures computed here agree. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
      let frac = rank -. float_of_int lo in
      (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)

let median xs = percentile xs 50.

(* Percentiles a timing may be reported at, lowest first. *)
let ladder = [ 50.; 90.; 99.; 99.9 ]

(* The highest percentile of [ladder] with at least ten of the [n]
   samples above it; [None] when not even the median qualifies. *)
let tail_percentile n =
  List.fold_left
    (fun best p ->
      if float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9 then Some p
      else best)
    None ladder

type summary = {
  n : int;
  p50 : float;
  p90 : float;
  tail : (float * float) option;  (** (percentile, value) by the rule *)
}

let summarize xs =
  let n = List.length xs in
  { n; p50 = median xs; p90 = percentile xs 90.;
    tail =
      Option.map (fun p -> (p, percentile xs p)) (tail_percentile n) }

(* A closed interval of wall-clock time attributed to one layer.
   [parent] is the id of the enclosing span, or -1. *)
type span = {
  id : int;
  layer : string;
  parent : int;
  start : float;
  stop : float;
}

(* Total length of the union of intervals. *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it covered
   by its children (clipped to the span). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids =
        Option.value (Hashtbl.find_opt children s.id) ~default:[]
        |> List.filter_map (fun (a, b) ->
               let a = Float.max a s.start and b = Float.min b s.stop in
               if b > a then Some (a, b) else None)
      in
      (s, s.stop -. s.start -. union_length kids))
    spans

(* Self time summed per layer, sorted by layer name. *)
let layer_self_times spans =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.layer
        (self +. Option.value (Hashtbl.find_opt acc s.layer) ~default:0.))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

(* Failed-operation accounting.  For the simulated workloads an
   operation is an attack episode or a report sent towards a harvester;
   an episode fails when no matching report arrives within its lifetime,
   a report fails when it is lost on the control channel, shed by a
   bounded inbox, or dropped as a duplicate or a stale epoch.  Lost
   reports never reach the harvester, so they are added to its offered
   count to form the denominator. *)
type tally = {
  episodes : int;
  missed : int;
  offered : int;  (** reports offered to harvesters *)
  lost : int;
  shed : int;
  dup : int;
  stale : int;
}

let tally_failed t = t.missed + t.lost + t.shed + t.dup + t.stale
let tally_attempted t = t.episodes + t.offered + t.lost

let share ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Util.share: nothing attempted"
  else float_of_int failed /. float_of_int attempted
