type action =
  | Forward of int
  | Drop
  | Rate_limit of float
  | Set_qos of int
  | Mirror
  | Count

type region = Forwarding | Monitoring

type rule = { pattern : Filter.t; action : action; priority : int }

(* All-float, so OCaml stores the fields flat: updating a counter writes
   the double in place instead of boxing a fresh one. *)
type counters = { mutable bytes : float; mutable packets : float }

type installed = {
  id : int;
  region : region;
  rule : rule;
  counters : counters;
}

type t = {
  capacity : int;
  mon_capacity : int;
  mutable next_id : int;
  mutable forwarding : installed list;  (* sorted by decreasing priority *)
  mutable monitoring : installed list;
}

let create ?(monitoring_share = 0.25) ~capacity () =
  if capacity <= 0 then invalid_arg "Tcam.create: capacity must be positive";
  if monitoring_share < 0. || monitoring_share > 1. then
    invalid_arg "Tcam.create: monitoring_share must be in [0, 1]";
  let mon_capacity = int_of_float (float_of_int capacity *. monitoring_share) in
  { capacity; mon_capacity; next_id = 0; forwarding = []; monitoring = [] }

let capacity t = t.capacity

let region_capacity t = function
  | Forwarding -> t.capacity - t.mon_capacity
  | Monitoring -> t.mon_capacity

let region_rules t = function
  | Forwarding -> t.forwarding
  | Monitoring -> t.monitoring

let region_used t r = List.length (region_rules t r)
let free t r = region_capacity t r - region_used t r

let insert_sorted entry rules =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest when e.rule.priority >= entry.rule.priority -> e :: go rest
    | rest -> entry :: rest
  in
  go rules

let add t region rule =
  if free t region <= 0 then Error `Full
  else begin
    let entry =
      { id = t.next_id; region; rule; counters = { bytes = 0.; packets = 0. } }
    in
    t.next_id <- t.next_id + 1;
    (match region with
    | Forwarding -> t.forwarding <- insert_sorted entry t.forwarding
    | Monitoring -> t.monitoring <- insert_sorted entry t.monitoring);
    Ok entry
  end

let remove t region ~pattern =
  let keep, gone =
    List.partition
      (fun e -> not (Filter.equal e.rule.pattern pattern))
      (region_rules t region)
  in
  (match region with
  | Forwarding -> t.forwarding <- keep
  | Monitoring -> t.monitoring <- keep);
  List.length gone

let find t region ~pattern =
  List.find_opt
    (fun e -> Filter.equal e.rule.pattern pattern)
    (region_rules t region)

let lookup t tuple =
  let best rules =
    List.find_opt (fun e -> Filter.matches e.rule.pattern tuple) rules
  in
  match best t.forwarding with
  | Some e -> (
      (* a higher-priority monitoring rule can still win *)
      match best t.monitoring with
      | Some m when m.rule.priority > e.rule.priority -> Some m
      | Some _ | None -> Some e)
  | None -> best t.monitoring

(* A top-level loop rather than a closure over [tuple] and [bytes], so a
   call allocates nothing. *)
let rec touch tuple bytes = function
  | [] -> ()
  | e :: rest ->
      if Filter.matches e.rule.pattern tuple then begin
        let c = e.counters in
        c.bytes <- c.bytes +. bytes;
        (* packet counter estimated at ~1000 B/packet; at least one packet
           per recorded burst *)
        c.packets <- c.packets +. Float.max 1. (bytes /. 1000.)
      end;
      touch tuple bytes rest

let record t tuple ~bytes =
  touch tuple bytes t.forwarding;
  touch tuple bytes t.monitoring

let rules t region = region_rules t region
