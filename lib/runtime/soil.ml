module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Trace = Farm_sim.Trace
module Filter = Farm_net.Filter
module Switch_model = Farm_net.Switch_model
module Tcam = Farm_net.Tcam

(* Overload protection (off by default).  When enabled, the implicit
   PCIe waiting line becomes an explicit bounded priority queue with
   deterministic shedding, and a periodic monitor publishes CPU/PCIe
   pressure to the co-located seeds and the seeder. *)
type overload_config = {
  max_pcie_queue : int;  (* outstanding transfers before shedding *)
}

let default_overload = { max_pcie_queue = 16 }

(* Pressure monitor: utilization watermarks (fraction of capacity, with
   hysteresis) and its period in seconds. *)
let cpu_high = 0.8
let cpu_low = 0.5
let pcie_high = 0.8
let pcie_low = 0.5
let pressure_interval = 0.05

(* Default path: polls that would wait longer than this on the bus are
   dropped. *)
let max_poll_queue_delay = 1.

type config = {
  cpu : Cpu_model.t;
  scheme : Ipc.scheme;
  exec_model : Ipc.exec_model;
  aggregate_polls : bool;
  overload : overload_config option;
}

let default_config =
  { cpu = Cpu_model.default; scheme = Ipc.Shared_buffer;
    exec_model = Ipc.Threads; aggregate_polls = true; overload = None }

type sub_kind =
  | Poll of { subject : Filter.subject; deliver : float array -> unit }
  | Probe of { filter : Filter.t; deliver : Farm_net.Flow.packet -> unit }
  | Time of (float -> unit)

type subscription = {
  sub_id : int;
  sub_seed : int;  (* owning seed, for drop attribution and fair share *)
  mutable kind : sub_kind;  (* handlers are read from here when they run *)
  mutable period : float;
  mutable timer : Engine.timer option;
  mutable active : bool;
}

(* Aggregation group: one ASIC poll timer shared by all subscribers of a
   subject. *)
type group = {
  g_subject : Filter.subject;
  mutable g_subs : subscription list;
  mutable g_timer : Engine.timer option;
}

type poll_stats = {
  requested : int;
  completed : int;
  dropped : int;
  pcie_bytes : float;
  asic_polls : int;
}

type overload_stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;
  o_queue_peak : int;
}

(* How a poll (or probe sample) was lost: shed by the overload policy, or
   dropped on the default path because the PCIe queue is too long. *)
type loss = Shed | Dropped

(* One PCIe transfer queued under overload protection. *)
type xfer = {
  x_bytes : float;
  x_issued : float;
  x_deliver : Engine.t -> unit;
  x_lost : loss -> unit;  (* drop accounting when this transfer is shed *)
}

let no_xfer =
  { x_bytes = 0.; x_issued = 0.; x_deliver = ignore; x_lost = ignore }

type ov = {
  ov_queue : xfer Pcie_queue.t;
  mutable ov_busy : bool;  (* a transfer is on the bus *)
  mutable ov_offered : int;
  mutable ov_completed : int;
  mutable ov_qpeak : int;
  mutable ov_pcie_busy : float;  (* accumulated bus-busy seconds *)
  mutable ov_last_cpu : float;  (* monitor window baselines *)
  mutable ov_last_pcie : float;
  mutable ov_pressured : bool;
  ov_pressure_hooks : (int, bool -> unit) Hashtbl.t;  (* seed hooks *)
  mutable ov_listener : (node:int -> high:bool -> unit) option;  (* seeder *)
  ov_shed : Metrics.Counter.t;
  ov_pressure : Metrics.Gauge.t;
}

(* Interned trace ids for the hot emission sites, memoized per sink so
   steady-state tracing allocates nothing (subjects are formatted with
   [Filter.pp_subject] once, on first use, never per poll). *)
type tids = {
  tm_sink : Trace.t;
  tm_soil : int;  (* cat "soil" *)
  tm_pcie : int;  (* cat "soil.pcie" *)
  tm_ipc : int;  (* cat "soil.ipc" *)
  tm_asic_poll : int;
  tm_transfer : int;
  tm_deliver : int;
  tm_k_subject : int;
  tm_k_subs : int;
  tm_k_bytes : int;
  tm_k_polls : int;
  tm_poll_shed : int;
  tm_poll_dropped : int;
  tm_subjects : (Filter.subject, int) Hashtbl.t;
}

type t = {
  engine : Engine.t;
  sw : Switch_model.t;
  cfg : config;
  usage : Cpu_model.usage;
  rng : Farm_sim.Rng.t;
  mutable seeds : int list;
  mutable next_sub : int;
  mutable groups : group list;
  (* PCIe bus scheduling *)
  mutable pcie_free_at : float;
  (* PCIe slowdown fault (Fault.Pcie_degrade): effective bandwidth is
     [caps.pcie_bps / pcie_factor] *)
  mutable pcie_factor : float;
  (* poll accounting, published in the engine registry under
     [soil.<node>.*] *)
  requested : Metrics.Counter.t;
  completed : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  pcie_bytes : Metrics.Counter.t;
  asic_polls : Metrics.Counter.t;
  latency : Metrics.Histogram.t;
      (* seed-observed delivery latency: ASIC read issue -> handler *)
  (* per-seed drop notification hooks (always available; the reaction is
     up to the seed — counting only, unless overload protection is on) *)
  drop_hooks : (int, int -> unit) Hashtbl.t;
  seed_drops : (int, Metrics.Counter.t) Hashtbl.t;
      (* [soil.<node>.polls.dropped.seed<id>], registered on first drop *)
  (* counter fault injection (Fault.Counter_freeze / Counter_glitch) *)
  mutable frozen : bool;
  mutable frozen_cache : (Filter.subject * float array) list;
  mutable glitch_budget : int;
  ov : ov option;
  mutable tmemo : tids option;
}

(* --- pressure monitor (overload mode only) --- *)

let ov_pressure_tick t ov =
  let cores = t.cfg.cpu.cores in
  let busy = Cpu_model.busy_seconds t.usage in
  (* a [reset_stats] between ticks rewinds the busy clock; fall back to
     the absolute value so the delta never goes negative *)
  let cpu_delta =
    if busy >= ov.ov_last_cpu then busy -. ov.ov_last_cpu else busy
  in
  ov.ov_last_cpu <- busy;
  let cpu_util = cpu_delta /. (pressure_interval *. cores) in
  let pcie_delta = ov.ov_pcie_busy -. ov.ov_last_pcie in
  ov.ov_last_pcie <- ov.ov_pcie_busy;
  let pcie_util = pcie_delta /. pressure_interval in
  let high = cpu_util > cpu_high || pcie_util > pcie_high in
  let low = cpu_util < cpu_low && pcie_util < pcie_low in
  let flip name =
    match Engine.tracer t.engine with
    | None -> ()
    | Some tr ->
        Trace.instant tr ~ts:(Engine.now t.engine) ~cat:"soil" ~name
          ~tid:(Switch_model.id t.sw)
          ~args:
            [ ("cpu", Trace.F cpu_util); ("pcie", Trace.F pcie_util) ]
          ()
  in
  if high && not ov.ov_pressured then begin
    ov.ov_pressured <- true;
    Metrics.Gauge.set ov.ov_pressure 1.;
    flip "pressure_on"
  end
  else if low && ov.ov_pressured then begin
    ov.ov_pressured <- false;
    Metrics.Gauge.set ov.ov_pressure 0.;
    flip "pressure_off"
  end;
  (* every high tick backs degraded-capable seeds off multiplicatively;
     every low tick recovers them additively (no-op at full fidelity) *)
  if high || low then begin
    let notify sid =
      match Hashtbl.find_opt ov.ov_pressure_hooks sid with
      | Some f -> f high
      | None -> ()
    in
    List.iter notify (List.sort_uniq Int.compare t.seeds);
    match ov.ov_listener with
    | Some f -> f ~node:(Switch_model.id t.sw) ~high
    | None -> ()
  end

let install_pressure_monitor t =
  match t.ov with
  | None -> ()
  | Some ov ->
      ignore
        (Engine.every t.engine ~period:pressure_interval (fun _ ->
             ov_pressure_tick t ov)
          : Engine.timer)

let create ?(config = default_config) engine sw =
  let reg = Engine.metrics engine in
  let pre = Printf.sprintf "soil.%d." (Switch_model.id sw) in
  let c name = Metrics.Registry.counter reg (pre ^ name) in
  let ov =
    (* overload state (and its registry entries) exists only when the
       protection is configured on, so default runs register exactly the
       same metrics as before *)
    match config.overload with
    | None -> None
    | Some ovc ->
        Some
          { ov_queue =
              Pcie_queue.create ~capacity:ovc.max_pcie_queue no_xfer;
            ov_busy = false; ov_offered = 0; ov_completed = 0;
            ov_qpeak = 0; ov_pcie_busy = 0.; ov_last_cpu = 0.;
            ov_last_pcie = 0.; ov_pressured = false;
            ov_pressure_hooks = Hashtbl.create 8; ov_listener = None;
            ov_shed = c "polls.shed";
            ov_pressure = Metrics.Registry.gauge reg (pre ^ "pressure") }
  in
  let t =
    { engine; sw; cfg = config; usage = Cpu_model.usage ();
      rng = Farm_sim.Rng.split (Engine.rng engine); seeds = [];
      next_sub = 0; groups = []; pcie_free_at = 0.; pcie_factor = 1.;
      requested = c "polls.requested"; completed = c "polls.completed";
      dropped = c "polls.dropped"; pcie_bytes = c "pcie.bytes";
      asic_polls = c "asic.polls";
      latency = Metrics.Registry.histogram reg (pre ^ "delivery_latency");
      drop_hooks = Hashtbl.create 8; seed_drops = Hashtbl.create 8;
      frozen = false; frozen_cache = []; glitch_budget = 0; ov;
      tmemo = None }
  in
  install_pressure_monitor t;
  t

(* Memoized interned ids for [tr]; rebuilt only if the sink changes. *)
let tids t tr =
  match t.tmemo with
  | Some m when m.tm_sink == tr -> m
  | _ ->
      let m =
        { tm_sink = tr;
          tm_soil = Trace.intern tr "soil";
          tm_pcie = Trace.intern tr "soil.pcie";
          tm_ipc = Trace.intern tr "soil.ipc";
          tm_asic_poll = Trace.intern tr "asic_poll";
          tm_transfer = Trace.intern tr "transfer";
          tm_deliver = Trace.intern tr "deliver";
          tm_k_subject = Trace.intern tr "subject";
          tm_k_subs = Trace.intern tr "subs";
          tm_k_bytes = Trace.intern tr "bytes";
          tm_k_polls = Trace.intern tr "polls";
          tm_poll_shed = Trace.intern tr "poll_shed";
          tm_poll_dropped = Trace.intern tr "poll_dropped";
          tm_subjects = Hashtbl.create 8 }
      in
      t.tmemo <- Some m;
      m

let subject_sid m subject =
  match Hashtbl.find_opt m.tm_subjects subject with
  | Some id -> id
  | None ->
      let id =
        Trace.intern m.tm_sink (Format.asprintf "%a" Filter.pp_subject subject)
      in
      Hashtbl.add m.tm_subjects subject id;
      id

let node_id t = Switch_model.id t.sw
let switch t = t.sw
let config t = t.cfg
let now t = Engine.now t.engine
let engine t = t.engine

let attach_seed t id = t.seeds <- id :: t.seeds

let detach_seed t id =
  (* remove one registration *)
  let rec go = function
    | [] -> []
    | x :: rest -> if x = id then rest else x :: go rest
  in
  t.seeds <- go t.seeds;
  Hashtbl.remove t.drop_hooks id;
  match t.ov with
  | Some ov -> Hashtbl.remove ov.ov_pressure_hooks id
  | None -> ()

let seed_count t = List.length t.seeds

let charge_cpu t s = Cpu_model.charge t.usage s
let cpu t = t.usage

let cpu_load t ~window = Cpu_model.offered_load t.usage ~window
let cpu_accuracy t ~window = Cpu_model.accuracy t.cfg.cpu t.usage ~window

(* Bytes a poll of [subject] moves over the PCIe bus: 16 B per hardware
   counter read (id + 64-bit value + framing). *)
let counter_record_bytes = 16.

let poll_payload t = function
  | Filter.All_ports ->
      float_of_int (Switch_model.port_count t.sw) *. counter_record_bytes
  | Filter.Port_counter _ | Filter.Prefix_counter _ | Filter.Proto_counter _
    ->
      counter_record_bytes

(* ------------------------------------------------------------------ *)
(* Overload protection: hooks, drop attribution, bounded PCIe queue    *)
(* ------------------------------------------------------------------ *)

let overload_enabled t = t.ov <> None

let overload_stats t =
  match t.ov with
  | None -> None
  | Some ov ->
      Some
        { o_offered = ov.ov_offered; o_completed = ov.ov_completed;
          o_shed = Metrics.Counter.count ov.ov_shed;
          o_pending =
            Pcie_queue.length ov.ov_queue + (if ov.ov_busy then 1 else 0);
          o_queue_peak = ov.ov_qpeak }

let set_pcie_factor t f =
  if f <= 0. then invalid_arg "Soil.set_pcie_factor: factor must be > 0";
  t.pcie_factor <- f

let pcie_factor t = t.pcie_factor

(* Effective PCIe bandwidth; the [= 1.] fast path keeps default runs on
   the exact original float value. *)
let effective_pcie_bps t =
  let caps = Switch_model.caps t.sw in
  if t.pcie_factor = 1. then caps.pcie_bps else caps.pcie_bps /. t.pcie_factor

let on_poll_drop t ~seed_id f = Hashtbl.replace t.drop_hooks seed_id f

let on_pressure t ~seed_id f =
  match t.ov with
  | Some ov -> Hashtbl.replace ov.ov_pressure_hooks seed_id (fun high -> f ~high)
  | None -> ()

let set_pressure_listener t f =
  match t.ov with Some ov -> ov.ov_listener <- Some f | None -> ()

let seed_drop_counter t sid =
  match Hashtbl.find t.seed_drops sid with
  | c -> c
  | exception Not_found ->
      let c =
        Metrics.Registry.counter (Engine.metrics t.engine)
          (Printf.sprintf "soil.%d.polls.dropped.seed%d" (node_id t) sid)
      in
      Hashtbl.add t.seed_drops sid c;
      c

(* Per-seed drop attribution + synchronous drop notifications.  [drops] is
   a sorted (seed_id, count) list; notification runs inline (no engine
   events), so runs without drops — and default runs, whose drop behavior
   is unchanged — stay byte-identical. *)
let record_seed_drops t drops =
  List.iter
    (fun (sid, n) ->
      Metrics.Counter.add (seed_drop_counter t sid) (float_of_int n);
      match Hashtbl.find_opt t.drop_hooks sid with
      | Some f -> f n
      | None -> ())
    drops

(* Group [seeds] into a sorted (seed_id, count) list. *)
let drops_by_seed seeds =
  List.fold_left
    (fun acc sid ->
      match acc with
      | (s, n) :: rest when s = sid -> (s, n + 1) :: rest
      | _ -> (sid, 1) :: acc)
    [] (List.sort Int.compare seeds)
  |> List.rev

let trace_drop t loss ~n =
  match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      let name =
        match loss with Shed -> m.tm_poll_shed | Dropped -> m.tm_poll_dropped
      in
      Trace.instant_i tr ~ts:(Engine.now t.engine) ~cat:m.tm_soil ~name
        ~tid:(node_id t) ~k:m.tm_k_polls n

(* A poll (or probe sample) owned by [seeds] was lost: count globally,
   attribute per seed, notify the owners. *)
let drop_polls t loss seeds =
  let n = List.length seeds in
  Metrics.Counter.add t.dropped (float_of_int n);
  trace_drop t loss ~n;
  record_seed_drops t (drops_by_seed seeds)

(* --- bounded priority queue over the PCIe bus (overload mode only) --- *)

let rec ov_pump t ov =
  if (not ov.ov_busy) && Pcie_queue.length ov.ov_queue > 0 then begin
    let next = (Pcie_queue.pop ov.ov_queue).payload in
    ov.ov_busy <- true;
    let now = Engine.now t.engine in
    let dur = next.x_bytes *. 8. /. effective_pcie_bps t in
    ov.ov_pcie_busy <- ov.ov_pcie_busy +. dur;
    (match Engine.tracer t.engine with
    | None -> ()
    | Some tr ->
        (* span covers queueing + transfer, as in the default path *)
        let m = tids t tr in
        Trace.span_f tr ~ts:next.x_issued
          ~dur:(now +. dur -. next.x_issued)
          ~cat:m.tm_pcie ~name:m.tm_transfer ~tid:(node_id t)
          ~k:m.tm_k_bytes next.x_bytes);
    Engine.schedule t.engine ~delay:dur (fun engine ->
        Metrics.Counter.add t.pcie_bytes next.x_bytes;
        ov.ov_busy <- false;
        ov.ov_completed <- ov.ov_completed + 1;
        next.x_deliver engine;
        ov_pump t ov)
  end

let ov_enqueue t ov ~bytes ~seeds ~lost k =
  ov.ov_offered <- ov.ov_offered + 1;
  (* an ownerless request (no seed left to serve) is shed first *)
  let prio = if seeds = [] then -1 else 0 in
  let q = ov.ov_queue in
  let req =
    Pcie_queue.request q ~prio ~seeds
      { x_bytes = bytes; x_issued = Engine.now t.engine; x_deliver = k;
        x_lost = lost }
  in
  if Pcie_queue.is_full q then begin
    (* shed the least valuable request among the queue and the incoming
       one *)
    let victim = Pcie_queue.shed q req in
    Metrics.Counter.incr ov.ov_shed;
    victim.payload.x_lost Shed
  end
  else Pcie_queue.push q req;
  let depth = Pcie_queue.length q + if ov.ov_busy then 1 else 0 in
  if depth > ov.ov_qpeak then ov.ov_qpeak <- depth;
  ov_pump t ov

(* Schedule a transfer over the PCIe bus owned by [seeds]; calls [k] at
   completion.  A transfer that never completes runs its drop accounting
   exactly once: [lost Dropped] when the default path refuses it (queue
   too long), [lost Shed] when the overload layer sheds it, on arrival or
   later. *)
let pcie_transfer t ~bytes ~seeds ~lost k =
  match t.ov with
  | Some ov -> ov_enqueue t ov ~bytes ~seeds ~lost k
  | None ->
      let now = Engine.now t.engine in
      let start = Float.max now t.pcie_free_at in
      if start -. now > max_poll_queue_delay then lost Dropped
      else begin
        let dur = bytes *. 8. /. effective_pcie_bps t in
        t.pcie_free_at <- start +. dur;
        let completion = start +. dur in
        (match Engine.tracer t.engine with
        | None -> ()
        | Some tr ->
            (* span covers queueing + transfer: starts when the poll was
               issued, ends at bus completion *)
            let m = tids t tr in
            Trace.span_f tr ~ts:now ~dur:(completion -. now) ~cat:m.tm_pcie
              ~name:m.tm_transfer ~tid:(Switch_model.id t.sw)
              ~k:m.tm_k_bytes bytes);
        Engine.schedule t.engine
          ~delay:(completion -. now)
          (fun engine ->
            (* account the transfer when it completes, so byte counters over
               a window reflect achieved (not queued) throughput *)
            Metrics.Counter.add t.pcie_bytes bytes;
            k engine)
      end

let ipc_deliver ?issued t f =
  (* IPC latency depends on how many seeds are co-located (Fig. 10) *)
  let lat = Ipc.latency t.cfg.scheme t.cfg.exec_model ~seeds:(seed_count t) in
  charge_cpu t (Ipc.cpu_cost t.cfg.scheme t.cfg.exec_model);
  if t.cfg.exec_model = Ipc.Processes then
    charge_cpu t t.cfg.cpu.context_switch_cost;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      Trace.span0 tr ~ts:(Engine.now t.engine) ~dur:lat ~cat:m.tm_ipc
        ~name:m.tm_deliver ~tid:(Switch_model.id t.sw));
  Engine.schedule t.engine ~delay:lat (fun engine ->
      (match issued with
      | Some t0 ->
          Metrics.Histogram.record t.latency (Engine.now engine -. t0)
      | None -> ());
      f ())

(* ------------------------------------------------------------------ *)
(* Counter fault injection                                             *)
(* ------------------------------------------------------------------ *)

let set_frozen t on =
  t.frozen <- on;
  if not on then t.frozen_cache <- []

let glitch ?(polls = 1) t = t.glitch_budget <- t.glitch_budget + polls

(* ASIC counter read, possibly degraded: while frozen, every subject keeps
   returning the snapshot taken at freeze time; a pending glitch corrupts
   one read with deterministic garbage drawn from the soil's rng. *)
let read_counters t subject =
  let data =
    if t.frozen then
      match
        List.find_opt
          (fun (s, _) -> Filter.subject_equal s subject)
          t.frozen_cache
      with
      | Some (_, d) -> Array.copy d
      | None ->
          let d =
            Switch_model.poll_subject t.sw ~time:(Engine.now t.engine) subject
          in
          t.frozen_cache <- (subject, Array.copy d) :: t.frozen_cache;
          d
    else Switch_model.poll_subject t.sw ~time:(Engine.now t.engine) subject
  in
  if t.glitch_budget > 0 then begin
    t.glitch_budget <- t.glitch_budget - 1;
    Array.map
      (fun v -> Farm_sim.Rng.uniform t.rng 0. (Float.max (2. *. v) 1e9))
      data
  end
  else data

(* Issue one ASIC poll for [subject] and deliver the result to [subs]. *)
let sub_seeds subs = List.map (fun s -> s.sub_seed) subs

let issue_poll t subject subs =
  let issued = Engine.now t.engine in
  Metrics.Counter.add t.requested (float_of_int (List.length subs));
  charge_cpu t t.cfg.cpu.poll_issue_cost;
  Metrics.Counter.incr t.asic_polls;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      Trace.instant_si tr ~ts:issued ~cat:m.tm_soil ~name:m.tm_asic_poll
        ~tid:(Switch_model.id t.sw) ~k0:m.tm_k_subject
        (subject_sid m subject) ~k1:m.tm_k_subs (List.length subs));
  let bytes = poll_payload t subject in
  (* the ASIC snapshots the counters when the read is issued; the data
     then crosses the PCIe bus *)
  let data = read_counters t subject in
  (* the owning-seed list is only needed on the drop/shed paths (and by
     the bounded queue under overload protection): build it there, not
     per successful poll *)
  let lost loss = drop_polls t loss (sub_seeds subs) in
  let seeds = if t.ov = None then [] else sub_seeds subs in
  pcie_transfer t ~bytes ~seeds ~lost (fun _engine ->
      let records = Float.max 1. (bytes /. counter_record_bytes) in
      List.iter
        (fun sub ->
          if sub.active then begin
            (* bulk counter reads are DMA'd: post-processing is cheap
               per record on top of the fixed per-poll cost *)
            charge_cpu t (t.cfg.cpu.poll_process_cost *. records /. 128.);
            charge_cpu t t.cfg.cpu.poll_process_cost;
            if t.cfg.aggregate_polls then
              charge_cpu t t.cfg.cpu.aggregation_cost;
            Metrics.Counter.incr t.completed;
            match sub.kind with
            | Poll p -> ipc_deliver ~issued t (fun () -> p.deliver data)
            | Probe _ | Time _ -> ()
          end)
        subs)

(* ------------------------------------------------------------------ *)
(* Aggregated polling groups                                           *)
(* ------------------------------------------------------------------ *)

let group_period g =
  List.fold_left
    (fun acc s -> Float.min acc s.period)
    infinity g.g_subs

let rearm_group t g =
  (match g.g_timer with Some tm -> Engine.cancel tm | None -> ());
  match g.g_subs with
  | [] -> g.g_timer <- None
  | _ ->
      let period = group_period g in
      g.g_timer <-
        Some
          (Engine.every t.engine ~period (fun _ ->
               issue_poll t g.g_subject g.g_subs))

let find_group t subject =
  List.find_opt (fun g -> Filter.subject_equal g.g_subject subject) t.groups

let fresh_sub t ~seed_id ~period kind =
  let s =
    { sub_id = t.next_sub; sub_seed = seed_id; kind; period; timer = None;
      active = true }
  in
  t.next_sub <- t.next_sub + 1;
  s

let subscribe_poll t ~seed_id ~subject ~period deliver =
  Switch_model.watch_subject t.sw ~time:(Engine.now t.engine) subject;
  let sub = fresh_sub t ~seed_id ~period (Poll { subject; deliver }) in
  if t.cfg.aggregate_polls then begin
    let g =
      match find_group t subject with
      | Some g -> g
      | None ->
          let g = { g_subject = subject; g_subs = []; g_timer = None } in
          t.groups <- g :: t.groups;
          g
    in
    g.g_subs <- sub :: g.g_subs;
    rearm_group t g
  end
  else
    sub.timer <-
      Some
        (Engine.every t.engine ~period (fun _ -> issue_poll t subject [ sub ]));
  sub

let subscribe_probe t ~seed_id ~filter ~period deliver =
  let sub = fresh_sub t ~seed_id ~period (Probe { filter; deliver }) in
  let owners = [ seed_id ] in
  let lost loss = drop_polls t loss owners in
  let tick _ =
    (* sampling mirrors one packet over the PCIe bus *)
    Metrics.Counter.incr t.requested;
    match Switch_model.sample_packet t.sw t.rng with
    | Some pkt when Filter.matches filter pkt.tuple ->
        charge_cpu t t.cfg.cpu.sample_cost;
        pcie_transfer t ~bytes:(float_of_int pkt.size) ~seeds:owners ~lost
          (fun _ ->
            if sub.active then begin
              Metrics.Counter.incr t.completed;
              match sub.kind with
              | Probe p -> ipc_deliver t (fun () -> p.deliver pkt)
              | Poll _ | Time _ -> ()
            end)
    | Some _ | None -> ()
  in
  sub.timer <- Some (Engine.every t.engine ~period tick);
  sub

let subscribe_time t ~seed_id ~period callback =
  let sub = fresh_sub t ~seed_id ~period (Time callback) in
  sub.timer <-
    Some
      (Engine.every t.engine ~period (fun engine ->
           if sub.active then begin
             charge_cpu t t.cfg.cpu.handler_base_cost;
             match sub.kind with
             | Time f -> f (Engine.now engine)
             | Poll _ | Probe _ -> ()
           end));
  sub

let set_period t sub period =
  sub.period <- period;
  (match sub.timer with Some tm -> Engine.set_period tm period | None -> ());
  if t.cfg.aggregate_polls then
    match sub.kind with
    | Poll p -> (
        match find_group t p.subject with
        | Some g -> rearm_group t g
        | None -> ())
    | Probe _ | Time _ -> ()

let cancel t sub =
  sub.active <- false;
  (* Booked bus completions and cancelled timers keep [sub] reachable
     until they fire, up to a second of simulated time later; they check
     [active] first, so swap the handlers for no-ops and let the seed's
     instance be collected now. *)
  sub.kind <-
    (match sub.kind with
    | Poll p -> Poll { p with deliver = ignore }
    | Probe p -> Probe { p with deliver = ignore }
    | Time _ -> Time ignore);
  (match sub.timer with Some tm -> Engine.cancel tm | None -> ());
  match sub.kind with
  | Poll p when t.cfg.aggregate_polls -> (
      match find_group t p.subject with
      | Some g ->
          g.g_subs <- List.filter (fun s -> s.sub_id <> sub.sub_id) g.g_subs;
          rearm_group t g
      | None -> ())
  | Poll _ | Probe _ | Time _ -> ()

(* ------------------------------------------------------------------ *)
(* TCAM                                                                *)
(* ------------------------------------------------------------------ *)

let add_tcam_rule t rule =
  charge_cpu t t.cfg.cpu.handler_base_cost;
  match Tcam.add (Switch_model.tcam t.sw) Tcam.Monitoring rule with
  | Ok _ ->
      Switch_model.apply_tcam_actions t.sw ~time:(Engine.now t.engine);
      Ok ()
  | Error `Full -> Error `Full

let remove_tcam_rule t ~pattern =
  charge_cpu t t.cfg.cpu.handler_base_cost;
  let n = Tcam.remove (Switch_model.tcam t.sw) Tcam.Monitoring ~pattern in
  if n > 0 then
    Switch_model.apply_tcam_actions t.sw ~time:(Engine.now t.engine);
  n

let get_tcam_rule t ~pattern =
  Tcam.find (Switch_model.tcam t.sw) Tcam.Monitoring ~pattern

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let poll_stats t =
  let i c = int_of_float (Metrics.Counter.value c) in
  { requested = i t.requested; completed = i t.completed;
    dropped = i t.dropped; pcie_bytes = Metrics.Counter.value t.pcie_bytes;
    asic_polls = i t.asic_polls }

let delivery_latency t = t.latency

let reset_stats t =
  Metrics.Histogram.reset t.latency;
  Metrics.Counter.reset t.requested;
  Metrics.Counter.reset t.completed;
  Metrics.Counter.reset t.dropped;
  Metrics.Counter.reset t.pcie_bytes;
  Metrics.Counter.reset t.asic_polls;
  Cpu_model.reset t.usage
