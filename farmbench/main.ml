(* The FARM benchmark.

   One command runs a complete FARM world on the paper's 20-switch
   fabric (4 spines, 16 leaves, 2 hosts per leaf): traffic -> soil poll
   -> PCIe -> compiled Almanac seed -> TCAM / control send -> harvester.
   Three workloads stress different layers of that path:

   - hh_pulse: an elephant flow every 0.2 sim-s for 0.1 sim-s against the
     catalog heavy-hitter task (Tab. 4, Fig. 4).  Engine dispatch, 1 ms
     soil polling and the compiled handler do nearly all the work; the
     Almanac front end and placement run once, in set-up.
   - deploy_verify: rounds of deploying all 17 Table I tasks with
     verify-on-deploy, re-optimising the placement and undeploying.
     Parse, type check, symbolic verification, lint, analysis and the
     placement heuristic do nearly all the work; the engine only runs
     50 ms per round and a 6 s elephant phase after the last round.
   - attack_storm: eight detectors under rotating Table I attacks, with
     overload protection, a lossy control channel and report storms:
     report-heavy where hh_pulse is poll-heavy.

   The simulated workloads are open loops in simulation time (episodes
   start at fixed times whatever FARM does); deploy_verify is a closed
   loop with one caller.  The seed picks traffic endpoints, victims and
   the phase of each episode within the 1 ms poll period.

   Each run repeats "set up a world, run the workload" until the time
   budget is spent and reports medians; every repetition of one seed
   must produce the same behaviour digest.  With --trace 1 untraced and
   traced repetitions alternate: spans are recorded in the traced ones
   only, and the two digests must agree. *)

open Farm
module U = Farmbench_util.Util
module Engine = Sim.Engine
module Rng = Sim.Rng
module Registry = Sim.Metrics.Registry
module Histogram = Sim.Metrics.Histogram
module Topology = Net.Topology
module Fabric = Net.Fabric
module Flow = Net.Flow
module Ipaddr = Net.Ipaddr
module Switch_model = Net.Switch_model
module Seeder = Runtime.Seeder
module Harvester = Runtime.Harvester
module Soil = Runtime.Soil
module Seed_exec = Runtime.Seed_exec
module Catalog = Tasks.Catalog
module Tc = Tasks.Task_common
module Value = Almanac.Value

let spans = Spans.create ()
let wall = Spans.now

(* ------------------------------------------------------------------ *)
(* World                                                               *)
(* ------------------------------------------------------------------ *)

(* Hard failures of the benchmark itself: a deploy expected to succeed
   was refused, a correctness check failed. *)
exception Check of string

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then raise (Check m)) fmt

type episode = {
  kind : string;  (** traffic generator *)
  detectors : string list;  (** tasks expected to report it *)
  onset : float;
  stop : float;
  mutable footprint : int list;  (** switches that carried its flows *)
  carries : Switch_model.active_flow -> bool;
  reports : string -> Value.t -> bool;
      (** does a report of this task identify the episode *)
  mutable egress : (int * int) list;  (** elephants: (switch, egress port) *)
}

type world = {
  w : World.t;
  mutable tasks : (string * Seeder.task) list;  (** newest first *)
  mutable deploy_ms : float list;
  mutable deploys : int;
  mutable refused : int;
  mutable episodes : episode list;  (** newest first *)
  mutable reopt_ms : float list;
  mutable peak : (Placement.Model.instance * int) option;
      (** deploy_verify: the placement instance after the last
          re-optimisation, and how many deployed tasks it left unplaced *)
}

let make_world ~seed ~config =
  { w =
      World.create ~seed ~spines:4 ~leaves:16 ~hosts_per_leaf:2
        ~seeder_config:config ();
    tasks = []; deploy_ms = []; deploys = 0; refused = 0; episodes = [];
    reopt_ms = []; peak = None }

(* Light background: 60 Zipf flows far below every detection threshold,
   so every report the detectors send is caused by an episode. *)
let background w =
  Net.Traffic.background w.w.engine w.w.fabric w.w.rng
    { Net.Traffic.default_profile with
      concurrent_flows = 60;
      mean_rate = 20_000. }

(* Catalog entry as shipped, with its harvester factory wrapped so that
   each report handler call is a span of the traced run. *)
let traced_entry name =
  let e = Catalog.find name in
  { e with
    Tc.harvester =
      (fun () ->
        let h = e.harvester () in
        { h with
          Harvester.on_message =
            (fun ctx ~from_switch v ->
              Spans.within spans ~layer:"harvester" ~name (fun () ->
                  h.on_message ctx ~from_switch v)) }) }

(* Placement may find no room for these next to the tasks deployed
   before them in a full Table I round; either outcome is accepted. *)
let may_be_refused = [ "ddos" ]

let deploy w name =
  let spec = Tc.to_task_spec (traced_entry name) in
  let t0 = wall () in
  let r =
    Spans.within spans ~layer:"seeder.deploy" ~name (fun () ->
        Seeder.deploy w.w.seeder spec)
  in
  w.deploy_ms <- ((wall () -. t0) *. 1e3) :: w.deploy_ms;
  w.deploys <- w.deploys + 1;
  match r with
  | Ok task ->
      w.tasks <- (name, task) :: w.tasks;
      Some task
  | Error m ->
      w.refused <- w.refused + 1;
      check (List.mem name may_be_refused) "deploy of %s refused: %s" name m;
      None

let soils w = Seeder.soils w.w.seeder
let sum_soils w f = List.fold_left (fun a s -> a + f s) 0 (soils w)

let harvesters w =
  List.rev_map (fun (_, t) -> Seeder.harvester t) w.tasks

let sum_harvesters w f = List.fold_left (fun a h -> a + f h) 0 (harvesters w)

(* Run the engine to [t_end] in 0.1 sim-s slices; [on_slice] runs after
   each.  Slicing does not change dispatch order ([Engine.run ~until]
   leaves later events queued), so traced and untraced runs agree. *)
let slice = 0.1

let run_until ?(on_slice = fun () -> ()) w t_end =
  let e = w.w.engine in
  let k = ref (int_of_float (Float.round (Engine.now e /. slice))) in
  while Engine.now e < t_end do
    incr k;
    let until = Float.min t_end (float_of_int !k *. slice) in
    if spans.enabled then begin
      let ev0 = Engine.dispatched e
      and msg0 = Seeder.collector_messages w.w.seeder
      and polls0 = sum_soils w (fun s -> (Soil.poll_stats s).requested)
      and words0 = Gc.minor_words () in
      Spans.within spans ~layer:"engine.run" ~name:"slice"
        ~args:(fun () ->
          [ ("sim_until", until);
            ("events", float_of_int (Engine.dispatched e - ev0));
            ("minor_words", Gc.minor_words () -. words0);
            ("polls_requested",
              float_of_int
                (sum_soils w (fun s -> (Soil.poll_stats s).requested) - polls0));
            ("collector_messages",
              float_of_int (Seeder.collector_messages w.w.seeder - msg0)) ])
        (fun () -> Engine.run ~until e)
    end
    else Engine.run ~until e;
    on_slice ()
  done

(* The leaf switch a host address hangs off, or -1. *)
let leaf_of w addr =
  let topo = w.w.topology in
  match Topology.host_of_addr topo addr with
  | Some h -> List.hd (Topology.neighbors topo h)
  | None -> -1

(* Two host addresses on different leaves. *)
let rec endpoints w rng =
  let a = Fabric.random_host_addr w.w.fabric rng in
  let b = Fabric.random_host_addr w.w.fabric rng in
  if leaf_of w a <> leaf_of w b && leaf_of w a >= 0 then (a, b)
  else endpoints w rng

(* Episode phases within the poll period: a low-discrepancy sequence
   started at a seeded offset, so every seed sees the whole period. *)
let phase ~u0 k =
  let x = u0 +. (float_of_int k *. 0.6180339887498949) in
  x -. Float.of_int (int_of_float x)

let workload_rng seed = Rng.create (Rng.derive_seed seed ~stream:0xbe)

(* ------------------------------------------------------------------ *)
(* Elephants                                                           *)
(* ------------------------------------------------------------------ *)

let hh_rate = 2e7
let poll_period = 1e-3

(* Start an elephant at [onset] for [life] seconds.  Its egress port on
   every switch of its path is recorded: a heavy-hitter report names
   ports, and a counted detection must name the elephant's. *)
let elephant w rng ~onset ~life =
  let src, dst = endpoints w rng in
  let tuple =
    { Flow.src; dst; sport = 1024 + Rng.int rng 60_000;
      dport = 1024 + Rng.int rng 60_000; proto = Flow.Tcp }
  in
  let ep =
    { kind = "elephant"; detectors = [ "heavy-hitter" ]; onset;
      stop = onset +. life; footprint = []; carries = (fun _ -> false);
      egress = [];
      reports =
        (fun _ v ->
          match v with Value.List (_ :: _) -> true | _ -> false) }
  in
  w.episodes <- ep :: w.episodes;
  let fabric = w.w.fabric in
  Engine.schedule_at w.w.engine ~time:onset (fun e ->
      match Fabric.start_flow fabric ~time:(Engine.now e) ~tuple ~rate:hh_rate () with
      | None -> raise (Check "elephant flow has no route")
      | Some id ->
          let path =
            Option.get (Fabric.flow_path fabric id)
            |> Net.Routing.path_switches w.w.topology
          in
          ep.footprint <- path;
          ep.egress <-
            List.map
              (fun sw ->
                let f =
                  List.find
                    (fun (f : Switch_model.active_flow) -> f.flow_id = id)
                    (Switch_model.active_flows (Fabric.switch fabric sw))
                in
                (sw, f.egress))
              path;
          Engine.schedule e ~delay:life (fun e ->
              Fabric.stop_flow fabric ~time:(Engine.now e) id))

(* ------------------------------------------------------------------ *)
(* Attack episodes (attack_storm)                                      *)
(* ------------------------------------------------------------------ *)

let str_is s = function Value.Str x -> x = s | _ -> false
let is_addr = function Value.Str x -> Ipaddr.of_string_opt x <> None | _ -> false
let positive = function Value.Num x -> x > 0. | _ -> false

(* One Table I attack generator, sized so that its detector fires on
   this fabric under the background traffic. *)
let attack w rng ~kind ~onset =
  let e = w.w.engine and f = w.w.fabric in
  let victim = Fabric.random_host_addr f rng in
  let vs = Ipaddr.to_string victim in
  let to_victim (a : Switch_model.active_flow) = Ipaddr.equal a.tuple.dst victim in
  let ep ~dur ~detectors ~carries ~reports =
    let ep =
      { kind; detectors; onset; stop = onset +. dur; footprint = [];
        carries; reports; egress = [] }
    in
    w.episodes <- ep :: w.episodes;
    ep
  in
  match kind with
  | "syn-flood" ->
      (* new-tcp-connections reports once per 1 s window: the flood
         spans a window boundary *)
      let dur = 1.5 in
      Net.Traffic.syn_flood e f rng ~at:onset ~duration:dur ~victim
        ~rate_per_source:200_000. ~sources:30;
      ignore
        (ep ~dur ~detectors:[ "tcp-syn-flood"; "new-tcp-connections" ]
           ~carries:(fun a -> to_victim a && a.tuple.dport = 80 && a.flags.syn)
           ~reports:(fun task v ->
             if task = "tcp-syn-flood" then str_is vs v else positive v))
  | "port-scan" ->
      let dur = 1. in
      Net.Traffic.port_scan e f rng ~at:onset ~duration:dur ~victim ~ports:50;
      ignore
        (ep ~dur ~detectors:[ "port-scan" ]
           ~carries:(fun a -> to_victim a && a.tuple.sport = 40_000 + a.tuple.dport - 1)
           ~reports:(fun _ v -> is_addr v))
  | "superspreader" ->
      let dur = 1. in
      Net.Traffic.superspreader e f rng ~at:onset ~duration:dur ~fanout:60;
      ignore
        (ep ~dur ~detectors:[ "superspreader" ]
           ~carries:(fun a -> a.base_rate = 2000. && not a.flags.syn)
           ~reports:(fun _ v -> is_addr v))
  | "dns-reflection" ->
      let dur = 1. in
      Net.Traffic.dns_reflection e f rng ~at:onset ~duration:dur ~victim
        ~reflectors:20 ~rate_per_reflector:500_000.;
      ignore
        (ep ~dur ~detectors:[ "dns-reflection" ]
           ~carries:(fun a -> to_victim a && a.tuple.sport = 53)
           ~reports:(fun _ v -> str_is vs v))
  | "ssh-brute-force" ->
      let dur = 1. in
      Net.Traffic.ssh_brute_force e f rng ~at:onset ~duration:dur ~victim
        ~attempts_per_sec:40.;
      ignore
        (ep ~dur ~detectors:[ "ssh-brute-force" ]
           ~carries:(fun a -> to_victim a && a.tuple.dport = 22)
           ~reports:(fun _ v -> is_addr v))
  | "slowloris" ->
      (* the detector decides on 2 s windows: the attack spans one, with
         enough connections to be sampled among the background *)
      let dur = 3.5 in
      Net.Traffic.slowloris e f rng ~at:onset ~duration:dur ~victim
        ~connections:1000;
      ignore
        (ep ~dur ~detectors:[ "slowloris" ]
           ~carries:(fun a -> to_victim a && a.tuple.dport = 80 && a.base_rate = 10.)
           ~reports:(fun _ v -> match v with Value.Num _ -> true | _ -> false))
  | k -> invalid_arg ("attack: " ^ k)

(* Add the switches currently carrying an active episode's flows to its
   footprint (the union of the flow paths of its flows). *)
let sample_footprints w =
  let now = Engine.now w.w.engine in
  List.iter
    (fun ep ->
      if ep.onset <= now && now <= ep.stop then
        List.iter
          (fun sw ->
            if (not (List.mem sw ep.footprint))
               && List.exists ep.carries
                    (Switch_model.active_flows (Fabric.switch w.w.fabric sw))
            then ep.footprint <- sw :: ep.footprint)
          (Topology.switch_ids w.w.topology))
    w.episodes

(* ------------------------------------------------------------------ *)
(* Detection matching                                                  *)
(* ------------------------------------------------------------------ *)

type detections = {
  latencies_ms : float list;
  opportunities : int;  (** (episode, detector) pairs *)
  missed : int;
  off_path : int;
      (** reports identifying an episode from a switch its flows did not
          cross (for elephants: or not naming its egress port there) *)
  per_detector : (string * (int * float list)) list;
      (** detector -> (opportunities, latencies) *)
}

(* An (episode, detector) pair is detected by the first report of that
   detector arriving within the episode's lifetime that identifies the
   episode and comes from a switch on the episode's flow paths; for
   elephants the report must also name the elephant's egress port on
   that switch. *)
let detections w =
  let logs = Hashtbl.create 16 in
  List.iter
    (fun (n, t) ->
      let prev = Option.value (Hashtbl.find_opt logs n) ~default:[] in
      Hashtbl.replace logs n
        (prev @ List.rev (Harvester.received (Seeder.harvester t))))
    (List.rev w.tasks);
  let received name = Option.value (Hashtbl.find_opt logs name) ~default:[] in
  let lat = ref [] and opp = ref 0 and missed = ref 0 and off = ref 0 in
  let per = Hashtbl.create 16 in
  let on_path ep sw v =
    List.mem sw ep.footprint
    && (ep.egress = []
       ||
       let port = List.assoc sw ep.egress in
       List.exists
         (function Value.Num p -> int_of_float p = port | _ -> false)
         (Value.as_list v))
  in
  List.iter
    (fun ep ->
      List.iter
        (fun det ->
          incr opp;
          let candidates =
            List.filter
              (fun (t, _, v) -> t >= ep.onset && t <= ep.stop && ep.reports det v)
              (received det)
          in
          let hits, strays =
            List.partition (fun (_, sw, v) -> on_path ep sw v) candidates
          in
          off := !off + List.length strays;
          let n, ls = Option.value (Hashtbl.find_opt per det) ~default:(0, []) in
          match hits with
          | [] ->
              incr missed;
              Hashtbl.replace per det (n + 1, ls)
          | (t, _, _) :: _ ->
              let l = (t -. ep.onset) *. 1e3 in
              lat := l :: !lat;
              Hashtbl.replace per det (n + 1, l :: ls))
        ep.detectors)
    (List.rev w.episodes);
  { latencies_ms = List.rev !lat; opportunities = !opp; missed = !missed;
    off_path = !off;
    per_detector =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) per []) }

(* ------------------------------------------------------------------ *)
(* Behaviour digest                                                    *)
(* ------------------------------------------------------------------ *)

(* Registry snapshot (sorted by name), every harvester's report log and
   the placement in force. *)
let digest w =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Registry.to_json (Engine.metrics w.w.engine));
  List.iter
    (fun (name, task) ->
      Printf.bprintf b "\n#%s" name;
      List.iter
        (fun (t, sw, v) -> Printf.bprintf b "\n%h %d %s" t sw (Value.to_string v))
        (List.rev (Harvester.received (Seeder.harvester task))))
    (List.rev w.tasks);
  List.iter
    (fun (a : Placement.Model.assignment) ->
      Printf.bprintf b "\n@%d %d %d" a.a_seed a.a_node a.a_branch;
      Array.iter (fun r -> Printf.bprintf b " %h" r) a.a_res)
    (List.sort compare (Seeder.current_assignments w.w.seeder));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  config : Seeder.config;
  setups : int;
      (** at least this many set-up-only repetitions per run, besides the
          measured ones: enough for a steady setup_s median and 100
          deploy samples *)
  setup : world -> unit;  (** initial deploys, background traffic *)
  run : world -> Rng.t -> unit;  (** the measured fixed work *)
}

(* [count] elephants [spacing] apart from [first], each at its own
   phase of the poll period. *)
let pulses w rng ~u0 ~first ~count ~spacing ~life =
  for k = 0 to count - 1 do
    let onset =
      first +. (float_of_int k *. spacing) +. (poll_period *. phase ~u0 k)
    in
    elephant w rng ~onset ~life
  done

let hh_pulses = 110

let hh_pulse =
  { name = "hh_pulse";
    config = Seeder.default_config;
    setups = 150;
    setup =
      (fun w ->
        background w;
        ignore (deploy w "heavy-hitter"));
    run =
      (fun w rng ->
        pulses w rng ~u0:(Rng.float rng) ~first:0.5 ~count:hh_pulses
          ~spacing:0.2 ~life:0.1;
        run_until w (0.5 +. (float_of_int hh_pulses *. 0.2) +. 0.1)) }

let dv_rounds = 6
let dv_pulses = 60

(* Each round rolls the whole catalog out in Table I order (deploys take
   no simulated time), re-optimises, runs the full deployment for 50 ms,
   enough to instantiate every seed, and tears it down.  Then
   heavy-hitter alone meets 60 elephants on the fabric the rounds left
   behind. *)
let deploy_verify =
  { name = "deploy_verify";
    config = { Seeder.default_config with verify_on_deploy = true };
    setups = 200;
    setup = background;
    run =
      (fun w rng ->
        for _ = 1 to dv_rounds do
          let deployed = List.filter_map (deploy w) Catalog.names in
          let t0 = wall () in
          Spans.within spans ~layer:"placement.reoptimize" ~name:"reoptimize"
            (fun () -> Seeder.reoptimize w.w.seeder);
          w.reopt_ms <- ((wall () -. t0) *. 1e3) :: w.reopt_ms;
          w.peak <-
            Some
              ( Seeder.placement_instance w.w.seeder,
                List.length (List.filter (fun t -> not (Seeder.is_placed t)) deployed) );
          run_until w (Engine.now w.w.engine +. 0.05);
          List.iter (Seeder.undeploy w.w.seeder) deployed
        done;
        ignore (deploy w "heavy-hitter");
        let first = Engine.now w.w.engine +. 0.05 in
        pulses w rng ~u0:(Rng.float rng) ~first ~count:dv_pulses ~spacing:0.1
          ~life:0.05;
        run_until w (first +. (float_of_int dv_pulses *. 0.1))) }

let storm_detectors =
  [ "tcp-syn-flood"; "port-scan"; "superspreader"; "dns-reflection";
    "ssh-brute-force"; "slowloris"; "new-tcp-connections"; "heavy-hitter" ]

(* The heavy-hitter detector is served by the elephant pulses. *)
let storm_attacks =
  [| "syn-flood"; "port-scan"; "superspreader"; "dns-reflection";
     "ssh-brute-force"; "slowloris" |]

(* The attacks rotate from 1 s on for [storm_seconds], followed by a
   tail that lets the slowest (2 s window) detector report the last one.
   Elephants, one every 0.1 s, run throughout; the tail is long enough
   that over 100 of them are detected, enough for the detection
   percentiles. *)
let storm_seconds = 6
let storm_tail = 5.5
let storm_reports = 50

let attack_storm =
  { name = "attack_storm";
    config = Seeder.overload_defaults;
    setups = 40;
    setup =
      (fun w ->
        background w;
        List.iter (fun n -> ignore (deploy w n)) storm_detectors;
        Seeder.set_ctrl_faults w.w.seeder
          { Seeder.loss = 0.02; delay = 0.; dup = 0.01 });
    run =
      (fun w rng ->
        let u0 = Rng.float rng in
        let switches = Array.of_list (Topology.switch_ids w.w.topology) in
        let t_end = 1. +. float_of_int storm_seconds +. storm_tail in
        pulses w rng ~u0 ~first:0.2
          ~count:(int_of_float ((t_end -. 0.3) /. 0.1))
          ~spacing:0.1 ~life:0.05;
        for k = 0 to storm_seconds - 1 do
          let onset = 1. +. float_of_int k in
          attack w rng ~kind:storm_attacks.(k mod Array.length storm_attacks)
            ~onset;
          (* a report storm from one switch half-way through each second *)
          let node = Rng.choose rng switches in
          Engine.schedule_at w.w.engine ~time:(onset +. 0.5) (fun _ ->
              Seeder.inject_report_storm w.w.seeder ~node ~reports:storm_reports)
        done;
        run_until w ~on_slice:(fun () -> sample_footprints w) t_end) }

let workloads = [ hh_pulse; deploy_verify; attack_storm ]

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

(* Failed operations and operations attempted in one repetition (the
   accounting is documented at [Util.tally]); for deploy_verify, refused
   deploys out of deploys attempted. *)
let failures wl w det =
  if wl.name = "deploy_verify" then (w.refused, w.deploys)
  else
    let t =
      { U.episodes = det.opportunities; missed = det.missed;
        offered = sum_harvesters w Harvester.offered_count;
        lost = Seeder.lost_messages w.w.seeder;
        shed = sum_harvesters w Harvester.shed_count;
        dup = sum_harvesters w Harvester.dup_dropped;
        stale = sum_harvesters w Harvester.stale_dropped }
    in
    (U.tally_failed t, U.tally_attempted t)

(* Simulation-time metrics of one repetition: deterministic per seed.
   [ok_share] is 1 - failed_share: failed_share itself is 0 on hh_pulse,
   and a gated metric must never be 0. *)
let sim_metrics w ~det ~sim_s ~failed ~attempted =
  let n = float_of_int (List.length (soils w)) in
  let pcie =
    List.fold_left (fun a s -> a +. (Soil.poll_stats s).pcie_bytes) 0. (soils w)
  in
  let cpu =
    List.fold_left (fun a s -> a +. Soil.cpu_load s ~window:sim_s) 0. (soils w)
  in
  let d = U.summarize det.latencies_ms in
  [ ("detect_ms_p50", "ms", d.p50);
    ("detect_ms_p90", "ms", d.p90);
    ("collector_Bps", "B/s", Seeder.collector_bytes w.w.seeder /. sim_s);
    ("pcie_Bps_per_switch", "B/s", pcie /. n /. sim_s);
    ("switch_cpu_load", "fraction", cpu /. n);
    ("ok_share", "fraction", 1. -. U.share ~failed ~attempted) ]

type rep = {
  world : world option;  (** kept for the per-layer metrics only *)
  setup_s : float;
  run_s : float;
  events : int;
  minor_words : float;
  digest : string;
  det : detections;
  sim_s : float;
  failed : int;
  attempted : int;
  sims : (string * string * float) list;
  deploy_ms : float list;
  deploys : int;
}

let repetition wl ~seed ~keep =
  let t0 = wall () in
  let world =
    Spans.within spans ~layer:"setup" ~name:wl.name (fun () ->
        let w = make_world ~seed ~config:wl.config in
        wl.setup w;
        w)
  in
  let t1 = wall () in
  let ev0 = Engine.dispatched world.w.engine and words0 = Gc.minor_words () in
  let sim0 = Engine.now world.w.engine in
  wl.run world (workload_rng seed);
  let t2 = wall () in
  let minor_words = Gc.minor_words () -. words0 in
  let det = detections world and sim_s = Engine.now world.w.engine -. sim0 in
  let failed, attempted = failures wl world det in
  { world = (if keep then Some world else None);
    setup_s = t1 -. t0; run_s = t2 -. t1;
    events = Engine.dispatched world.w.engine - ev0; minor_words;
    digest = digest world; det; sim_s; failed; attempted;
    sims = sim_metrics world ~det ~sim_s ~failed ~attempted;
    deploy_ms = world.deploy_ms; deploys = world.deploys }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let print_summary name unit_ (s : U.summary) =
  Printf.printf "  %-22s n=%-5d p50=%.4f p90=%.4f %s  rule: %s\n" name s.n s.p50
    s.p90 unit_
    (match s.tail with
    | Some (p, v) -> Printf.sprintf "p%g=%.4f" p v
    | None -> "fewer than 20 samples")

(* ------------------------------------------------------------------ *)
(* Isolated replays (traced run only)                                  *)
(* ------------------------------------------------------------------ *)

(* Time [f] over enough repetitions to fill 0.2 s; median per-call
   milliseconds. *)
let replay_ms ~layer ~name f =
  let samples = ref [] and t_end = wall () +. 0.2 in
  while !samples = [] || (wall () < t_end && List.length !samples < 1000) do
    let t0 = wall () in
    Spans.within spans ~layer ~name f;
    samples := ((wall () -. t0) *. 1e3) :: !samples
  done;
  U.median !samples

(* A variable's literal initialiser, the value deploy-time analysis
   uses for variables the deployment does not bind. *)
let static_binding (m : Almanac.Ast.machine) name =
  List.find_map
    (fun (v : Almanac.Ast.var_decl) ->
      if v.vname <> name then None
      else
        match v.vinit with
        | Some (Almanac.Ast.Int i) -> Some (Value.Num (float_of_int i))
        | Some (Almanac.Ast.Float f) -> Some (Value.Num f)
        | Some (Almanac.Ast.String s) -> Some (Value.Str s)
        | Some (Almanac.Ast.Bool b) -> Some (Value.Bool b)
        | _ -> None)
    m.mvars

(* The Almanac front end on the deployed specs, pass by pass. *)
let front_end_replays names =
  let entries = List.map Catalog.find names in
  let ok = function Ok x -> x | Error _ -> raise (Check "replay: front end failed") in
  let parsed =
    List.map (fun (e : Tc.entry) -> ok (Almanac.Parser.program_result e.source)) entries
  in
  let checked =
    List.map2
      (fun (e : Tc.entry) p -> ok (Almanac.Typecheck.check_diags ~extra:e.extra_sigs p))
      entries parsed
  in
  let builtins (e : Tc.entry) =
    Almanac.Equiv.default_host_builtins @ List.map fst e.builtins
  in
  let topo = Topology.spine_leaf ~spines:4 ~leaves:16 ~hosts_per_leaf:2 in
  let sum f = fun () -> List.iter2 f entries checked in
  let parse_ms =
    replay_ms ~layer:"replay.almanac" ~name:"parse" (fun () ->
        List.iter
          (fun (e : Tc.entry) -> ignore (Almanac.Parser.program_result e.source))
          entries)
  in
  let typecheck_ms =
    replay_ms ~layer:"replay.almanac" ~name:"typecheck"
      (sum (fun e p ->
           ignore (Almanac.Typecheck.check_diags ~extra:e.extra_sigs p)))
  in
  let verify_ms =
    replay_ms ~layer:"replay.almanac" ~name:"verify"
      (sum (fun e program ->
           let host_builtins = builtins e in
           ignore (Almanac.Equiv.verify_program ~host_builtins ~program ());
           ignore (Almanac.Reach.analyze_program ~host_builtins ~program ())))
  in
  let lint_ms =
    replay_ms ~layer:"replay.almanac" ~name:"lint"
      (sum (fun e program ->
           let externals = List.map (fun (m, vs) -> (m, List.map fst vs)) e.externals in
           ignore (Almanac.Lint.check_program ~externals program)))
  in
  let analysis_ms =
    replay_ms ~layer:"replay.almanac" ~name:"analysis"
      (sum (fun e (program : Almanac.Ast.program) ->
           List.iter
             (fun (m : Almanac.Ast.machine) ->
               let ext = Option.value (List.assoc_opt m.mname e.externals) ~default:[] in
               let bindings name =
                 match List.assoc_opt name ext with
                 | Some v -> Some v
                 | None -> static_binding m name
               in
               ok (Almanac.Analysis.summarize ~bindings ~topo m) |> ignore)
             program.machines))
  in
  [ ("almanac.parse_ms", parse_ms); ("almanac.typecheck_ms", typecheck_ms);
    ("almanac.verify_ms", verify_ms); ("almanac.lint_ms", lint_ms);
    ("almanac.analysis_ms", analysis_ms) ]

(* The heavy-hitter pollStats handler on the compiled engine, fed the
   counters of a fabric-sized port array.  Port 0 turns heavy and idle
   again every 100 activations, so the handler takes both branches. *)
let exec_ns_per_activation ports =
  let e = Catalog.find "heavy-hitter" in
  let program =
    Almanac.Typecheck.check (Almanac.Parser.program e.source)
  in
  (* the switch-side builtins (TCAM access) answer without effect *)
  let host =
    { Almanac.Host.null_host with
      h_resources = (fun () -> Array.make Almanac.Analysis.n_resources 1.);
      h_builtin =
        (fun name ->
          if List.mem name Almanac.Equiv.default_host_builtins then
            Some (fun _ -> Value.Unit)
          else None) }
  in
  let inst =
    Almanac.Engine.create ~engine:`Compiled
      ~externals:(List.assoc "HH" e.externals) ~program ~machine:"HH" host
  in
  Almanac.Engine.start inst;
  let fire = Almanac.Engine.prepare_trigger inst "pollStats" in
  let counters = Array.make ports 0. in
  let n = 200_000 in
  let t0 = wall () in
  Spans.within spans ~layer:"replay.almanac" ~name:"exec" (fun () ->
      for i = 1 to n do
        let hot = (i / 100) land 1 = 1 in
        for p = 0 to ports - 1 do
          counters.(p) <- counters.(p) +. (if hot && p = 0 then 1e5 else 10.)
        done;
        fire (Value.Stats (Array.copy counters))
      done);
  (wall () -. t0) *. 1e9 /. float_of_int n

(* The workload's timer population replayed with no-op callbacks: the
   dispatch times of the first two simulated seconds of a fresh
   repetition, captured through the engine's own trace sink, scheduled
   again on an empty engine; the fastest of five replays. *)
exception Captured

let bare_ns_per_event wl ~seed =
  let w = make_world ~seed ~config:wl.config in
  wl.setup w;
  let sink = Sim.Trace.create () in
  Engine.set_tracer w.w.engine (Some sink);
  Engine.schedule_at w.w.engine ~time:(Engine.now w.w.engine +. 2.) (fun _ ->
      raise Captured);
  (try wl.run w (workload_rng seed) with Captured -> ());
  let times = ref [] in
  Sim.Trace.iter
    (fun (ev : Sim.Trace.event) ->
      if ev.cat = "engine" && ev.name = "dispatch" then times := ev.ts :: !times)
    sink;
  Engine.set_tracer w.w.engine None;
  let times = List.rev !times in
  let n = List.length times in
  let best = ref infinity in
  for _ = 1 to 5 do
    let e = Engine.create ~seed () in
    let noop _ = () in
    let t0 = wall () in
    List.iter (fun time -> Engine.schedule_at e ~time noop) times;
    Engine.run e;
    best := Float.min !best (wall () -. t0)
  done;
  (n, !best *. 1e9 /. float_of_int (max 1 n))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let print_result r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (name, unit_, v) ->
      if i > 0 then Buffer.add_string b ", ";
      if Float.is_finite v then
        Printf.bprintf b "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
      else Printf.bprintf b "%S: {\"value\": null, \"unit\": %S}" name unit_)
    r.metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let out_dir = Filename.concat "farmbench" "out"

let write_file name contents =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let oc = open_out (Filename.concat out_dir name) in
  output_string oc contents;
  close_out oc

let min_reps = 3

(* Host-speed calibration.  On a shared host the same work takes up to
   twice as long from one minute to the next.  A fixed stdlib-only
   kernel (no FARM code, so no change to the program can speed it up)
   is timed before and after every round of set-ups and repetitions, and
   the end-to-end host times are scaled to a host on which it takes
   [calibration_ref_ms]: value = measured * ref / median kernel time.
   Like the simulator, the kernel allocates small blocks and chases
   pointers through a working set of a few MB.  It starts from a fully
   collected heap, so that the garbage of the worlds before it adds no
   GC work to its timing. *)
let calibration_ref_ms = 45.

let calibration_kernel_ms () =
  Gc.full_major ();
  let t0 = wall () in
  let n = 30_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h i (float_of_int i)
  done;
  let x = ref 1 and acc = ref 0. in
  for _ = 1 to 4 * n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc +. Hashtbl.find h (!x mod n)
  done;
  ignore (List.sort compare (Hashtbl.fold (fun k v l -> (v, k) :: l) h []));
  (wall () -. t0) *. 1e3

(* Per-layer metrics, from the first untraced repetition (counters), the
   traced repetitions (spans) and the isolated replays. *)
let layer_metrics wl ~seed ~reps ~traced =
  let first = List.hd reps in
  let w = Option.get first.world in
  let fi = float_of_int in
  let run_s = U.median (List.map (fun r -> r.run_s) reps) in
  let traced_run_s = U.median (List.map (fun r -> r.run_s) traced) in
  let all_spans = Spans.spans spans in
  let selfs =
    U.layer_self_times (List.map (fun (s : Spans.span) -> s.s) all_spans)
  in
  let handler_us =
    U.median
      (List.map (fun d -> d *. 1e6) (Spans.durations spans ~layer:"harvester"))
  in
  (* isolated replays, each a span of its own operation *)
  spans.enabled <- true;
  spans.op <- -1;
  let bare_n, bare_ns = bare_ns_per_event wl ~seed in
  let front =
    front_end_replays (List.sort_uniq compare (List.map fst w.tasks))
  in
  (* deploy_verify ends with nothing deployed: its placement figures are
     taken after the last re-optimisation *)
  let inst, dropped =
    match w.peak with
    | Some p -> p
    | None ->
        ( Seeder.placement_instance w.w.seeder,
          List.length (List.filter (fun (_, t) -> not (Seeder.is_placed t)) w.tasks) )
  in
  let placed = Placement.Heuristic.optimize inst |> fst in
  let optimize_ms =
    replay_ms ~layer:"replay.placement" ~name:"optimize" (fun () ->
        ignore (Placement.Heuristic.optimize inst))
  in
  let reopt_ms =
    match w.reopt_ms with
    | [] ->
        replay_ms ~layer:"replay.placement" ~name:"reoptimize" (fun () ->
            Seeder.reoptimize w.w.seeder)
    | l -> U.median l
  in
  let ports =
    List.fold_left max 0
      (List.map Switch_model.port_count (Fabric.switch_models w.w.fabric))
  in
  let exec_ns = exec_ns_per_activation ports in
  spans.enabled <- false;
  write_file
    (Printf.sprintf "%s-seed%d.trace.json" wl.name seed)
    (Spans.to_chrome_json spans);
  let soil_stats = List.map Soil.poll_stats (soils w) in
  let sumf f = List.fold_left (fun a s -> a + f s) 0 soil_stats in
  let requested = sumf (fun s -> s.Soil.requested) in
  let asic = sumf (fun s -> s.Soil.asic_polls) in
  let delivery p =
    List.filter_map
      (fun s ->
        let h = Soil.delivery_latency s in
        if Histogram.count h = 0 then None
        else Some (Histogram.percentile h p *. 1e3))
      (soils w)
  in
  let ov f =
    List.fold_left
      (fun a s -> match Soil.overload_stats s with Some o -> f a o | None -> a)
      0 (soils w)
  in
  let seeds = List.concat_map (fun (_, t) -> Seeder.seeds w.w.seeder t) w.tasks in
  let failed = first.failed and attempted = first.attempted in
  let self name =
    ("self_s." ^ name, "s",
      Option.value (List.assoc_opt name selfs) ~default:0.)
  in
  [ ("engine.events", "count", fi first.events);
    ("engine.ns_per_event", "ns", run_s *. 1e9 /. fi first.events);
    ("engine.minor_words_per_event", "words", first.minor_words /. fi first.events);
    ("engine.bare_ns_per_event", "ns", bare_ns);
    ("engine.bare_events", "count", fi bare_n);
    ("soil.polls_requested", "count", fi requested);
    ("soil.asic_polls", "count", fi asic);
    ("soil.poll_aggregation", "ratio", fi asic /. fi (max 1 requested));
    ("soil.polls_dropped", "count", fi (sumf (fun s -> s.Soil.dropped)));
    ("soil.pcie_bytes", "B",
      List.fold_left (fun a s -> a +. s.Soil.pcie_bytes) 0. soil_stats);
    ("soil.delivery_ms_p50", "ms", U.median (delivery 50.));
    ("soil.delivery_ms_p99", "ms", List.fold_left Float.max 0. (delivery 99.));
    ("soil.shed", "count", fi (ov (fun a o -> a + o.Soil.o_shed)));
    ("soil.queue_peak", "count", fi (ov (fun a o -> max a o.Soil.o_queue_peak)));
    ("seed_exec.transitions", "count",
      fi (List.fold_left (fun a s -> a + Seed_exec.transitions s) 0 seeds));
    ("seed_exec.poll_drops", "count",
      fi (List.fold_left (fun a s -> a + Seed_exec.poll_drops s) 0 seeds));
    ("almanac.exec_ns_per_activation", "ns", exec_ns) ]
  @ List.map (fun (n, v) -> (n, "ms", v)) front
  @ [ ("placement.optimize_ms", "ms", optimize_ms);
      ("placement.reoptimize_ms", "ms", reopt_ms);
      ("placement.utility", "utility", placed.utility);
      ("placement.placed_seeds", "count", fi (List.length placed.assignments));
      ("placement.dropped_tasks", "count", fi dropped);
      ("ctrl.messages", "count", fi (Seeder.collector_messages w.w.seeder));
      ("ctrl.bytes", "B", Seeder.collector_bytes w.w.seeder);
      ("ctrl.retransmissions", "count", fi (Seeder.retransmissions w.w.seeder));
      ("ctrl.lost", "count", fi (Seeder.lost_messages w.w.seeder));
      ("ctrl.rate_limited", "count", fi (Seeder.rate_limited w.w.seeder));
      ("ctrl.breaker_dropped", "count", fi (Seeder.breaker_dropped w.w.seeder));
      ("harvester.offered", "count", fi (sum_harvesters w Harvester.offered_count));
      ("harvester.received", "count", fi (sum_harvesters w Harvester.received_count));
      ("harvester.shed", "count", fi (sum_harvesters w Harvester.shed_count));
      ("harvester.dup", "count", fi (sum_harvesters w Harvester.dup_dropped));
      ("harvester.stale", "count", fi (sum_harvesters w Harvester.stale_dropped));
      ("harvester.handler_us", "us", handler_us);
      ("detect.opportunities", "count", fi first.det.opportunities);
      ("detect.missed", "count", fi first.det.missed);
      ("detect.off_path_reports", "count", fi first.det.off_path);
      ("failed_share", "fraction", U.share ~failed ~attempted);
      ("failed_share.failed", "count", fi failed);
      ("failed_share.attempted", "count", fi attempted);
      self "setup"; self "seeder.deploy"; self "placement.reoptimize";
      self "engine.run"; self "harvester";
      ("trace.run_s", "s", traced_run_s);
      ("trace.overhead_pct", "%", ((traced_run_s /. run_s) -. 1.) *. 100.);
      ("trace.spans", "count", fi (List.length all_spans)) ]

let main ~wl ~seed ~seconds ~trace =
  let t_end = wall () +. float_of_int seconds in
  let setup_s = ref [] and deploy_ms = ref [] and kernel_ms = ref [] in
  let reps = ref [] and traced = ref [] in
  let calibrate () = kernel_ms := calibration_kernel_ms () :: !kernel_ms in
  (* one round: a batch of set-up-only worlds, spread over the run so
     that setup_s and deploy_ms samples do not all come from its first
     second, then a repetition (and a traced one) *)
  let round () =
    calibrate ();
    for _ = 1 to (wl.setups + min_reps - 1) / min_reps do
      let t0 = wall () in
      let w = make_world ~seed ~config:wl.config in
      wl.setup w;
      setup_s := (wall () -. t0) :: !setup_s;
      deploy_ms := w.deploy_ms @ !deploy_ms
    done;
    let rep ~traced_rep =
      spans.enabled <- traced_rep;
      spans.op <- List.length !reps + List.length !traced;
      let r = repetition wl ~seed ~keep:(trace && !reps = [] && not traced_rep) in
      spans.enabled <- false;
      setup_s := r.setup_s :: !setup_s;
      if traced_rep then traced := r :: !traced
      else begin
        deploy_ms := r.deploy_ms @ !deploy_ms;
        reps := r :: !reps
      end
    in
    rep ~traced_rep:false;
    if trace then rep ~traced_rep:true;
    calibrate ()
  in
  (* stop when the next round would overrun the budget, judging by the
     last one *)
  let round_s = ref 0. in
  while
    List.length !reps < min_reps
    || (trace && List.length !traced < min_reps)
    || wall () +. !round_s <= t_end
  do
    let t0 = wall () in
    round ();
    round_s := wall () -. t0
  done;
  let reps = List.rev !reps and traced = List.rev !traced in
  let all = reps @ traced in
  let first = List.hd reps in
  (* every repetition of one seed, traced or not, behaves identically *)
  let digest_ok = List.for_all (fun r -> r.digest = first.digest) all in
  let sim_ok = List.for_all (fun r -> r.sims = first.sims) all in
  let counts_ok =
    List.for_all (fun r -> r.events = first.events && r.det = first.det) all
  in
  let correct = digest_ok && sim_ok && counts_ok in
  let dep = U.summarize !deploy_ms in
  let det = U.summarize first.det.latencies_ms in
  Printf.printf "workload %s seed %d: %d set-ups, %d untraced + %d traced repetitions\n"
    wl.name seed (List.length !setup_s) (List.length reps) (List.length traced);
  Printf.printf "  run_s per repetition:%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f" r.run_s) reps));
  Printf.printf "  digest %s (%s)\n" first.digest
    (if digest_ok then "identical in every repetition" else "MISMATCH");
  let kernel = U.median !kernel_ms in
  let scale = calibration_ref_ms /. kernel in
  let run_s = U.median (List.map (fun r -> r.run_s) reps) in
  Printf.printf
    "  calibration kernel median %.3f ms: host times in this report are as \
     measured, the JSON scales them by %.4f\n"
    kernel scale;
  Printf.printf "  setup_s median %.6f, run_s median %.4f as measured\n"
    (U.median !setup_s) run_s;
  print_summary "deploy_ms" "ms" dep;
  print_summary "detect_ms" "ms (sim)" det;
  List.iter
    (fun (d, (n, ls)) ->
      Printf.printf "    %-22s detected %d of %d, median %.3f ms\n" d
        (List.length ls) n (U.median ls))
    first.det.per_detector;
  Printf.printf "  failed_share %d / %d; %d off-path reports; sim %.2f s, %d events\n"
    first.failed first.attempted first.det.off_path first.sim_s first.events;
  let metrics =
    if trace then
      layer_metrics wl ~seed ~reps ~traced
      @ [ ("host.calibration_kernel_ms", "ms", kernel) ]
    else
      [ ("setup_s", "s", scale *. U.median !setup_s);
        ("run_s", "s", scale *. run_s);
        ("top_heap_mb", "MB", top_heap_mb ());
        ("deploy_ms_p50", "ms", scale *. dep.p50);
        ("deploy_ms_p90", "ms", scale *. dep.p90) ]
      @ first.sims
  in
  (* an operation is an episode-detector pair or a deploy; the benchmark
     counts as failed only those of a repetition that broke a check *)
  let correct =
    correct && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
  in
  let ops r = r.deploys + r.det.opportunities in
  let attempted = List.fold_left (fun a r -> a + ops r) 0 all in
  print_result
    { correct; attempted; failed = (if correct then 0 else attempted); metrics };
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " hh_pulse | deploy_verify | attack_storm");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measurement budget");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match List.find_opt (fun wl -> wl.name = !workload) workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some wl -> (
      try main ~wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      with Check m ->
        prerr_endline ("correctness check failed: " ^ m);
        exit 1)
