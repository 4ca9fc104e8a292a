(* New TCP connections: probe SYN packets, count distinct tuples per
   window, report the count (the NetQRE connection-counting example). *)
let new_tcp_conn_source =
  {|
machine NewTcpConn {
  place all;
  probe pkts = Probe { .ival = 0.002, .what = proto "tcp" };
  time win = Time { .ival = 1 };
  list seen = [];
  state counting {
    util (res) {
      if (res.vCPU >= 0.1) then { return min(5 * res.vCPU, 5); }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        string key = p.srcIP;
        if (not contains_elem(seen, key)) then {
          seen = append(seen, key);
        }
      }
    }
    when (win as t) do {
      send size(seen) to harvester;
      seen = [];
    }
  }
}
|}

let new_tcp_conn =
  { Task_common.name = "new-tcp-connections";
    description = "per-window new TCP connection counting";
    source = new_tcp_conn_source;
    externals = [];
    builtins = [];
    extra_sigs = [];
    harvester = Task_common.collector;
    harvester_loc = 5;
    adaptive = [] }

(* SYN flood: imbalance between SYNs and SYN-ACKs towards one victim.
   Local reaction: rate-limit traffic to the victim. *)
let tcp_syn_flood_source =
  {|
machine SynFlood {
  place all;
  probe pkts = Probe { .ival = 0.001, .what = proto "tcp" };
  time win = Time { .ival = 0.5 };
  external long imbalanceLimit = 25;
  long syns = 0;
  long synacks = 0;
  string victim = "";
  state observe {
    util (res) {
      if (res.vCPU >= 0.2 and res.RAM >= 32) then {
        return min(10 * res.vCPU, 10);
      }
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then {
        syns = syns + 1;
        victim = p.dstIP;
      }
      if (p.syn and p.ack) then {
        synacks = synacks + 1;
      }
    }
    when (win as t) do {
      if (syns - synacks > imbalanceLimit) then {
        transit flooding;
      }
      syns = 0;
      synacks = 0;
    }
  }
  state flooding {
    util (res) { return 90; }
    when (enter) do {
      send victim to harvester;
      addTCAMRule(mkRule(dstIP victim, rate_limit_action(50000)));
      syns = 0;
      synacks = 0;
    }
    when (win as t) do {
      if (syns - synacks <= imbalanceLimit / 2) then {
        removeTCAMRule(dstIP victim);
        transit observe;
      }
      syns = 0;
      synacks = 0;
    }
    when (pkts as p) do {
      if (p.syn and not p.ack) then { syns = syns + 1; }
      if (p.syn and p.ack) then { synacks = synacks + 1; }
    }
  }
}
|}

let tcp_syn_flood =
  { Task_common.name = "tcp-syn-flood";
    description = "SYN/SYN-ACK imbalance detection with local rate limiting";
    source = tcp_syn_flood_source;
    externals = [];
    builtins = [];
    extra_sigs = [];
    harvester = Task_common.collector;
    harvester_loc = 18;
    adaptive = [] }

(* Partial TCP flows: tuples that opened but showed no progress within the
   timeout — seen-once sources are reported each window. *)
let partial_tcp_flow_source =
  {|
machine PartialTcpFlow {
  place all;
  probe pkts = Probe { .ival = 0.002, .what = proto "tcp" };
  time sweep = Time { .ival = 2 };
  external long reportLimit = 3;
  list opened = [];
  list progressed = [];
  state tracking {
    util (res) {
      if (res.vCPU >= 0.1 and res.RAM >= 64) then {
        return min(8 * res.vCPU, 8);
      }
    }
    when (pkts as p) do {
      string key = p.srcIP;
      if (p.syn and not p.ack) then {
        if (not contains_elem(opened, key)) then {
          opened = append(opened, key);
        }
      }
      if (not p.syn) then {
        if (not contains_elem(progressed, key)) then {
          progressed = append(progressed, key);
        }
      }
    }
    when (sweep as t) do {
      list partial = [];
      long i = 0;
      while (i < size(opened)) {
        if (not contains_elem(progressed, nth(opened, i))) then {
          partial = append(partial, nth(opened, i));
        }
        i = i + 1;
      }
      if (size(partial) >= reportLimit) then {
        send partial to harvester;
      }
      opened = [];
      progressed = [];
    }
  }
}
|}

let partial_tcp_flow =
  { Task_common.name = "partial-tcp-flow";
    description = "flows that opened but never progressed (half-open scan)";
    source = partial_tcp_flow_source;
    externals = [];
    builtins = [];
    extra_sigs = [];
    harvester = Task_common.collector;
    harvester_loc = 18;
    adaptive = [] }

(* Slowloris: many concurrent connections to port 80, each with a tiny
   byte rate.  Detected by combining the port-80 counter (low volume) with
   a high distinct-connection count.  A transit runs after its handler
   returns, so [win] keeps [conns] when it transits: [enter] reports the
   window's connection count, then clears it. *)
let slowloris_source =
  {|
machine Slowloris {
  place all;
  probe web = Probe { .ival = 0.005, .what = dstPort 80 };
  poll webBytes = Poll { .ival = 0.1, .what = port 80 };
  time win = Time { .ival = 2 };
  external long connLimit = 20;
  external float volumeLimit = 50000;
  list conns = [];
  float prevBytes = 0;
  float windowBytes = 0;
  state observe {
    util (res) {
      if (res.vCPU >= 0.15 and res.RAM >= 32) then {
        return min(6 * res.vCPU, 6);
      }
    }
    when (web as p) do {
      string key = p.srcIP;
      if (not contains_elem(conns, key)) then {
        conns = append(conns, key);
      }
    }
    when (webBytes as s) do {
      windowBytes = windowBytes + stat(s, 0) - prevBytes;
      prevBytes = stat(s, 0);
    }
    when (win as t) do {
      if (size(conns) >= connLimit and windowBytes <= volumeLimit) then {
        transit attacked;
      } else {
        conns = [];
      }
      windowBytes = 0;
    }
  }
  state attacked {
    util (res) { return 70; }
    when (enter) do {
      send size(conns) to harvester;
      addTCAMRule(mkRule(dstPort 80, qos_action(3)));
      conns = [];
      transit observe;
    }
  }
}
|}

let slowloris =
  { Task_common.name = "slowloris";
    description =
      "many barely-alive HTTP connections: low volume, high connection count";
    source = slowloris_source;
    externals = [];
    builtins = [];
    extra_sigs = [];
    harvester = Task_common.collector;
    harvester_loc = 29;
    adaptive = [] }
