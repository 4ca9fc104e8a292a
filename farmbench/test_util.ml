(* Unit tests of the benchmark's pure helpers. *)

module U = Farmbench_util.Util

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_percentile_rule () =
  (* beyond p: n * (1 - p/100) samples *)
  expect "19 samples: no percentile has ten beyond the median"
    (U.tail_percentile 19 = None);
  expect "20 samples: median" (U.tail_percentile 20 = Some 50.);
  expect "99 samples: still the median" (U.tail_percentile 99 = Some 50.);
  expect "100 samples: p90" (U.tail_percentile 100 = Some 90.);
  expect "999 samples: p90" (U.tail_percentile 999 = Some 90.);
  expect "1000 samples: p99" (U.tail_percentile 1000 = Some 99.);
  expect "10000 samples: p99.9" (U.tail_percentile 10000 = Some 99.9);
  let xs = List.init 101 float_of_int in
  expect "median interpolates by rank" (close (U.median xs) 50.);
  expect "p90 of 0..100" (close (U.percentile xs 90.) 90.);
  expect "interpolation between ranks" (close (U.percentile [ 0.; 10. ] 25.) 2.5);
  let s = U.summarize (List.rev xs) in
  expect "summary count" (s.n = 101);
  expect "summary tail is the rule's" (s.tail = Some (90., 90.))

let span id layer parent start stop = { U.id; layer; parent; start; stop }

let test_self_time () =
  let spans =
    [ span 0 "setup" (-1) 0. 10.;
      span 1 "deploy" 0 1. 3.;
      span 2 "deploy" 0 2. 5.;  (* overlaps its sibling: counted once *)
      span 3 "verify" 1 1.5 2.5;
      span 4 "engine" (-1) 10. 12.;
      span 5 "harvester" 4 11. 13. (* clipped to the parent *) ]
  in
  let selfs = U.self_times spans in
  let self id = List.assoc id (List.map (fun ((s : U.span), v) -> (s.id, v)) selfs) in
  expect "parent minus the union of its children" (close (self 0) 6.);
  expect "child minus its own child" (close (self 1) 1.);
  expect "leaf keeps its duration" (close (self 3) 1.);
  expect "children clipped to the parent" (close (self 4) 1.);
  let layers = U.layer_self_times spans in
  expect "layer sums" (close (List.assoc "deploy" layers) 4.);
  expect "layers sorted by name"
    (List.map fst layers = [ "deploy"; "engine"; "harvester"; "setup"; "verify" ]);
  expect "overlapping siblings each keep their own self time"
    (close (self 2) 3.)

let test_failed_share () =
  let t =
    { U.episodes = 100; missed = 4; offered = 600; lost = 10; shed = 20;
      dup = 3; stale = 1 }
  in
  expect "failed counts misses and every dropped report" (U.tally_failed t = 38);
  expect "lost reports join the denominator" (U.tally_attempted t = 710);
  expect "share" (close (U.share ~failed:38 ~attempted:710) (38. /. 710.));
  expect "refused deploys" (close (U.share ~failed:6 ~attempted:102) (6. /. 102.));
  expect "nothing attempted is an error"
    (match U.share ~failed:0 ~attempted:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  test_percentile_rule ();
  test_self_time ();
  test_failed_share ();
  if !failures > 0 then exit 1 else print_endline "farmbench helpers: ok"
