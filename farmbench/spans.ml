(* In-memory span recorder of the traced run.  Spans are wall-clock
   intervals around calls into one layer; they are kept in memory and
   written out once, when the benchmark ends.  Disabled, [within] is a
   plain call. *)

type span = {
  s : Farmbench_util.Util.span;
  name : string;
  op : int;  (** spans of one operation share this id *)
  args : (string * float) list;
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable op : int;
  mutable spans : span list;
}

let create () = { enabled = false; next = 0; stack = []; op = 0; spans = [] }
let now = Unix.gettimeofday

(* Run [f] inside a span; [args] is evaluated after [f], so it can
   report counter deltas over the span. *)
let within r ~layer ~name ?(args = fun () -> []) f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      r.stack <- List.tl r.stack;
      r.spans <-
        { s = { Farmbench_util.Util.id; layer; parent; start; stop };
          name; op = r.op; args = args () }
        :: r.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans r = List.rev r.spans
let durations r ~layer =
  List.filter_map
    (fun sp ->
      if sp.s.layer = layer then Some (sp.s.stop -. sp.s.start) else None)
    (spans r)

(* Chrome trace_event JSON, wall-clock microseconds from the first span. *)
let to_chrome_json r =
  let spans = spans r in
  let t0 =
    List.fold_left (fun m sp -> Float.min m sp.s.start) infinity spans
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":%S,\"cat\":%S,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d"
        sp.name sp.s.layer
        ((sp.s.start -. t0) *. 1e6)
        ((sp.s.stop -. sp.s.start) *. 1e6)
        sp.s.id sp.s.parent sp.op;
      List.iter (fun (k, v) -> Printf.bprintf b ",%S:%.17g" k v) sp.args;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
