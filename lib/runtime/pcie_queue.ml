(* Fair-share accounting keeps one queued-count cell per seed.  A request
   resolves the cells of its owning seeds once, when it is built; push,
   pop and shed adjust them in place, so picking a victim is one scan of
   at most [capacity] requests with no table rebuilt and nothing
   allocated. *)

type 'a req = {
  seq : int;
  prio : int;
  cells : int ref array;
  payload : 'a;
}

type 'a t = {
  slots : 'a req array;  (* [0, len): queued, oldest first *)
  mutable len : int;
  mutable next_seq : int;
  counts : (int, int ref) Hashtbl.t;  (* seed id -> queued-count cell *)
  empty : 'a req;  (* fills vacated slots *)
}

let create ~capacity dummy =
  let empty = { seq = -1; prio = 0; cells = [||]; payload = dummy } in
  { slots = Array.make (Int.max 0 capacity) empty; len = 0; next_seq = 0;
    counts = Hashtbl.create 8; empty }

let length q = q.len
let is_full q = q.len >= Array.length q.slots

let cell q sid =
  match Hashtbl.find q.counts sid with
  | c -> c
  | exception Not_found ->
      let c = ref 0 in
      Hashtbl.add q.counts sid c;
      c

let rec fill q cells i = function
  | [] -> ()
  | sid :: rest ->
      cells.(i) <- cell q sid;
      fill q cells (i + 1) rest

let request q ~prio ~seeds payload =
  let cells =
    match seeds with
    | [] -> [||]
    | sid :: _ -> Array.make (List.length seeds) (cell q sid)
  in
  fill q cells 0 seeds;
  let r = { seq = q.next_seq; prio; cells; payload } in
  q.next_seq <- q.next_seq + 1;
  r

let count r d =
  for i = 0 to Array.length r.cells - 1 do
    let c = r.cells.(i) in
    c := !c + d
  done

let append q r =
  q.slots.(q.len) <- r;
  q.len <- q.len + 1

let push q r =
  if is_full q then invalid_arg "Pcie_queue.push: full";
  append q r;
  count r 1

let remove_at q i =
  let r = q.slots.(i) in
  (* a loop, not [Array.blit]: the queue is a few slots long *)
  for j = i to q.len - 2 do
    q.slots.(j) <- q.slots.(j + 1)
  done;
  q.len <- q.len - 1;
  q.slots.(q.len) <- q.empty;
  count r (-1);
  r

let pop q =
  if q.len = 0 then invalid_arg "Pcie_queue.pop: empty";
  (* highest priority first, FIFO within a priority *)
  let best = ref 0 in
  for i = 1 to q.len - 1 do
    if q.slots.(i).prio > q.slots.(!best).prio then best := i
  done;
  remove_at q !best

(* The largest queued count among [r]'s owners; 1 for an ownerless
   request. *)
let share r =
  let m = ref 1 in
  for i = 0 to Array.length r.cells - 1 do
    let c = !(r.cells.(i)) in
    if c > !m then m := c
  done;
  !m

(* Is [a] (with share [sa]) a better victim than [b]?  A strict total
   order, since no two requests share a [seq]. *)
let worse a sa b sb =
  a.prio < b.prio
  || (a.prio = b.prio && (sa > sb || (sa = sb && a.seq > b.seq)))

let shed q r =
  if not (is_full q) then invalid_arg "Pcie_queue.shed: not full";
  (* the incoming request competes with the queue: count it in first *)
  count r 1;
  let v = ref (-1) and vr = ref r and vs = ref (share r) in
  for i = 0 to q.len - 1 do
    let c = q.slots.(i) in
    let s = share c in
    if worse c s !vr !vs then begin
      v := i;
      vr := c;
      vs := s
    end
  done;
  if !v < 0 then count r (-1)
  else begin
    ignore (remove_at q !v : _ req);
    append q r
  end;
  !vr
