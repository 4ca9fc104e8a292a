(* Deterministic structured tracing.  Events are stamped with simulation
   time only — never wall clock — so a traced run is byte-identical
   across replays and across [Sweep] domain counts.  A sink is owned by
   one engine (no global mutable state), which is what makes the
   domain-count invariance hold by construction.

   Storage is a chunked structure-of-arrays buffer: the hot path writes
   unboxed floats and packed ints into parallel arrays and never
   allocates (no event record, no args list, no string formatting).
   Chunks double from 1 KiB slots up to a 64 KiB cap and are never
   copied, so recording N events allocates exactly the slots that hold
   them — there is no doubling-and-blit churn for the GC to chase.
   Strings are interned once per sink; everything textual — the Chrome
   JSON, [Printf] decimal timestamps, escaping — happens at flush time.
   The legacy [instant]/[span]/[counter] entry points still accept
   arbitrary [args] lists; those events are kept as records in a lazily
   allocated side slab, so the public [event] view and the emitted JSON
   are unchanged. *)

type arg = S of string | I of int | F of float

type phase =
  | Span of float  (** complete span: payload is the duration, seconds *)
  | Instant
  | Counter of float

type event = {
  ts : float;  (** simulation time, seconds *)
  cat : string;
  name : string;
  tid : int;
  ph : phase;
  args : (string * arg) list;
}

let null_event = { ts = 0.; cat = ""; name = ""; tid = 0; ph = Instant; args = [] }

(* Per-slot compact encoding.  [desc] packs the shape tag, the interned
   string ids and the track id:

     bits 0..3    shape
     bits 4..19   name id   (16 bits)
     bits 20..29  cat id    (10 bits)
     bits 30..39  key0 id   (10 bits)
     bits 40..49  key1 id   (10 bits)
     bits 50..59  tid       (10 bits)

   Shapes fix the argument layout; anything that does not fit (or whose
   ids overflow the field widths) falls back to [sh_gen], which stores a
   full [event] record in the chunk's side slab. *)
let sh_gen = 0 (* side slab holds the event verbatim *)
let sh_i0 = 1 (* instant, no args *)
let sh_ii = 2 (* instant, args = [k0, I a0] *)
let sh_iis = 3 (* instant, args = [k0, I a0; k1, S (str a1)] *)
let sh_isi = 4 (* instant, args = [k0, S (str a0); k1, I a1] *)
let sh_s0 = 5 (* span dur=pay, no args *)
let sh_sf = 6 (* span dur=pay, args = [k0, F pay2] *)
let sh_c = 7 (* counter, value = pay *)

let name_bits = 16
let small_bits = 10
let name_max = (1 lsl name_bits) - 1
let small_max = (1 lsl small_bits) - 1

let pack ~shape ~cat ~name ~k0 ~k1 ~tid =
  shape
  lor (name lsl 4)
  lor (cat lsl (4 + name_bits))
  lor (k0 lsl (4 + name_bits + small_bits))
  lor (k1 lsl (4 + name_bits + (2 * small_bits)))
  lor (tid lsl (4 + name_bits + (3 * small_bits)))

let desc_shape d = d land 0xF
let desc_name d = (d lsr 4) land name_max
let desc_cat d = (d lsr (4 + name_bits)) land small_max
let desc_k0 d = (d lsr (4 + name_bits + small_bits)) land small_max
let desc_k1 d = (d lsr (4 + name_bits + (2 * small_bits))) land small_max
let desc_tid d = (d lsr (4 + name_bits + (3 * small_bits))) land small_max

(* One storage chunk: parallel per-slot arrays (SoA, unboxed stores).
   [k_objs] — the side slab for generic records — is allocated only when
   a [sh_gen] event actually lands in the chunk. *)
type chunk = {
  k_ts : float array;
  k_pay : float array;  (* dur / counter value *)
  k_pay2 : float array;  (* span_f's float arg *)
  k_desc : int array;
  k_a0 : int array;
  k_a1 : int array;
  mutable k_objs : event array;  (* [||] until a sh_gen slot is stored *)
}

let chunk_make cap =
  { k_ts = Array.make cap 0.; k_pay = Array.make cap 0.;
    k_pay2 = Array.make cap 0.; k_desc = Array.make cap 0;
    k_a0 = Array.make cap 0; k_a1 = Array.make cap 0; k_objs = [||] }

let chunk_cap c = Array.length c.k_ts

let first_chunk = 1024
let max_chunk = 65536

type t = {
  ring : int;  (* 0 = unbounded chunked buffer; >0 = flight-recorder ring *)
  mutable chunks : chunk array;  (* pointer table; only it is ever copied *)
  mutable n_chunks : int;
  mutable cur : chunk;  (* == chunks.(n_chunks - 1) *)
  mutable cur_off : int;  (* next free slot in [cur] (unbounded mode) *)
  mutable len : int;  (* valid events *)
  mutable head : int;  (* ring read position (oldest event) *)
  mutable dropped : int;  (* events overwritten by the ring *)
  (* string intern table; ids are stable for the sink's lifetime *)
  itbl : (string, int) Hashtbl.t;
  mutable istrs : string array;
  mutable istr_n : int;
}

let create ?(ring = 0) () =
  if ring < 0 then invalid_arg "Trace.create: negative ring";
  let cap = if ring > 0 then ring else first_chunk in
  let c = chunk_make cap in
  { ring; chunks = [| c |]; n_chunks = 1; cur = c; cur_off = 0;
    len = 0; head = 0; dropped = 0;
    itbl = Hashtbl.create 64; istrs = Array.make 64 ""; istr_n = 0 }

let count t = t.len
let dropped t = t.dropped

let clear t =
  (* keep the first chunk, release the rest; drop retained generic
     records.  The intern table survives (ids stay valid across [clear],
     which lets callers cache them). *)
  let c0 = t.chunks.(0) in
  if c0.k_objs != [||] then Array.fill c0.k_objs 0 (Array.length c0.k_objs) null_event;
  if t.n_chunks > 1 then t.chunks <- [| c0 |];
  t.n_chunks <- 1;
  t.cur <- c0;
  t.cur_off <- 0;
  t.len <- 0;
  t.head <- 0;
  t.dropped <- 0

let intern t s =
  (* [Hashtbl.find] rather than [find_opt]: a hit returns the id with no
     [Some] box, so steady-state interning allocates nothing *)
  match Hashtbl.find t.itbl s with
  | id -> id
  | exception Not_found ->
      let id = t.istr_n in
      if id = Array.length t.istrs then begin
        let a = Array.make (2 * id) "" in
        Array.blit t.istrs 0 a 0 id;
        t.istrs <- a
      end;
      t.istrs.(id) <- s;
      t.istr_n <- id + 1;
      Hashtbl.add t.itbl s id;
      id

let istr t id = t.istrs.(id)

let add_chunk t =
  let cap = min (2 * chunk_cap t.cur) max_chunk in
  let c = chunk_make cap in
  if t.n_chunks = Array.length t.chunks then begin
    let a = Array.make (2 * t.n_chunks) c in
    Array.blit t.chunks 0 a 0 t.n_chunks;
    t.chunks <- a
  end;
  t.chunks.(t.n_chunks) <- c;
  t.n_chunks <- t.n_chunks + 1;
  t.cur <- c;
  t.cur_off <- 0

(* Claim the chunk and offset of the next event's slot, shared by every
   emitter.  Ring mode rotates inside its single preallocated chunk;
   unbounded mode appends, adding a fresh chunk when the current one
   fills (no copying, ever). *)
let[@inline] next_slot t =
  if t.ring > 0 then
    if t.len < t.ring then begin
      let i = (t.head + t.len) mod t.ring in
      t.len <- t.len + 1;
      i
    end
    else begin
      (* full: overwrite the oldest event *)
      let i = t.head in
      t.head <- (t.head + 1) mod t.ring;
      t.dropped <- t.dropped + 1;
      i
    end
  else begin
    if t.cur_off = chunk_cap t.cur then add_chunk t;
    let i = t.cur_off in
    t.cur_off <- i + 1;
    t.len <- t.len + 1;
    i
  end

let[@inline] store t i ~ts ~pay ~pay2 ~desc ~a0 ~a1 =
  let c = t.cur in
  c.k_ts.(i) <- ts;
  c.k_pay.(i) <- pay;
  c.k_pay2.(i) <- pay2;
  c.k_desc.(i) <- desc;
  c.k_a0.(i) <- a0;
  c.k_a1.(i) <- a1;
  (* clear a possibly recycled generic slot so its record can be GC'd
     (ring mode only — unbounded slots are always fresh) *)
  if c.k_objs != [||] && c.k_objs.(i) != null_event then
    c.k_objs.(i) <- null_event

let emit t ev =
  let i = next_slot t in
  store t i ~ts:0. ~pay:0. ~pay2:0. ~desc:sh_gen ~a0:0 ~a1:0;
  let c = t.cur in
  if c.k_objs == [||] then c.k_objs <- Array.make (chunk_cap c) null_event;
  c.k_objs.(i) <- ev

(* ids fit their packed fields on any realistic sink; the check keeps the
   encoding total rather than silently corrupting *)
let fits_small k = k >= 0 && k <= small_max
let fits ~cat ~name ~k0 ~k1 ~tid =
  fits_small cat && fits_small k0 && fits_small k1 && fits_small tid
  && name >= 0 && name <= name_max

let instant0 t ~ts ~cat ~name ~tid =
  if fits ~cat ~name ~k0:0 ~k1:0 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:0. ~pay2:0.
      ~desc:(pack ~shape:sh_i0 ~cat ~name ~k0:0 ~k1:0 ~tid)
      ~a0:0 ~a1:0
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Instant; args = [] }

let instant_i t ~ts ~cat ~name ~tid ~k v =
  if fits ~cat ~name ~k0:k ~k1:0 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:0. ~pay2:0.
      ~desc:(pack ~shape:sh_ii ~cat ~name ~k0:k ~k1:0 ~tid)
      ~a0:v ~a1:0
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Instant;
        args = [ (istr t k, I v) ] }

let instant_is t ~ts ~cat ~name ~tid ~k0 v0 ~k1 s1 =
  if fits ~cat ~name ~k0 ~k1 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:0. ~pay2:0.
      ~desc:(pack ~shape:sh_iis ~cat ~name ~k0 ~k1 ~tid)
      ~a0:v0 ~a1:s1
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Instant;
        args = [ (istr t k0, I v0); (istr t k1, S (istr t s1)) ] }

let instant_si t ~ts ~cat ~name ~tid ~k0 s0 ~k1 v1 =
  if fits ~cat ~name ~k0 ~k1 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:0. ~pay2:0.
      ~desc:(pack ~shape:sh_isi ~cat ~name ~k0 ~k1 ~tid)
      ~a0:s0 ~a1:v1
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Instant;
        args = [ (istr t k0, S (istr t s0)); (istr t k1, I v1) ] }

let span0 t ~ts ~dur ~cat ~name ~tid =
  if fits ~cat ~name ~k0:0 ~k1:0 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:dur ~pay2:0.
      ~desc:(pack ~shape:sh_s0 ~cat ~name ~k0:0 ~k1:0 ~tid)
      ~a0:0 ~a1:0
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Span dur;
        args = [] }

let span_f t ~ts ~dur ~cat ~name ~tid ~k v =
  if fits ~cat ~name ~k0:k ~k1:0 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:dur ~pay2:v
      ~desc:(pack ~shape:sh_sf ~cat ~name ~k0:k ~k1:0 ~tid)
      ~a0:0 ~a1:0
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Span dur;
        args = [ (istr t k, F v) ] }

let counter_id t ~ts ~cat ~name ~tid ~value =
  if fits ~cat ~name ~k0:0 ~k1:0 ~tid then begin
    let i = next_slot t in
    store t i ~ts ~pay:value ~pay2:0.
      ~desc:(pack ~shape:sh_c ~cat ~name ~k0:0 ~k1:0 ~tid)
      ~a0:0 ~a1:0
  end
  else
    emit t
      { ts; cat = istr t cat; name = istr t name; tid; ph = Counter value;
        args = [] }

(* Legacy record-building entry points: arbitrary [cat]/[name]/[args],
   kept for cold paths and external callers.  They intern the strings (so
   flush-time decoding shares one table) and store compactly when the
   args match a shape some hot path also uses; every other argument
   pattern (soil pressure flips, seed degradation) goes to the record
   slab. *)

let instant t ~ts ~cat ~name ?(tid = 0) ?(args = []) () =
  let cat = intern t cat and name = intern t name in
  match args with
  | [] -> instant0 t ~ts ~cat ~name ~tid
  | [ (k, I v) ] -> instant_i t ~ts ~cat ~name ~tid ~k:(intern t k) v
  | [ (k0, I v0); (k1, S s1) ] ->
      instant_is t ~ts ~cat ~name ~tid ~k0:(intern t k0) v0 ~k1:(intern t k1)
        (intern t s1)
  | [ (k0, S s0); (k1, I v1) ] ->
      instant_si t ~ts ~cat ~name ~tid ~k0:(intern t k0) (intern t s0)
        ~k1:(intern t k1) v1
  | args ->
      emit t
        { ts; cat = istr t cat; name = istr t name; tid; ph = Instant; args }

let span t ~ts ~dur ~cat ~name ?(tid = 0) ?(args = []) () =
  let cat = intern t cat and name = intern t name in
  match args with
  | [] -> span0 t ~ts ~dur ~cat ~name ~tid
  | [ (k, F v) ] -> span_f t ~ts ~dur ~cat ~name ~tid ~k:(intern t k) v
  | args ->
      emit t
        { ts; cat = istr t cat; name = istr t name; tid; ph = Span dur; args }

let counter t ~ts ~cat ~name ~value ?(tid = 0) () =
  counter_id t ~ts ~cat:(intern t cat) ~name:(intern t name) ~tid ~value

(* ------------------------------------------------------------------ *)
(* Decoding (flush time only)                                          *)
(* ------------------------------------------------------------------ *)

(* Reconstruct the [event] record held at offset [i] of chunk [c]. *)
let decode_at t c i =
  let d = c.k_desc.(i) in
  let shape = desc_shape d in
  if shape = sh_gen then c.k_objs.(i)
  else begin
    let cat = istr t (desc_cat d) and name = istr t (desc_name d) in
    let k0 () = istr t (desc_k0 d) and k1 () = istr t (desc_k1 d) in
    let ts = c.k_ts.(i) and tid = desc_tid d in
    let pay = c.k_pay.(i) and pay2 = c.k_pay2.(i) in
    let a0 = c.k_a0.(i) and a1 = c.k_a1.(i) in
    let ph, args =
      if shape = sh_i0 then (Instant, [])
      else if shape = sh_ii then (Instant, [ (k0 (), I a0) ])
      else if shape = sh_iis then
        (Instant, [ (k0 (), I a0); (k1 (), S (istr t a1)) ])
      else if shape = sh_isi then
        (Instant, [ (k0 (), S (istr t a0)); (k1 (), I a1) ])
      else if shape = sh_s0 then (Span pay, [])
      else if shape = sh_sf then (Span pay, [ (k0 (), F pay2) ])
      else (Counter pay, [])
    in
    { ts; cat; name; tid; ph; args }
  end

let iter f t =
  if t.ring > 0 then begin
    let c = t.chunks.(0) in
    for i = 0 to t.len - 1 do
      f (decode_at t c ((t.head + i) mod t.ring))
    done
  end
  else begin
    (* every chunk before the current one is full *)
    let rem = ref t.len in
    for ci = 0 to t.n_chunks - 1 do
      let c = t.chunks.(ci) in
      let n = min !rem (chunk_cap c) in
      for i = 0 to n - 1 do
        f (decode_at t c i)
      done;
      rem := !rem - n
    done
  end

let events t =
  let acc = ref [] in
  iter (fun ev -> acc := ev :: !acc) t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (Perfetto-compatible)                      *)
(* ------------------------------------------------------------------ *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Microseconds with fixed sub-microsecond precision: deterministic
   decimal formatting, no locale or platform variance. *)
let us ts = Printf.sprintf "%.3f" (ts *. 1e6)

let arg_to_buf b = function
  | S s ->
      Buffer.add_char b '"';
      json_escape b s;
      Buffer.add_char b '"'
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Buffer.add_string b (Printf.sprintf "%.17g" f)

let event_to_buf b ev =
  Buffer.add_string b "{\"name\":\"";
  json_escape b ev.name;
  Buffer.add_string b "\",\"cat\":\"";
  json_escape b ev.cat;
  Buffer.add_string b "\",\"ph\":\"";
  (match ev.ph with
  | Span _ -> Buffer.add_char b 'X'
  | Instant -> Buffer.add_char b 'i'
  | Counter _ -> Buffer.add_char b 'C');
  Buffer.add_string b "\",\"ts\":";
  Buffer.add_string b (us ev.ts);
  (match ev.ph with
  | Span dur ->
      Buffer.add_string b ",\"dur\":";
      Buffer.add_string b (us dur)
  | Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Counter _ -> ());
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  Buffer.add_string b (string_of_int ev.tid);
  let args =
    match ev.ph with
    | Counter v -> [ ("value", F v) ]
    | Span _ | Instant -> ev.args
  in
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          json_escape b k;
          Buffer.add_string b "\":";
          arg_to_buf b v)
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_chrome_json t =
  let b = Buffer.create (256 * (1 + t.len)) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  iter
    (fun ev ->
      if !first then first := false else Buffer.add_string b ",\n";
      event_to_buf b ev)
    t;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
