type 'a event = { time : float; seq : int; payload : 'a }

(* A binary min-heap on (time, seq), stored as parallel arrays so that
   times stay unboxed in a flat [float array]. Slots at or past [size] are
   unused. The sift loops are [while] loops over array reads: without
   flambda, a recursive helper taking the moving element's time as an
   argument would box it on every call. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;  (* empty until the first schedule *)
  mutable size : int;
  mutable next_seq : int;
  mutable clock : float;
      (* boxed: one box per pop, which every reader of [now] then shares
         without boxing the time again *)
  mutable pops : int;
  mutable peak : int;  (* high-water heap length, for the obs registry *)
}

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    clock = 0.0;
    pops = 0;
    peak = 0;
  }

let now t = t.clock
let is_empty t = t.size = 0
let length t = t.size
let pushes t = t.next_seq
let pops t = t.pops
let peak t = t.peak

let grow t payload =
  let cap = max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let payloads = Array.make cap payload in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Move the element at [i] towards the root while it precedes its parent. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let time = times.(i) and seq = seqs.(i) and payload = payloads.(i) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    if times.(p) > time || (times.(p) = time && seqs.(p) > seq) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      payloads.(!i) <- payloads.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

(* Move the element at [i] towards the leaves while a child precedes it. *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let n = t.size in
  let time = times.(i) and seq = seqs.(i) and payload = payloads.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (times.(r) < times.(l)
             || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        payloads.(!i) <- payloads.(c);
        i := c
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

let schedule t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time";
  if time < now t then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: time %g is before now %g" time
         (now t));
  if t.size = Array.length t.times then grow t payload;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.size <- i + 1;
  t.next_seq <- t.next_seq + 1;
  sift_up t i;
  if t.size > t.peak then t.peak <- t.size

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let payload = t.payloads.(0) in
  t.clock <- t.times.(0);
  t.pops <- t.pops + 1;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.payloads.(0) <- t.payloads.(last);
    sift_down t 0
  end;
  payload

let next t =
  if t.size = 0 then None
  else
    let seq = t.seqs.(0) in
    let payload = pop t in
    Some { time = now t; seq; payload }

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let drop_if t p =
  let before = t.size in
  let kept = ref 0 in
  for i = 0 to before - 1 do
    if not (p t.payloads.(i)) then begin
      t.times.(!kept) <- t.times.(i);
      t.seqs.(!kept) <- t.seqs.(i);
      t.payloads.(!kept) <- t.payloads.(i);
      incr kept
    end
  done;
  t.size <- !kept;
  (* Release dropped payloads: vacated slots point at a survivor instead. *)
  if !kept > 0 then Array.fill t.payloads !kept (before - !kept) t.payloads.(0);
  for i = (!kept / 2) - 1 downto 0 do
    sift_down t i
  done;
  before - !kept
