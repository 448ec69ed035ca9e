type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Shifted_exponential of { base : float; extra_mean : float }

let mean_delay = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean
  | Shifted_exponential { base; extra_mean } -> base +. extra_mean

let pp_delay_model ppf = function
  | Constant d -> Format.fprintf ppf "constant(%g)" d
  | Uniform { lo; hi } -> Format.fprintf ppf "uniform(%g,%g)" lo hi
  | Exponential { mean } -> Format.fprintf ppf "exponential(mean=%g)" mean
  | Shifted_exponential { base; extra_mean } ->
    Format.fprintf ppf "shifted-exp(base=%g,extra=%g)" base extra_mean

type partition = { from_t : float; until : float; groups : int list list }

type fault_plan = {
  loss : float;
  duplication : float;
  partitions : partition list;
  delay_spikes : (float * float * float) list;
}

let no_faults =
  { loss = 0.0; duplication = 0.0; partitions = []; delay_spikes = [] }

type drop_reason = [ `Down | `Partitioned | `Faulty ]
type verdict = Delivered of float list | Lost of drop_reason

type channel_repr = Sparse

(* FIFO watermarks per directed channel: an open-addressing table from
   [src * n + dst] to the latest delivery time handed out on that channel.
   Keys live in an [int array] (-1 marks an empty slot) and values in a
   flat [float array], with linear probing over a power-of-two capacity.
   A missing key reads as 0.0, so a reset writes 0.0 in place and the
   table never needs tombstones. Memory follows the touched links, not
   N^2. *)
type t = {
  n : int;
  delay : delay_model;
  rng : Rng.t;
  faults : fault_plan;
  (* Dedicated generator for fault draws so enabling faults does not
     perturb the delay-sampling stream of fault-free components. *)
  fault_rng : Rng.t;
  (* Each partition with its group index per site; sites not listed in
     any group share the implicit "rest" group. *)
  parts : (partition * int array) list;
  up : Bytes.t;  (* one byte per site: '\001' up, '\000' crashed *)
  mutable keys : int array;
  mutable marks : float array;
  mutable used : int;  (* occupied slots *)
  mutable drop : drop_reason;  (* why the last lost message was lost *)
}

let validate_faults ~n f =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if not (f.loss >= 0.0 && f.loss < 1.0) then
    bad "Network.create: loss %g not in [0,1)" f.loss;
  if not (f.duplication >= 0.0 && f.duplication < 1.0) then
    bad "Network.create: duplication %g not in [0,1)" f.duplication;
  List.iter
    (fun p ->
      if not (p.from_t >= 0.0 && p.from_t < p.until) then
        bad "Network.create: partition window [%g,%g) is empty" p.from_t
          p.until;
      let seen = Array.make n false in
      List.iter
        (List.iter (fun s ->
             if s < 0 || s >= n then
               bad "Network.create: partition site %d out of range" s;
             if seen.(s) then
               bad "Network.create: partition groups overlap at site %d" s;
             seen.(s) <- true))
        p.groups)
    f.partitions;
  List.iter
    (fun (from_t, until, factor) ->
      if not (from_t >= 0.0 && from_t < until) then
        bad "Network.create: delay spike window [%g,%g) is empty" from_t until;
      if not (factor > 0.0) then
        bad "Network.create: delay spike factor %g must be positive" factor)
    f.delay_spikes

let create ?channels:(_ : channel_repr option) ?(faults = no_faults)
    ?fault_rng ~n ~delay ~rng () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  validate_faults ~n faults;
  let fault_rng =
    match fault_rng with Some r -> r | None -> Rng.create 0x5eed_fa17
  in
  let parts =
    List.map
      (fun p ->
        (* Unlisted sites fall into one implicit rest-group (index 0). *)
        let g = Array.make n 0 in
        List.iteri (fun i sites -> List.iter (fun s -> g.(s) <- i + 1) sites)
          p.groups;
        (p, g))
      faults.partitions
  in
  {
    n;
    delay;
    rng;
    faults;
    fault_rng;
    parts;
    up = Bytes.make n '\001';
    keys = Array.make 64 (-1);
    marks = Array.make 64 0.0;
    used = 0;
    drop = `Down;
  }

let n t = t.n
let fault_plan t = t.faults

let sample t =
  match t.delay with
  | Constant d -> d
  | Uniform { lo; hi } -> Rng.uniform t.rng ~lo ~hi
  | Exponential { mean } -> Rng.exponential t.rng ~mean
  | Shifted_exponential { base; extra_mean } ->
    base +. Rng.exponential t.rng ~mean:extra_mean

let check_site t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: site %d out of range" name i)

(* Every caller has range-checked [i]. *)
let up t i = Bytes.unsafe_get t.up i <> '\000'

(* Top-level recursions rather than closures or folds, so the per-send
   checks allocate nothing when there is nothing to check. *)
let rec partitioned parts ~src ~dst ~now =
  match parts with
  | [] -> false
  | (p, g) :: rest ->
    (now >= p.from_t && now < p.until && g.(src) <> g.(dst))
    || partitioned rest ~src ~dst ~now

(* Spikes active now compound, in plan order. *)
let rec spike_factor acc spikes ~now =
  match spikes with
  | [] -> acc
  | (from_t, until, factor) :: rest ->
    spike_factor
      (if now >= from_t && now < until then acc *. factor else acc)
      rest ~now

let partition_edges t =
  List.concat_map
    (fun p ->
      (p.from_t, false)
      :: (if Float.is_finite p.until then [ (p.until, true) ] else []))
    t.faults.partitions

(* Slot of [key]: where it is stored, or the empty slot ending its probe
   sequence. *)
let rec probe keys mask key i =
  let k = keys.(i) in
  if k = key || k < 0 then i else probe keys mask key ((i + 1) land mask)

let slot keys key =
  let mask = Array.length keys - 1 in
  let h = key * 0x2545F4914F6CDD1D in
  probe keys mask key ((h lxor (h lsr 29)) land mask)

(* Keep the load at most 2/3, so there is always room for one more key. *)
let reserve t =
  if 3 * (t.used + 1) > 2 * Array.length t.keys then begin
    let keys = t.keys and marks = t.marks in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.marks <- Array.make cap 0.0;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t.keys k in
          t.keys.(j) <- k;
          t.marks.(j) <- marks.(i)
        end)
      keys
  end

let transmit_into t ~src ~dst ~now times =
  check_site t src "transmit";
  check_site t dst "transmit";
  if not (up t src && up t dst) then begin
    t.drop <- `Down;
    0
  end
  else if partitioned t.parts ~src ~dst ~now then begin
    t.drop <- `Partitioned;
    0
  end
  else if t.faults.loss > 0.0 && Rng.float t.fault_rng 1.0 < t.faults.loss
  then begin
    t.drop <- `Faulty;
    0
  end
  else begin
    let factor = spike_factor 1.0 t.faults.delay_spikes ~now in
    reserve t;
    let key = (src * t.n) + dst in
    let i = slot t.keys key in
    if t.keys.(i) < 0 then begin
      t.keys.(i) <- key;
      t.used <- t.used + 1
    end;
    (* Successive copies on one channel never overtake each other. *)
    let marks = t.marks in
    let at = now +. (sample t *. factor) in
    let at = if marks.(i) > at then marks.(i) else at in
    marks.(i) <- at;
    times.(0) <- at;
    if
      t.faults.duplication > 0.0
      && Rng.float t.fault_rng 1.0 < t.faults.duplication
    then begin
      let at = now +. (sample t *. factor) in
      let at = if marks.(i) > at then marks.(i) else at in
      marks.(i) <- at;
      times.(1) <- at;
      2
    end
    else 1
  end

let last_drop t = t.drop

let transmit t ~src ~dst ~now =
  let times = Array.make 2 0.0 in
  match transmit_into t ~src ~dst ~now times with
  | 0 -> Lost t.drop
  | 1 -> Delivered [ times.(0) ]
  | _ -> Delivered [ times.(0); times.(1) ]

let delivery_time t ~src ~dst ~now =
  match transmit t ~src ~dst ~now with
  | Delivered (at :: _) -> Some at
  | Delivered [] -> None
  | Lost _ -> None

let crash t i =
  check_site t i "crash";
  Bytes.set t.up i '\000'

let recover t i =
  check_site t i "recover";
  Bytes.set t.up i '\001';
  (* Channels restart empty: reset FIFO watermarks touching this site. *)
  Array.iteri
    (fun j k ->
      if k >= 0 && (k / t.n = i || k mod t.n = i) then t.marks.(j) <- 0.0)
    t.keys

let is_up t i =
  check_site t i "is_up";
  up t i

let up_sites t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (if up t i then i :: acc else acc) in
  loop (t.n - 1) []
