module Ts = Dmx_sim.Timestamp

(* A sorted array: [entries.(0 .. len-1)] in ascending timestamp order
   (highest priority first). The representation is canonical, because the
   model checker compares protocol states with polymorphic equality: every
   slot past [len] holds [Ts.infinity], and the capacity is a function of
   [len] alone, so equal contents mean equal values whatever the history. *)
type t = { mutable entries : Ts.t array; mutable len : int }

let min_capacity = 8

let capacity len =
  let rec up c = if c >= len then c else up (2 * c) in
  up min_capacity

let create () = { entries = Array.make min_capacity Ts.infinity; len = 0 }
let copy t = { entries = Array.copy t.entries; len = t.len }
let is_empty t = t.len = 0
let length t = t.len

(* Re-size to the canonical capacity for the current length; an entry
   being inserted may not have a slot yet. *)
let fit t =
  let cap = capacity t.len in
  if cap <> Array.length t.entries then begin
    let a = Array.make cap Ts.infinity in
    Array.blit t.entries 0 a 0 (min t.len (Array.length t.entries));
    t.entries <- a
  end

(* Remove the entry at [i], keeping the capacity. *)
let delete t i =
  let e = t.entries in
  Array.blit e (i + 1) e i (t.len - i - 1);
  t.len <- t.len - 1;
  e.(t.len) <- Ts.infinity

let remove_at t i =
  delete t i;
  fit t

let index_of_site t site =
  let e = t.entries in
  let i = ref 0 in
  while !i < t.len && e.(!i).Ts.site <> site do
    incr i
  done;
  if !i < t.len then !i else -1

let insert t (ts : Ts.t) =
  (* One entry per site, keeping the one with the larger sequence number: a
     site's re-issued request supersedes its old one, and a stale re-enqueue
     of an old request (e.g. an out-of-order yield resolving after the site
     already re-requested) must never clobber the newer entry. *)
  let old = index_of_site t ts.site in
  if old < 0 || t.entries.(old).sn < ts.sn then begin
    if old >= 0 then delete t old;
    t.len <- t.len + 1;
    fit t;
    let e = t.entries in
    let i = ref (t.len - 1) in
    while !i > 0 && Ts.compare ts e.(!i - 1) < 0 do
      e.(!i) <- e.(!i - 1);
      decr i
    done;
    e.(!i) <- ts
  end

let head t = if t.len = 0 then None else Some t.entries.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let h = t.entries.(0) in
    remove_at t 0;
    Some h
  end

let remove_site t site =
  let i = index_of_site t site in
  if i >= 0 then remove_at t i;
  i >= 0

let remove_ts t ts =
  let i = index_of_site t ts.Ts.site in
  if i >= 0 && Ts.equal t.entries.(i) ts then begin
    remove_at t i;
    true
  end
  else false

let mem_site t site = index_of_site t site >= 0

let find_site t site =
  let i = index_of_site t site in
  if i >= 0 then Some t.entries.(i) else None

let to_list t = Array.to_list (Array.sub t.entries 0 t.len)

let clear t =
  t.entries <- Array.make min_capacity Ts.infinity;
  t.len <- 0
