(* Repetitions, medians, GC deltas, host facts and the result line. *)

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One measured repetition of a workload. [exact] holds the readings that
   are a function of the seed alone: every repetition of one seed must
   give the same ones. [values] holds the per-repetition metrics whose
   median is reported. *)
type rep = {
  wall : float;  (** seconds, set-up included *)
  ops : int;  (** CS executions or grants completed *)
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks *)
  exact : (string * float) list;
  values : (string * float) list;
}

(* What a traced run adds: its own repetitions (whose exact counts must
   equal the untraced ones), the per-layer metrics, and the self-time of
   each layer measured from outside, in seconds per repetition. *)
type layers = {
  traced : rep list;
  per_layer : (string * float) list;
  spans : (string * float) list;
}

type gc = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Run [f] from a collected heap and return its result, wall seconds and
   GC deltas. The minor collection after the clock stops makes the minor
   word count complete, and so exact: the words [f] allocates are a
   function of the seed. Promoted words depend on when collections fall,
   which depends on the heap the process has grown before [f]. *)
let measure f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r, w = Timed.wall f in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  ( r,
    w,
    {
      minor_words = g1.minor_words -. g0.minor_words;
      major_words = g1.major_words -. g0.major_words;
      minor_collections = g1.minor_collections - g0.minor_collections;
      major_collections = g1.major_collections - g0.major_collections;
    } )

let gc_values gc ~ops =
  let ops = fi (max ops 1) in
  [
    ("alloc_minor_words_per_op", gc.minor_words /. ops);
    ("alloc_major_words_per_op", gc.major_words /. ops);
    ("gc.minor_collections_per_kop", fi gc.minor_collections *. 1000.0 /. ops);
    ("gc.major_collections", fi gc.major_collections);
  ]

let get kvs k = Option.value ~default:0.0 (List.assoc_opt k kvs)
let median_of reps k = median (List.map (fun r -> get r.values k) reps)

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- host speed ---- *)

(* The host's speed drifts by tens of percent over seconds to minutes when
   it is shared. [reference] is a fixed piece of work kept in this
   directory, independent of the program under test: hashing, small
   allocations, and random reads over a 16 MiB array kept off the OCaml
   heap. Its wall time, taken around each repetition, is the unit in
   which host-normalized throughput is counted. *)
let ref_table =
  lazy
    (let a = Bigarray.(Array1.create int c_layout (1 lsl 21)) in
     for i = 0 to Bigarray.Array1.dim a - 1 do
       a.{i} <- i * 7
     done;
     a)

let reference () =
  let a = Lazy.force ref_table in
  let h = Hashtbl.create 4096 in
  let acc = ref 0 and x = ref 12345 in
  for i = 0 to 200_000 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace h k i;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + a.{!x land ((1 lsl 21) - 1)} + Option.value ~default:0 (Hashtbl.find_opt h ((k * 31) land 4095));
    ignore (Sys.opaque_identity (List.init 4 (fun j -> j + i)))
  done;
  ignore (Sys.opaque_identity !acc)

let reference_s () = snd (Timed.wall reference)

(* The reference's wall time on the nominal host that set-up times are
   counted on. A constant: it sets the scale only. *)
let nominal_reference_s = 0.06

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* [wall] seconds, [cpu] of them on this process's CPU, measured on a
   host that ran the reference in [host] seconds, counted on the nominal
   host: the CPU part scales with the reference, and the rest (waiting
   for children, sockets, sleeps) is kept as measured. *)
let nominal_s ~wall ~cpu ~host =
  let cpu = Float.min wall (Float.max 0.0 cpu) in
  wall -. cpu +. (cpu *. nominal_reference_s /. host)

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Timed.now_ns () in
  let rec go acc k =
    if k >= min && Timed.since_s t0 >= seconds then List.rev acc
    else go (f () :: acc) (k + 1)
  in
  go [] 0

(* ---- host facts ---- *)

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (input_line ic))
  with _ -> None

(* The commit when the checkout is a git work tree, read from .git without
   running git; "none" otherwise. *)
let commit () =
  match read_first_line ".git/HEAD" with
  | Some l when String.length l > 5 && String.sub l 0 5 = "ref: " ->
    let r = String.sub l 5 (String.length l - 5) in
    Option.value ~default:"none" (read_first_line (Filename.concat ".git" r))
  | Some l -> l
  | None -> "none"

(* Digest of the library sources, which names the code measured even when
   the checkout is not a git work tree. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
  in
  match files "lib" with
  | [] -> "none"
  | fs ->
    Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file fs)))
    |> fun h -> String.sub h 0 12

let host_line () =
  Printf.sprintf "host: nproc=%d ocaml=%s commit=%s lib-digest=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ()) (source_digest ())

(* ---- output ---- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
