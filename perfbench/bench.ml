(* The benchmark: one workload per invocation,

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   (or --workload all). It measures set-up as the median of several runs
   of the workload cut to one operation, then repeats a fixed-size,
   seeded repetition for S seconds and reports medians. Every repetition
   is checked; repetitions of one seed must agree exactly on every count
   that is a function of the seed. With --trace 1 a separate traced run
   times each layer from outside and prints the per-layer metrics, a
   residual line, and the tracing overhead. The last line of stdout is a
   JSON object; any failed check makes the exit code 1. *)

(* Swarm re-executes this binary as the daemon image. *)
let () = Dmx_service.Snode.run_as_child_if_requested ()

type workload = {
  name : string;
  op : string;  (** what one operation is *)
  deterministic : bool;  (** repetitions of a seed repeat exactly *)
  setup_runs : int;
  setup : seed:int -> unit;  (** the workload cut to one operation *)
  rep : seed:int -> Out.rep;
  layers :
    seed:int -> seconds:float -> setup_s:float -> untraced:Out.rep list -> Out.layers;
}

let workloads =
  [
    {
      name = "sim-n81";
      op = "CS";
      deterministic = true;
      setup_runs = 9;
      setup = Sim_load.setup Sim_load.n81;
      rep = Sim_load.rep Sim_load.n81;
      layers = Sim_load.layers Sim_load.n81;
    };
    {
      name = "sim-1m";
      op = "CS";
      deterministic = true;
      setup_runs = 2;
      setup = Sim_load.setup Sim_load.m1;
      rep = Sim_load.rep Sim_load.m1;
      layers = Sim_load.layers Sim_load.m1;
    };
    {
      name = "swarm-sim";
      op = "grant";
      deterministic = true;
      setup_runs = 9;
      setup = Swarm_load.sim_setup;
      rep = Swarm_load.sim_rep;
      layers = Swarm_load.sim_layers;
    };
    {
      name = "swarm-live";
      op = "grant";
      deterministic = false;
      setup_runs = 2;
      setup = Swarm_load.live_setup;
      rep = Swarm_load.live_rep;
      layers = Swarm_load.live_layers;
    };
  ]

(* The metrics the result line carries: end-to-end with --trace 0,
   per-layer with --trace 1. Keep in step with BENCHMARK.json. Throughput
   is carried host-normalized (see [Out.reference]); raw operations per
   wall second drift with the host by more than any useful bound, and are
   printed by name only. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_ref", "op/ref");
    ("msgs_per_op", "msg/op");
    ("alloc_minor_words_per_op", "words/op");
    ("alloc_major_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
  ]

let message_kinds =
  [
    "request"; "reply"; "reply+transfer"; "release"; "transfer";
    "inquire+transfer"; "fail"; "yield"; "failure"; "hello"; "retx"; "ack";
  ]

let per_layer =
  [
    ("engine.events_per_op", "events/op");
    ("engine.self_ns_per_event", "ns/event");
    ("engine.send_ns_per_msg", "ns/msg");
    ("queue.op_ns", "ns/op");
    ("queue.peak", "events");
    ("net.transmit_ns", "ns/msg");
    ("net.heap_words_per_link", "words/link");
    ("proto.self_ns_per_op", "ns/op");
  ]
  @ List.map (fun k -> (Sim_load.kind_key k, "msg/op")) message_kinds
  @ [
      ("quorum.build_s", "s");
      ("quorum.lookup_ns", "ns/lookup");
      ("trace.entries_per_op", "entries/op");
      ("trace.record_ns_per_entry", "ns/entry");
      ("oracle.check_ns_per_entry", "ns/entry");
      ("reliable.acks_per_grant", "acks/grant");
      ("reliable.retx_per_grant", "retx/grant");
      ("lease.grants_per_tenure", "grants/tenure");
      ("lease.expiries_per_grant", "expiries/grant");
      ("service.self_ns_per_grant", "ns/grant");
      ("wire.encode_ns", "ns/msg");
      ("wire.decode_ns", "ns/msg");
      ("wire.bytes_per_msg", "bytes/msg");
      ("transport.frames_per_grant", "frames/grant");
      ("transport.bytes_per_grant", "bytes/grant");
      ("transport.connects", "count");
      ("transport.silences", "count");
      ("gc.minor_collections_per_kop", "count/kop");
      ("gc.major_collections", "count");
      ("host.reference_s", "s");
      ("layers.residual_share", "share");
      ("layers.tracing_overhead_share", "share");
    ]

(* ---- checks ---- *)

let is_alloc k = String.starts_with ~prefix:"alloc_" k

(* Keys on which [b] disagrees with the reference [a]. *)
let disagreements ?(skip = fun _ -> false) (a : Out.rep) (b : Out.rep) =
  let keys = List.sort_uniq compare (List.map fst a.exact @ List.map fst b.exact) in
  List.filter_map
    (fun k ->
      let x = Out.get a.exact k and y = Out.get b.exact k in
      if skip k || Float.equal x y then None
      else Some (Printf.sprintf "%s %.17g vs %.17g" k x y))
    keys

(* Promoted words depend on the heap a process has grown, so repetitions
   within one process agree on every exact count but the major words.
   The first repetitions of two processes with the same command line agree
   on all of them: with --trace 1 the command re-runs itself up to its
   first repetition, under [first_rep_env], and compares. *)
let first_rep_env = "PERFBENCH_FIRST_REP_ONLY"

let print_exact (r : Out.rep) =
  print_endline
    ("exact "
    ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) r.exact));
  exit 0

let child_exact () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let env = Array.append (Unix.environment ()) [| first_rep_env ^ "=1" |] in
  let pid =
    Unix.create_process_env Sys.executable_name Sys.argv env Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  String.split_on_char '\n' out
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | "exact" :: kvs ->
           Some
             (List.filter_map
                (fun kv ->
                  match String.rindex_opt kv '=' with
                  | Some i ->
                    Some
                      ( String.sub kv 0 i,
                        float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
                  | None -> None)
                kvs)
         | _ -> None)

(* ---- one workload ---- *)

let line fmt = Printf.printf (fmt ^^ "\n%!")

let run_workload w ~seed ~seconds ~trace =
  line "workload %s seed=%d seconds=%g trace=%d" w.name seed seconds
    (Bool.to_int trace);
  line "%s" (Out.host_line ());
  (* Set-up samples are taken before the repetitions and again before each
     one, so that they span the same stretch of time. Each is paired with
     the reference timing that follows it. *)
  let setup_once () =
    let c0 = Out.cpu_s () in
    let (), wall, _ = Out.measure (fun () -> w.setup ~seed) in
    (wall, Out.cpu_s () -. c0)
  in
  let initial = List.init w.setup_runs (fun _ -> setup_once ()) in
  let host0 = Out.reference_s () in
  let setups = ref (List.map (fun s -> (s, host0)) initial) in
  let seconds_u = if trace then seconds /. 2.0 else seconds in
  let samples =
    Out.repeat ~seconds:seconds_u ~min:2 (fun () ->
        let s = setup_once () in
        let before = Out.reference_s () in
        setups := (s, before) :: !setups;
        let r = w.rep ~seed in
        if Sys.getenv_opt first_rep_env <> None then print_exact r;
        (r, Out.median [ before; Out.reference_s () ]))
  in
  let setup_wall = Out.median (List.map (fun ((wall, _), _) -> wall) !setups) in
  let setup_s =
    Out.median
      (List.map (fun ((wall, cpu), host) -> Out.nominal_s ~wall ~cpu ~host) !setups)
  in
  let reps =
    List.map
      (fun ((r : Out.rep), host) ->
        let ops_per_s = Out.fi r.ops /. Float.max 1e-9 (r.wall -. setup_wall) in
        let values =
          [
            ("ops_per_s", ops_per_s);
            ("ops_per_ref", ops_per_s *. host);
            ("host.reference_s", host);
          ]
        in
        { r with values = values @ r.values })
      samples
  in
  let first = List.hd reps in
  let problems =
    List.concat_map (fun (r : Out.rep) -> r.problems) reps
    @
    if not w.deterministic then []
    else
      List.concat_map
        (fun r ->
          List.map
            (fun d -> "repetitions of one seed disagree: " ^ d)
            (disagreements ~skip:(( = ) "alloc_major_words_per_op") first r))
        (List.tl reps)
      @
      if not trace then []
      else
        match child_exact () with
        | None -> [ "the re-run up to the first repetition gave no counts" ]
        | Some exact ->
          List.map
            (fun d -> "a second process disagrees on the first repetition: " ^ d)
            (disagreements first { first with exact })
  in
  let med = Out.median_of reps in
  let ops_per_s = med "ops_per_s" in
  let attempted = List.fold_left (fun a (r : Out.rep) -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a (r : Out.rep) -> a + r.failed) 0 reps in
  (* exact, and so taken from one repetition, where the workload is
     deterministic *)
  let alloc k = if w.deterministic then Out.get first.values k else med k in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_ref", med "ops_per_ref");
      ("msgs_per_op", med "msgs_per_op");
      ("alloc_minor_words_per_op", alloc "alloc_minor_words_per_op");
      ("alloc_major_words_per_op", alloc "alloc_major_words_per_op");
      ("peak_heap_mb", Out.peak_heap_mb ());
    ]
  in
  line "repetitions: %d of %d %ss each, wall median %.4f s" (List.length reps)
    first.ops w.op
    (Out.median (List.map (fun (r : Out.rep) -> r.wall) reps));
  line "end-to-end (medians over repetitions; alloc_* from the first when exact):";
  List.iter
    (fun (name, unit) -> line "  %-26s %14.6g %s" name (List.assoc name e2e) unit)
    end_to_end;
  let rate = if w.op = "CS" then "cs_per_s" else "grants_per_s" in
  line "  %-26s %14.6g 1/s (ops per wall second, host-dependent)" rate ops_per_s;
  line "  %-26s %14.6g s (reference kernel wall, median)" "host.reference_s"
    (med "host.reference_s");
  line "  %-26s %14.6g s (set-up wall, median)" "setup_wall_s" setup_wall;
  let extra =
    if w.op = "CS" then
      [ ("sync_delay_T", "T"); ("response_p50_T", "T"); ("response_p99_T", "T") ]
    else [ ("acquire_mean_ms", "ms"); ("acquire_p99_ms", "ms") ]
  in
  List.iter (fun (k, unit) -> line "  %-26s %14.6g %s" k (med k) unit) extra;
  line "  %-26s %14.6g share" "failed_share" (Out.div (Out.fi failed) (Out.fi attempted));
  let metrics, problems =
    if not trace then (List.map (fun (k, u) -> (k, u, List.assoc k e2e)) end_to_end, problems)
    else begin
      let l = w.layers ~seed ~seconds:(seconds /. 2.0) ~setup_s:setup_wall ~untraced:reps in
      let equivalence =
        List.concat_map
          (fun r ->
            List.map
              (fun d -> "traced run differs from untraced: " ^ d)
              (disagreements ~skip:is_alloc first r))
          l.traced
      in
      let w_u = Out.median (List.map (fun (r : Out.rep) -> r.wall) reps) in
      let w_t =
        if l.traced = [] then w_u
        else Out.median (List.map (fun (r : Out.rep) -> r.wall) l.traced)
      in
      let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 l.spans in
      let residual = if l.spans = [] then 0.0 else w_u -. sum in
      let overhead = w_t -. w_u in
      let value k =
        match List.assoc_opt k l.per_layer with
        | Some v -> v
        | None -> (
          match k with
          | "layers.residual_share" -> Out.div residual w_u
          | "layers.tracing_overhead_share" -> Out.div overhead w_u
          | _ -> med k)
      in
      line "per-layer (traced run, %d repetition(s)):" (List.length l.traced);
      let metrics = List.map (fun (k, u) -> (k, u, value k)) per_layer in
      List.iter
        (fun (k, u, v) -> if v <> 0.0 then line "  %-34s %14.6g %s" k v u)
        metrics;
      if l.spans = [] then
        line
          "residual: no layer times; the daemons are other processes, so this \
           workload reports counts only"
      else
        line "residual: %s; sum %.4f s, untraced wall %.4f s, residual %.4f s \
              (%.1f%%); tracing overhead %+.4f s (%+.1f%%)"
          (String.concat ", "
             (List.map (fun (k, s) -> Printf.sprintf "%s %.4f s" k s) l.spans))
          sum w_u residual
          (100.0 *. Out.div residual w_u)
          overhead
          (100.0 *. Out.div overhead w_u);
      (metrics, problems @ equivalence)
    end
  in
  List.iter (fun p -> Printf.eprintf "%s: check failed: %s\n%!" w.name p) problems;
  (problems = [], attempted, failed, metrics)

(* ---- command line ---- *)

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload (%s|all) --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds =
    match (!seed, !seconds) with
    | Some s, Some t when t > 0.0 -> (s, t)
    | _ -> usage ()
  in
  match !workload with
  | Some "all" ->
    (* each workload in a process of its own, so none inherits another's
       heap *)
    let ok =
      List.for_all Fun.id
        (List.map
           (fun w ->
             let args = Array.copy Sys.argv in
             Array.iteri (fun i a -> if a = "all" then args.(i) <- w.name) args;
             let pid =
               Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
                 Unix.stderr
             in
             snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
           workloads)
    in
    exit (if ok then 0 else 1)
  | Some n ->
    let w =
      match List.find_opt (fun w -> w.name = n) workloads with
      | Some w -> w
      | None -> usage ()
    in
    let passed, attempted, failed, metrics =
      try run_workload w ~seed ~seconds ~trace:!trace
      with Failure e ->
        Printf.eprintf "%s: check failed: %s\n%!" w.name e;
        (false, 1, 1, [])
    in
    print_endline (Out.result_line ~correct:passed ~attempted ~failed metrics);
    exit (if passed then 0 else 1)
  | None -> usage ()
