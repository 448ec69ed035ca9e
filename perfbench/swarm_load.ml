(* The lock-service workloads: the virtual-time twin [Sim_swarm] with a
   node killed and restarted mid-run, and a live [Swarm] of [Snode]
   daemons over localhost TCP. *)

module Sw = Dmx_service.Swarm
module SS = Dmx_service.Sim_swarm
module Ft = Dmx_core.Ft_delay_optimal
module Rel = Dmx_core.Reliable
module Wire = Dmx_net.Wire
module Snap = Dmx_obs.Snapshot
module Summary = Dmx_sim.Stats.Summary

(* ---- reading an outcome ---- *)

let scalar = function
  | Snap.Counter v | Snap.Gauge v -> v
  | Snap.Histogram h -> h.count

(* Sum of every series called [name], whatever its labels. *)
let total (snap : Snap.t) name =
  List.fold_left
    (fun acc (s : Snap.series) -> if s.name = name then acc + scalar s.value else acc)
    0 snap

let kinds (snap : Snap.t) =
  List.filter_map
    (fun (s : Snap.series) ->
      if s.name = "service.messages.kind" then
        Some (List.assoc "kind" s.labels, scalar s.value)
      else None)
    snap

(* Checks and readings shared by both swarm workloads. Every acquire is
   either granted or counted as failed; a shard the oracle rejects counts
   all of its acquires as failed. *)
let rep_of ~name ~clients ~rounds (o : Sw.outcome) ~wall ~gc =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 o.per_shard in
  let acquires = sum (fun s -> s.Sw.acquires) in
  let grants = sum (fun s -> s.Sw.grants) in
  let failed =
    sum (fun s -> if Sw.shard_ok s then s.acquires - s.grants else s.acquires)
  in
  let fg = Out.fi (max grants 1) in
  let lat_count = sum (fun s -> Summary.count s.latency) in
  let lat_mean =
    Out.div
      (Array.fold_left
         (fun acc s -> acc +. (Summary.mean s.Sw.latency *. Out.fi (Summary.count s.latency)))
         0.0 o.per_shard)
      (Out.fi lat_count)
  in
  let p99 =
    Array.fold_left
      (fun acc s -> Float.max acc (Summary.percentile s.Sw.latency 99.0))
      0.0 o.per_shard
  in
  let snap = Sw.merged_snapshot o in
  let t = total snap in
  let problems =
    List.filter_map Fun.id
      ([
         (if acquires <> clients * rounds then
            Some (Printf.sprintf "%d acquires for %d rounds" acquires (clients * rounds))
          else None);
         (if o.completed_clients <> clients then
            Some (Printf.sprintf "%d of %d clients finished" o.completed_clients clients)
          else None);
       ]
      @ Array.to_list
          (Array.map
             (fun s ->
               if Sw.shard_ok s then None
               else
                 Some
                   (Format.asprintf "%s shard %d rejected: %a, %d occupancy violations"
                      name s.Sw.shard Dmx_sim.Oracle.pp_verdict s.verdict
                      s.occupancy_violations))
             o.per_shard))
  in
  let alloc = Out.gc_values gc ~ops:grants in
  let per_grant k = Out.fi (t k) /. fg in
  let kinds = kinds snap in
  {
    Out.wall;
    ops = grants;
    attempted = acquires;
    failed;
    problems;
    exact =
      [
        ("acquires", Out.fi acquires);
        ("grants", Out.fi grants);
        ("expiries", Out.fi (sum (fun s -> s.Sw.expiries)));
        ("rehomed", Out.fi o.rehomed_sessions);
        ("oracle_ok_shards", Out.fi (sum (fun s -> Bool.to_int (Sw.shard_ok s))));
        ("trace_entries", Out.fi (sum (fun s -> s.Sw.trace_entries)));
        ("acquire_mean_s", lat_mean);
        ("acquire_p99_s", p99);
        ("service.sent", Out.fi (t "service.sent"));
        ("lease.grants", Out.fi (t "lease.grants"));
        ("lease.tenures", Out.fi (t "lease.tenures"));
        ("lease.expiries", Out.fi (t "lease.expiries"));
        ("reliable.acks_sent", Out.fi (t "reliable.acks_sent"));
        ("reliable.retransmits", Out.fi (t "reliable.retransmits"));
      ]
      @ List.map (fun (k, v) -> ("messages." ^ k, Out.fi v)) kinds
      @ [ List.nth alloc 0; List.nth alloc 1 ];
    values =
      [
        ("msgs_per_op", per_grant "service.sent");
        ("acquire_mean_ms", lat_mean *. 1e3);
        ("acquire_p99_ms", p99 *. 1e3);
        ("trace.entries_per_op", Out.fi (sum (fun s -> s.Sw.trace_entries)) /. fg);
        ("reliable.acks_per_grant", per_grant "reliable.acks_sent");
        ("reliable.retx_per_grant", per_grant "reliable.retransmits");
        ( "lease.grants_per_tenure",
          Out.div (Out.fi (t "lease.grants")) (Out.fi (t "lease.tenures")) );
        ("lease.expiries_per_grant", per_grant "lease.expiries");
        ("transport.frames_per_grant", per_grant "transport.sent");
        ("transport.bytes_per_grant", per_grant "transport.bytes_sent");
        ("transport.connects", Out.fi (t "transport.connects"));
        ("transport.silences", Out.fi (t "transport.silences"));
      ]
      @ alloc
      @ List.map (fun (k, v) -> (Sim_load.kind_key k, Out.fi v /. fg)) kinds;
  }

let run_or_fail name = function
  | Ok o -> o
  | Error e -> failwith (Printf.sprintf "%s: %s" name e)

(* ---- swarm-sim ---- *)

let sim_rounds = 2

(* 5 nodes, 16 shards, 2000 saturating clients, node 1 killed at 2 s and
   restarted at 4 s of the ~9 s virtual run. *)
let sim_config ~seed ~clients ~rounds =
  {
    (SS.default ~n:5) with
    SS.shards = 16;
    clients;
    rounds;
    abandon = 0.05;
    lease = 0.5;
    seed;
    kills = [ (2.0, 1) ];
    restarts = [ (4.0, 1) ];
  }

let sim_rep_with run ~seed =
  let clients = 2000 and rounds = sim_rounds in
  let o, wall, gc =
    Out.measure (fun () -> run_or_fail "swarm-sim" (run (sim_config ~seed ~clients ~rounds)))
  in
  let r = rep_of ~name:"swarm-sim" ~clients ~rounds o ~wall ~gc in
  if o.rehomed_sessions > 0 then r
  else { r with problems = "no session re-homed after the node kill" :: r.problems }

let sim_rep ~seed = sim_rep_with SS.run_named ~seed

let sim_setup ~seed =
  ignore (run_or_fail "swarm-sim" (SS.run_named (sim_config ~seed ~clients:1 ~rounds:1)))

module TF = Timed.Timed (Ft)
module RT = SS.Run (TF)

let build = Timed.acc ()

(* [Sim_swarm.run_named]'s ft-delay-optimal configuration, rebuilt from
   public functions around the timed protocol and codec. *)
let traced_run (cfg : SS.config) =
  let reliability =
    { Rel.rto = cfg.rto; backoff = 2.0; rto_max = 16.0 *. cfg.rto; ack_delay = 0.1 *. cfg.rto }
  in
  let encode, decode =
    Timed.codec ~encode:Wire.encode_message ~decode:Wire.decode_message
  in
  RT.run cfg
    ~codec:{ RT.H.encode; decode }
    ~live_stats:(fun st ->
      match Ft.Internal.reliable (TF.inner st) with
      | Some r -> Rel.stats_alist r
      | None -> [])
    ~attach_obs:(fun st ~labels reg ->
      match Ft.Internal.reliable (TF.inner st) with
      | Some r -> Rel.attach ~labels r reg
      | None -> ())
    (fun ~shard:_ ->
      let t0 = Timed.now_ns () in
      let c =
        Ft.config_of_kind ~reliability ~trust_detector:false cfg.quorum ~n:cfg.n
          ~broadcast:false
      in
      Timed.add build t0;
      c)

(* Trace recording and the oracle, measured on a sim-n81 run of 1000 CS
   with a trace sink against the same run without one. *)
let trace_calibration ~seed =
  let spec = Sim_load.n81 and execs = 1000 in
  let pcfg = Sim_load.pconfig spec ~seed in
  let cfg () = Sim_load.config spec ~seed ~execs ~obs:(Dmx_obs.Registry.create ()) in
  let plain =
    List.init 3 (fun _ -> snd (Timed.wall (fun () -> Sim_load.Plain.run (cfg ()) pcfg)))
  in
  let traced =
    List.init 3 (fun _ ->
        let sink = Dmx_sim.Trace.create ~enabled:true ~capacity:max_int () in
        let _, w =
          Timed.wall (fun () -> Sim_load.Plain.run ~trace_sink:sink (cfg ()) pcfg)
        in
        (sink, w))
  in
  let sink = fst (List.hd traced) in
  let entries = Out.fi (Dmx_sim.Trace.length sink) in
  let oracle = Dmx_sim.Oracle.default ~n:spec.n in
  let checks =
    List.init 3 (fun _ -> Timed.wall (fun () -> Dmx_sim.Oracle.check_trace oracle sink))
  in
  let record_s = Out.median (List.map snd traced) -. Out.median plain in
  let check_s = Out.median (List.map snd checks) in
  let ok = Dmx_sim.Oracle.ok (fst (List.hd checks)) in
  (record_s *. 1e9 /. entries, check_s *. 1e9 /. entries, ok)

let sim_layers ~seed ~seconds ~setup_s ~(untraced : Out.rep list) =
  let traced =
    Out.repeat ~seconds ~min:1 (fun () ->
        Timed.reset ~record:false;
        build.ns <- 0;
        let r = sim_rep_with traced_run ~seed in
        (r, Timed.(proto_s (), send_s (), decode_s ()), build.ns))
  in
  let med f = Out.median (List.map (fun (_, t, _) -> f t) traced) in
  let p_incl = med (fun (p, _, _) -> p) in
  let s_send = med (fun (_, s, _) -> s) in
  let d = med (fun (_, _, d) -> d) in
  let w_u = Out.median (List.map (fun (r : Out.rep) -> r.wall) untraced) in
  let grants = Out.fi (List.hd untraced).ops in
  let per x n = Out.div (Out.fi x) (Out.fi n) in
  let record_ns, check_ns, oracle_ok = trace_calibration ~seed in
  if not oracle_ok then failwith "oracle rejected the sim-n81 calibration trace";
  let _, _, build_ns = List.hd traced in
  {
    Out.traced = List.map (fun (r, _, _) -> r) traced;
    per_layer =
      [
        ("proto.self_ns_per_op", (p_incl -. s_send) *. 1e9 /. grants);
        ("quorum.build_s", Out.fi build_ns *. 1e-9);
        ("trace.record_ns_per_entry", record_ns);
        ("oracle.check_ns_per_entry", check_ns);
        ("service.self_ns_per_grant", (w_u -. p_incl -. d) *. 1e9 /. grants);
        ("wire.encode_ns", Out.div (Timed.net Timed.encode ~inner:0 *. 1e9) (Out.fi Timed.encode.calls));
        ("wire.decode_ns", Out.div (Timed.decode_s () *. 1e9) (Out.fi Timed.decode.calls));
        ("wire.bytes_per_msg", per !Timed.encoded_bytes Timed.encode.calls);
      ];
    spans =
      [
        ("set-up (one-op run)", setup_s);
        ("protocol self", p_incl -. s_send);
        ("protocol send path (trace, encode, heap)", s_send);
        ("wire decode", d);
        ( "oracle (est.: trace entries x sim-n81 ns/entry)",
          Out.get (List.hd untraced).exact "trace_entries" *. check_ns *. 1e-9 );
      ];
  }

(* ---- swarm-live ---- *)

let live_rounds = 100

(* 2 daemons, 4 shards, 32 clients over 64 locks, 5 ms think, zero hold. *)
let live_config ~seed ~clients ~rounds =
  {
    (Sw.default ~n:2) with
    Sw.shards = 4;
    clients;
    locks = 64;
    think = 0.005;
    hold = 0.0;
    rounds;
    seed;
    timeout = 60.0;
  }

let live_rep ~seed =
  let clients = 32 and rounds = live_rounds in
  let o, wall, gc =
    Out.measure (fun () -> run_or_fail "swarm-live" (Sw.run (live_config ~seed ~clients ~rounds)))
  in
  rep_of ~name:"swarm-live" ~clients ~rounds o ~wall ~gc

let live_setup ~seed =
  ignore (run_or_fail "swarm-live" (Sw.run (live_config ~seed ~clients:1 ~rounds:1)))

(* The daemons are other processes: their layers are reported as the
   counts in their snapshots, which the untraced repetitions carry. *)
let live_layers ~seed:_ ~seconds:_ ~setup_s:_ ~untraced:_ =
  { Out.traced = []; per_layer = []; spans = [] }
