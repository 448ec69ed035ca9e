(* The simulator workloads: [Engine.Make (Delay_optimal).run] on one
   domain, as a saturated closed loop at n = 81 and as an open loop over a
   universe of 10^6 lazily built sites. *)

module E = Dmx_sim.Engine
module W = Dmx_sim.Workload
module Net = Dmx_sim.Network
module Q = Dmx_sim.Event_queue
module S = Dmx_sim.Stats.Summary
module B = Dmx_quorum.Builder
module Ct = Dmx_quorum.Coterie
module DO = Dmx_core.Delay_optimal
module Reg = Dmx_obs.Registry
module Snap = Dmx_obs.Snapshot

type spec = {
  n : int;
  kind : B.kind;
  lazy_sites : bool;
  workload : W.t;
  execs : int;  (** CS executions per repetition *)
}

let n81 =
  {
    n = 81;
    kind = B.Grid;
    lazy_sites = false;
    workload = W.Saturated { contenders = 81 };
    execs = 2_000;
  }

let m1 =
  {
    n = 1_000_000;
    kind = B.Tree;
    lazy_sites = true;
    workload = W.Open_loop { active = 64; rate_per_site = 0.004 };
    execs = 20_000;
  }

let delay = Net.Constant 1.0

let config spec ~seed ~execs ~obs =
  {
    (E.default ~n:spec.n) with
    E.seed;
    delay;
    cs_duration = 1.0;
    workload = spec.workload;
    max_executions = execs;
    warmup = 0;
    max_time = 1e9;
    lazy_sites = spec.lazy_sites;
    obs = Some obs;
  }

(* Site [perm.(i)] takes the image of site [i]'s quorum under a seeded
   permutation [perm]: the same coterie up to naming, but which sites
   contend at which arbiters, and so the message pattern, follows the
   seed. Constant delays and a saturated loop draw no other randomness. *)
let relabel ~seed req_sets =
  let perm = Array.init (Array.length req_sets) Fun.id in
  Dmx_sim.Rng.shuffle (Dmx_sim.Rng.create seed) perm;
  let out = Array.make (Array.length req_sets) [] in
  Array.iteri
    (fun i q -> out.(perm.(i)) <- List.sort compare (List.map (Array.get perm) q))
    req_sets;
  out

(* Quorum construction: relabeled materialized request sets for eager
   sites, a lazy assignment for lazy ones (their seed drives arrivals). *)
let pconfig spec ~seed =
  if spec.lazy_sites then
    DO.config_of_assignment (B.assignment spec.kind ~n:spec.n)
  else DO.config (relabel ~seed (B.req_sets spec.kind ~n:spec.n))

module Plain = E.Make (DO)
module Traced = E.Make (Timed.Timed (DO))

let kind_key k =
  "proto.msgs_per_op."
  ^ String.map (fun c -> if c = '+' then '_' else c) k

(* One repetition through [run]: quorum build plus [Engine.run], checked. *)
let rep_with run spec ~seed ~execs =
  let reg = Reg.create () in
  let (build_s, run_s, (r : E.report)), wall, gc =
    Out.measure (fun () ->
        let pcfg, build_s = Timed.wall (fun () -> pconfig spec ~seed) in
        let r, run_s =
          Timed.wall (fun () -> run (config spec ~seed ~execs ~obs:reg) pcfg)
        in
        (build_s, run_s, r))
  in
  let snap = Reg.snapshot reg in
  let ops = r.executions in
  let fops = Out.fi (max ops 1) in
  let events = Out.fi (Snap.get snap "engine.events") in
  let problems =
    List.filter_map Fun.id
      [
        (if r.violations > 0 then
           Some (Printf.sprintf "%d mutual exclusion violations" r.violations)
         else None);
        (if r.deadlocked then Some "deadlocked" else None);
        (if ops < execs then
           Some (Printf.sprintf "CS quota missed: %d of %d" ops execs)
         else None);
      ]
  in
  let kinds =
    List.map (fun (k, v) -> (kind_key k, Out.fi v /. fops)) r.messages_by_kind
  in
  let exact =
    [
      ("executions", Out.fi ops);
      ("violations", Out.fi r.violations);
      ("engine.events", events);
      ("messages", Out.fi r.total_messages);
      ("sync_delay_T", S.mean r.sync_delay);
      ("response_p50_T", S.percentile r.response_time 50.0);
      ("response_p99_T", S.percentile r.response_time 99.0);
      ("response_mean_T", S.mean r.response_time);
      ("pending_at_end", Out.fi r.pending_at_end);
    ]
    @ List.map (fun (k, v) -> ("messages." ^ k, Out.fi v)) r.messages_by_kind
  in
  let alloc = Out.gc_values gc ~ops in
  {
      Out.wall;
      ops;
      attempted = execs;
      failed = execs - min ops execs;
      problems;
      exact = exact @ [ List.nth alloc 0; List.nth alloc 1 ];
      values =
        [
          ("msgs_per_op", r.messages_per_cs);
          ("sync_delay_T", S.mean r.sync_delay);
          ("response_p50_T", S.percentile r.response_time 50.0);
          ("response_p99_T", S.percentile r.response_time 99.0);
          ("build_s", build_s);
          ("run_s", run_s);
          ("engine.events_per_op", events /. fops);
          ("queue.peak", Out.fi (Snap.get snap "engine.heap.peak"));
        ]
        @ alloc @ kinds;
  }

let rep spec ~seed = rep_with Plain.run spec ~seed ~execs:spec.execs
let setup spec ~seed = ignore (rep_with Plain.run spec ~seed ~execs:1)

(* ---- replays of the recorded message traffic ---- *)

(* Every recorded send through a fresh network with the same n and delay
   model. Returns seconds, transmissions, first-copy delivery times (the
   send time for self-sends), and the network's heap words per link. *)
let net_replay spec ~seed (log : Timed.Log.t) =
  let net = Net.create ~channels:Net.Sparse ~n:spec.n ~delay ~rng:(Dmx_sim.Rng.create seed) () in
  let words0 = Obj.reachable_words (Obj.repr net) in
  let at = Array.make log.len 0.0 in
  let sent = ref 0 in
  let i = ref 0 in
  let (), secs =
    Timed.wall (fun () ->
        Timed.Log.iter log (fun ~is_send ~src ~dst ~time ->
            (if is_send then
               if src = dst then at.(!i) <- time
               else begin
                 incr sent;
                 match Net.transmit net ~src ~dst ~now:time with
                 | Net.Delivered (t :: _) -> at.(!i) <- t
                 | Net.Delivered [] | Net.Lost _ -> at.(!i) <- time
               end);
            incr i))
  in
  let links = Hashtbl.create 4096 in
  Timed.Log.iter log (fun ~is_send ~src ~dst ~time:_ ->
      if is_send && src <> dst then Hashtbl.replace links (src, dst) ());
  let words = Obj.reachable_words (Obj.repr net) - words0 in
  (secs, !sent, at, Out.div (Out.fi words) (Out.fi (Hashtbl.length links)))

(* The same traffic through a fresh event queue: a schedule at each send's
   delivery time, a next at each receipt. Returns seconds and queue ops. *)
let queue_replay (log : Timed.Log.t) at =
  let q = Q.create () in
  let i = ref 0 in
  let (), secs =
    Timed.wall (fun () ->
        Timed.Log.iter log (fun ~is_send ~src:_ ~dst:_ ~time:_ ->
            if is_send then Q.schedule q ~time:(Float.max at.(!i) (Q.now q)) ()
            else ignore (Q.next q);
            incr i))
  in
  (secs, Q.pushes q + Q.pops q)

(* Lookups of the quorums of the sites the run created, on a fresh
   assignment, repeated until 20 ms have passed. *)
let lookup_ns spec ~seed sites =
  let a = (pconfig spec ~seed).DO.assignment in
  let sites = Array.of_list sites in
  let rounds = ref 0 in
  let t0 = Timed.now_ns () in
  while Timed.since_s t0 < 0.02 do
    Array.iter (fun s -> ignore (Sys.opaque_identity (Ct.quorum_of a s))) sites;
    incr rounds
  done;
  Out.div (Timed.since_s t0 *. 1e9) (Out.fi (!rounds * Array.length sites))

(* ---- the traced run ---- *)

let layers spec ~seed ~seconds ~setup_s ~(untraced : Out.rep list) =
  let traced =
    Out.repeat ~seconds ~min:1 (fun () ->
        Timed.reset ~record:true;
        let rep = rep_with Traced.run spec ~seed ~execs:spec.execs in
        (rep, Timed.(proto_s (), send_s (), send.calls)))
  in
  let log = Option.get !Timed.log in
  let sites = !Timed.inits in
  let med f = Out.median (List.map (fun (_, t) -> f t) traced) in
  let p_incl = med (fun (p, _, _) -> p) and s_send = med (fun (_, s, _) -> s) in
  let _, (_, _, sends) = List.hd traced in
  let u = List.hd untraced in
  let ops = Out.fi u.ops and events = Out.get u.exact "engine.events" in
  let build = Out.median_of untraced "build_s" in
  let nets = List.init 3 (fun _ -> net_replay spec ~seed log) in
  let net_s = Out.median (List.map (fun (s, _, _, _) -> s) nets) in
  let _, transmits, at, words_per_link = List.hd nets in
  let queues = List.init 3 (fun _ -> queue_replay log at) in
  let q_s = Out.median (List.map fst queues) and q_ops = snd (List.hd queues) in
  let per_op x n = Out.div (x *. 1e9) (Out.fi n) in
  {
    Out.traced = List.map fst traced;
    per_layer =
      [
        ( "engine.self_ns_per_event",
          Out.div ((Out.median_of untraced "run_s" -. p_incl) *. 1e9) events );
        ("engine.send_ns_per_msg", per_op s_send sends);
        ("queue.op_ns", per_op q_s q_ops);
        ("net.transmit_ns", per_op net_s transmits);
        ("net.heap_words_per_link", words_per_link);
        ("proto.self_ns_per_op", (p_incl -. s_send) *. 1e9 /. ops);
        ("quorum.build_s", build);
        ("quorum.lookup_ns", lookup_ns spec ~seed sites);
      ];
    spans =
      [
        ("quorum build", build);
        ("other set-up (one-op run less quorum build)", setup_s -. build);
        ("protocol self", p_incl -. s_send);
        ("network (replay)", net_s);
        ("event queue (replay)", q_s);
      ];
  }
