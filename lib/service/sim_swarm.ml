(* The deterministic twin of the live swarm driver: the same Host logic
   and the same client state machines, but on virtual time with a
   seeded RNG driving think times, abandon decisions and link
   latencies. Two runs with the same config produce the same traces,
   the same verdicts and the same percentiles — which makes the lock
   service fuzzable and every failure replayable from its seed. *)

module Trace = Dmx_sim.Trace
module Summary = Dmx_sim.Stats.Summary
module Rng = Dmx_sim.Rng
module Event_queue = Dmx_sim.Event_queue
module B = Dmx_quorum.Builder
module Wire = Dmx_net.Wire

type config = {
  n : int;
  shards : int;
  clients : int;
  locks : int;  (* 0 = one per client *)
  rounds : int;
  think : float;
  hold : float;
  lease : float;
  max_batch : int;
  abandon : float;
  protocol : string;
  quorum : B.kind;
  seed : int;
  kills : (float * int) list;
  restarts : (float * int) list;
  latency : float;  (* mean one-way link latency, seconds *)
  detect_delay : float;  (* failure-notification lag at peers *)
  rto : float;
  max_time : float;  (* virtual-time failsafe *)
}

let default ~n =
  {
    n;
    shards = 4;
    clients = 64;
    locks = 0;
    rounds = 3;
    think = 0.05;
    hold = 0.002;
    lease = 2.0;
    max_batch = 8;
    abandon = 0.0;
    protocol = "ft-delay-optimal";
    quorum = B.Tree;
    seed = 42;
    kills = [];
    restarts = [];
    latency = 0.001;
    detect_delay = 0.05;
    rto = 0.05;
    max_time = 600.0;
  }

let validate (cfg : config) =
  let shared =
    {
      (Swarm.default ~n:cfg.n) with
      Swarm.shards = cfg.shards;
      clients = cfg.clients;
      rounds = cfg.rounds;
      think = cfg.think;
      hold = cfg.hold;
      lease = cfg.lease;
      max_batch = cfg.max_batch;
      abandon = cfg.abandon;
      protocol = cfg.protocol;
      quorum = cfg.quorum;
      kills = cfg.kills;
      restarts = cfg.restarts;
    }
  in
  Result.map_error
    (fun e -> "sim-swarm: " ^ e)
    (match Swarm.validate_shared shared with
    | Ok () when cfg.latency <= 0.0 -> Error "latency must be positive"
    | r -> r)

(* client state machines, as in the live driver *)
type phase =
  | Thinking
  | Waiting of { sent_at : float; mutable last_try : float }
  | Holding of { release_at : float }
  | Draining
  | Done

type client = {
  id : int;
  lock : string;
  shard : int;
  mutable node : int;
  mutable inc : float;
  mutable opened : bool;
  mutable phase : phase;
  mutable round : int;
  mutable req : int;
}

module Run (P : Dmx_sim.Protocol.PROTOCOL) = struct
  module H = Host.Make (P)

  type ev =
    | To_node of { node : int; frame : Wire.frame }
    | To_driver of Wire.frame
    | Timer of { node : int; gen : int; shard : int; tag : int }
    | Wakeup of { client : int; what : wake }
    | Kill of int
    | Restart of int
    | Notify of { node : int; about : int; up : bool }

  and wake = Start | Retry | Release | Renew | Failsafe

  let run (cfg : config) ~(codec : H.codec) ?(live_stats = fun _ -> [])
      ?(attach_obs = fun _ ~labels:_ _ -> ())
      (pconfig : shard:int -> P.config) =
    match validate cfg with
    | Error _ as e -> e
    | Ok () ->
      let locks = if cfg.locks < 1 then cfg.clients else cfg.locks in
      let rng = Rng.create cfg.seed in
      (* ordered by (time, insertion order); virtual time is the time of
         the last popped event *)
      let queue = Event_queue.create () in
      let now () = Event_queue.now queue in
      let sched ~at ev =
        Event_queue.schedule queue ~time:(Float.max at (now ())) ev
      in
      (* per-directed-channel FIFO, like the TCP live path: a later
         frame never overtakes an earlier one. [last_delivery] holds each
         link's latest delivery time at [src * (n + 1) + dst], 0.0 until
         its first frame; the driver is channel endpoint [n]. *)
      let endpoints = cfg.n + 1 in
      let last_delivery = Array.make (endpoints * endpoints) 0.0 in
      let link ~src ~dst =
        let lat = Rng.exponential rng ~mean:cfg.latency in
        let i = (src * endpoints) + dst in
        let at = Float.max (now () +. lat) last_delivery.(i) in
        last_delivery.(i) <- at;
        at
      in
      let alive = Array.make cfg.n true in
      let gens = Array.make cfg.n 0 in
      (* newest batch first; concatenated in arrival order at the end.
         order matters beyond the final time-sort: self-send chains carry
         identical virtual timestamps, and the stable sort preserves
         whatever relative order we accumulate here *)
      let shard_batches = Array.make cfg.shards [] in
      let push_batch shard es =
        if es <> [] then shard_batches.(shard) <- es :: shard_batches.(shard)
      in
      let acquires = Array.make cfg.shards 0 in
      let grants = Array.make cfg.shards 0 in
      let expiries = Array.make cfg.shards 0 in
      let latency = Array.init cfg.shards (fun _ -> Summary.create ()) in
      let rehomed = ref 0 in
      let completed = ref 0 in
      (* the twin of the live driver's registry: same series names, same
         histogram buckets, but every observation is virtual time — so a
         seeded run's snapshot is a pure function of the config *)
      let obs = Dmx_obs.Registry.create () in
      let acq_hist =
        Array.init cfg.shards (fun shard ->
            Dmx_obs.Registry.histogram obs
              ~labels:[ ("shard", string_of_int shard) ]
              "swarm.acquire_latency")
      in
      for shard = 0 to cfg.shards - 1 do
        let labels = [ ("shard", string_of_int shard) ] in
        Dmx_obs.Registry.probe obs ~labels "swarm.acquires" (fun () ->
            acquires.(shard));
        Dmx_obs.Registry.probe obs ~labels "swarm.grants" (fun () ->
            grants.(shard));
        Dmx_obs.Registry.probe obs ~labels "swarm.expiries" (fun () ->
            expiries.(shard))
      done;
      Dmx_obs.Registry.probe obs "swarm.rehomed_sessions" (fun () -> !rehomed);
      Dmx_obs.Registry.probe obs "swarm.completed_clients" (fun () ->
          !completed);
      let node_regs = Array.init cfg.n (fun _ -> Dmx_obs.Registry.create ()) in
      let make_host node =
        let caps =
          {
            Host.now;
            send_shard =
              (fun ~shard ~dst_node payload ->
                sched ~at:(link ~src:node ~dst:dst_node)
                  (To_node
                     {
                       node = dst_node;
                       frame =
                         Wire.Sproto { shard; src = node; dst = dst_node; payload };
                     }));
            send_client =
              (fun frame ->
                sched ~at:(link ~src:node ~dst:cfg.n) (To_driver frame));
            set_timer =
              (fun ~shard ~tag ~delay ->
                sched ~at:(now () +. delay)
                  (Timer { node; gen = gens.(node); shard; tag }));
          }
        in
        let host =
          H.create ~caps ~codec ~self:node ~n:cfg.n ~shards:cfg.shards
            ~lease:
              { Dmx_core.Lease.duration = cfg.lease; max_batch = cfg.max_batch }
            ~pconfig
        in
        (* fresh registry per incarnation, like a restarted daemon *)
        let reg = Dmx_obs.Registry.create () in
        H.attach_obs ~proto:attach_obs host reg;
        node_regs.(node) <- reg;
        host
      in
      let hosts = Array.init cfg.n (fun node -> make_host node) in
      let collect_traces node =
        List.iter
          (fun (shard, es) -> push_batch shard es)
          (H.drain_traces hosts.(node))
      in
      let clients =
        Array.init cfg.clients (fun id ->
            let lock = Printf.sprintf "lock-%d" (id mod locks) in
            {
              id;
              lock;
              shard = Shard_map.shard_of_lock ~shards:cfg.shards lock;
              node = id mod cfg.n;
              inc = 1.0;
              opened = false;
              phase = Thinking;
              round = 0;
              req = 0;
            })
      in
      let think_delay () =
        if cfg.think <= 0.0 then 0.0 else Rng.exponential rng ~mean:cfg.think
      in
      let retry_interval = Float.max (4.0 *. cfg.rto) (8.0 *. cfg.latency) in
      let wake ~at c what = sched ~at (Wakeup { client = c.id; what }) in
      let to_node c frame = sched ~at:(link ~src:cfg.n ~dst:c.node) (To_node { node = c.node; frame }) in
      let send_open c =
        to_node c (Wire.Open_session { session = c.id; inc = c.inc });
        c.opened <- true
      in
      let send_acquire c =
        if not c.opened then send_open c;
        to_node c (Wire.Acquire { session = c.id; lock = c.lock; req = c.req })
      in
      let complete_round c =
        c.round <- c.round + 1;
        if c.round >= cfg.rounds then begin
          c.phase <- Done;
          incr completed
        end
        else begin
          c.phase <- Thinking;
          wake ~at:(now () +. think_delay ()) c Start
        end
      in
      let start_round c =
        if c.phase = Thinking then begin
          (* back to the home node once it has restarted, as live *)
          let home = c.id mod cfg.n in
          if c.node <> home && alive.(home) then begin
            c.node <- home;
            c.opened <- false
          end;
          c.req <- c.round + 1;
          acquires.(c.shard) <- acquires.(c.shard) + 1;
          c.phase <- Waiting { sent_at = now (); last_try = now () };
          send_acquire c;
          wake ~at:(now () +. retry_interval) c Retry
        end
      in
      let next_live node =
        let rec go k step =
          if step > cfg.n then node
          else if alive.(k) then k
          else go ((k + 1) mod cfg.n) (step + 1)
        in
        go ((node + 1) mod cfg.n) 0
      in
      let driver_frame frame =
        match frame with
        | Wire.Grant { session; req; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | Waiting { sent_at; _ } when req = c.req ->
            grants.(c.shard) <- grants.(c.shard) + 1;
            Summary.add latency.(c.shard) (now () -. sent_at);
            Dmx_obs.Metric.Histogram.observe_s acq_hist.(c.shard)
              (now () -. sent_at);
            if cfg.abandon > 0.0 && Rng.float rng 1.0 < cfg.abandon then begin
              c.phase <- Draining;
              wake ~at:(now () +. (2.0 *. cfg.lease) +. 1.0) c Failsafe
            end
            else begin
              let release_at = now () +. cfg.hold in
              c.phase <- Holding { release_at };
              wake ~at:release_at c Release;
              if cfg.hold > cfg.lease /. 2.0 then
                wake ~at:(now () +. (cfg.lease /. 2.0)) c Renew
            end
          | _ -> ())
        | Wire.Expire { session; req; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | (Holding _ | Draining) when req = c.req ->
            expiries.(c.shard) <- expiries.(c.shard) + 1;
            complete_round c
          | _ -> ())
        | Wire.Deny { session; req; reason; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | Waiting w when req = c.req && reason = "no-session" ->
            c.opened <- false;
            w.last_try <- now ();
            send_acquire c
          | _ -> ())
        | _ -> ()
      in
      let node_frame node frame =
        if alive.(node) then begin
          let host = hosts.(node) in
          (match frame with
          | Wire.Sproto { shard; src; payload; _ } ->
            H.on_sproto host ~shard ~src_node:src payload
          | Wire.Open_session { session; inc } ->
            H.open_session host ~session ~inc
          | Wire.Acquire { session; lock; req } ->
            H.acquire host ~session ~lock ~req
          | Wire.Release_lock { session; lock; req } ->
            H.release host ~session ~lock ~req
          | Wire.Renew { session; lock; req } -> H.renew host ~session ~lock ~req
          | _ -> ());
          H.tick host
        end
      in
      let kill_node site =
        if alive.(site) then begin
          collect_traces site;
          alive.(site) <- false;
          gens.(site) <- gens.(site) + 1;
          for shard = 0 to cfg.shards - 1 do
            push_batch shard
              [
                {
                  Trace.time = now ();
                  site = Shard_map.site_of_node ~shard ~n:cfg.n site;
                  kind = Trace.Crash;
                };
              ]
          done;
          for peer = 0 to cfg.n - 1 do
            if peer <> site && alive.(peer) then
              sched
                ~at:(now () +. cfg.detect_delay)
                (Notify { node = peer; about = site; up = false })
          done;
          Array.iter
            (fun c ->
              if c.node = site && c.phase <> Done then begin
                incr rehomed;
                c.node <- next_live site;
                c.opened <- false;
                c.inc <- c.inc +. 1.0;
                match c.phase with
                | Waiting w ->
                  w.last_try <- now ();
                  send_acquire c
                | Holding _ | Draining ->
                  expiries.(c.shard) <- expiries.(c.shard) + 1;
                  complete_round c
                | Thinking | Done -> ()
              end)
            clients
        end
      in
      let restart_node site =
        if not alive.(site) then begin
          alive.(site) <- true;
          hosts.(site) <- make_host site;
          H.tick hosts.(site);
          for shard = 0 to cfg.shards - 1 do
            push_batch shard
              [
                {
                  Trace.time = now ();
                  site = Shard_map.site_of_node ~shard ~n:cfg.n site;
                  kind = Trace.Recover;
                };
              ]
          done;
          for peer = 0 to cfg.n - 1 do
            if peer <> site && alive.(peer) then
              sched
                ~at:(now () +. cfg.detect_delay)
                (Notify { node = peer; about = site; up = true })
          done
        end
      in
      let wakeup cid what =
        let c = clients.(cid) in
        match (what, c.phase) with
        | Start, Thinking -> start_round c
        | Retry, Waiting wt ->
          if now () -. wt.last_try >= retry_interval -. 1e-9 then begin
            wt.last_try <- now ();
            send_acquire c
          end;
          wake ~at:(now () +. retry_interval) c Retry
        | Release, Holding _ ->
          to_node c
            (Wire.Release_lock { session = c.id; lock = c.lock; req = c.req });
          complete_round c
        | Renew, Holding { release_at } ->
          if release_at > now () then begin
            to_node c (Wire.Renew { session = c.id; lock = c.lock; req = c.req });
            wake ~at:(now () +. (cfg.lease /. 2.0)) c Renew
          end
        | Failsafe, Draining ->
          expiries.(c.shard) <- expiries.(c.shard) + 1;
          complete_round c
        | _ -> ()
      in
      (* seed the schedule *)
      Array.iter (fun c -> wake ~at:(think_delay ()) c Start) clients;
      List.iter (fun (t, site) -> sched ~at:t (Kill site)) cfg.kills;
      List.iter (fun (t, site) -> sched ~at:t (Restart site)) cfg.restarts;
      (* the deterministic main loop *)
      let stuck = ref false in
      (* as live, the run also plays out the whole kill/restart schedule *)
      let schedule_left =
        ref (List.length cfg.kills + List.length cfg.restarts)
      in
      while
        (not !stuck)
        && (!completed < cfg.clients || !schedule_left > 0)
        && now () <= cfg.max_time
      do
        if Event_queue.is_empty queue then stuck := true
        else begin
          match Event_queue.pop queue with
          | To_node { node; frame } -> node_frame node frame
          | To_driver frame -> driver_frame frame
          | Timer { node; gen; shard; tag } ->
            if alive.(node) && gens.(node) = gen then begin
              H.on_timer hosts.(node) ~shard ~tag;
              H.tick hosts.(node)
            end
          | Wakeup { client; what } -> wakeup client what
          | Kill site ->
            decr schedule_left;
            kill_node site
          | Restart site ->
            decr schedule_left;
            restart_node site
          | Notify { node; about; up } ->
            if alive.(node) then begin
              (if up then H.on_node_recovery hosts.(node) ~node:about
               else H.on_node_failure hosts.(node) ~node:about);
              H.tick hosts.(node)
            end
        end
      done;
      if !completed < cfg.clients then
        Error
          (Printf.sprintf
             "sim-swarm: %s with %d/%d clients finished at t=%.3f"
             (if !stuck then "no events left" else "virtual-time limit hit")
             !completed cfg.clients (now ()))
      else begin
        let live_stats_arr = Array.make cfg.n [] in
        let snapshots = Array.make cfg.n Dmx_obs.Snapshot.empty in
        Array.iteri
          (fun node host ->
            if alive.(node) then begin
              collect_traces node;
              live_stats_arr.(node) <-
                H.lease_stats host
                @ H.fold_states host (fun acc st -> acc @ live_stats st) [];
              snapshots.(node) <- Dmx_obs.Registry.snapshot node_regs.(node)
            end)
          hosts;
        let per_shard =
          Swarm.distil ~n:cfg.n ~crashy:(cfg.kills <> []) ~lossy:false
            ~acquires ~grants ~expiries ~latency
            ~entries:
              (Array.map (fun bs -> List.concat (List.rev bs)) shard_batches)
        in
        Ok
          {
            Swarm.per_shard;
            wall_seconds = now ();
            completed_clients = !completed;
            rehomed_sessions = !rehomed;
            live_stats = live_stats_arr;
            snapshots;
            driver_snapshot = Dmx_obs.Registry.snapshot obs;
          }
      end
end

let run_named (cfg : config) =
  match cfg.protocol with
  | "delay-optimal" ->
    let module R = Run (Dmx_core.Delay_optimal) in
    R.run cfg
      ~codec:{ R.H.encode = Wire.encode_message; decode = Wire.decode_message }
      (fun ~shard:_ ->
        Dmx_core.Delay_optimal.config (B.req_sets cfg.quorum ~n:cfg.n))
  | "ft-delay-optimal" ->
    let module R = Run (Dmx_core.Ft_delay_optimal) in
    let reliability =
      {
        Dmx_core.Reliable.rto = cfg.rto;
        backoff = 2.0;
        rto_max = 16.0 *. cfg.rto;
        ack_delay = 0.1 *. cfg.rto;
      }
    in
    R.run cfg
      ~codec:{ R.H.encode = Wire.encode_message; decode = Wire.decode_message }
      ~live_stats:(fun st ->
        match Dmx_core.Ft_delay_optimal.Internal.reliable st with
        | Some r -> Dmx_core.Reliable.stats_alist r
        | None -> [])
      ~attach_obs:(fun st ~labels reg ->
        match Dmx_core.Ft_delay_optimal.Internal.reliable st with
        | Some r -> Dmx_core.Reliable.attach ~labels r reg
        | None -> ())
      (fun ~shard:_ ->
        Dmx_core.Ft_delay_optimal.config_of_kind ~reliability
          ~trust_detector:false cfg.quorum ~n:cfg.n ~broadcast:false)
  | p -> Error (Printf.sprintf "sim-swarm: unknown protocol %S" p)
