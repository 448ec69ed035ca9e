(* The sharded lock service: Shard_map properties, the Host driven
   through fake capabilities, the deterministic Sim_swarm (including
   replayability and kill/restart recovery), and — gated behind
   DMX_CLUSTER_FULL=1 like the heavy cluster scenarios — a live
   multi-process swarm with a mid-run kill and restart. *)

module SM = Dmx_service.Shard_map
module Swarm = Dmx_service.Swarm
module Sim_swarm = Dmx_service.Sim_swarm
module Wire = Dmx_net.Wire
module B = Dmx_quorum.Builder

let full_enabled = Sys.getenv_opt "DMX_CLUSTER_FULL" = Some "1"

(* ---- shard map ---- *)

let test_shard_map_ranges () =
  for i = 0 to 999 do
    let lock = Printf.sprintf "lock-%d" i in
    let s = SM.shard_of_lock ~shards:16 lock in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 16);
    Alcotest.(check int) "stable" s (SM.shard_of_lock ~shards:16 lock)
  done;
  (* the rotation is a bijection both ways for every shard *)
  let n = 7 in
  for shard = 0 to 4 do
    for site = 0 to n - 1 do
      let node = SM.node_of_site ~shard ~n site in
      Alcotest.(check int) "round-trip" site (SM.site_of_node ~shard ~n node)
    done
  done;
  (* rotation spreads site 0 (the tree root / grid hot spot) over nodes *)
  let roots = List.init 5 (fun shard -> SM.node_of_site ~shard ~n 0) in
  Alcotest.(check (list int)) "root rotates" [ 0; 1; 2; 3; 4 ] roots

let test_shard_map_spread () =
  (* FNV over a realistic namespace should not collapse onto few shards:
     with 4096 keys over 16 shards, every shard gets a decent share *)
  let counts = Array.make 16 0 in
  for i = 0 to 4095 do
    let s = SM.shard_of_lock ~shards:16 (Printf.sprintf "user/%d/profile" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      if c < 128 then
        Alcotest.failf "shard %d got only %d of 4096 keys (expected ~256)" s c)
    counts

(* ---- host, through fake capabilities ---- *)

module Host = Dmx_service.Host.Make (Dmx_core.Delay_optimal)

type fake = {
  mutable vnow : float;
  mutable client_out : Wire.frame list;  (* newest first *)
  mutable shard_out : (int * int * string) list;
  mutable timers : (float * int * int) list;  (* (at, shard, tag) *)
}

let make_host ?(n = 3) ?(shards = 2) ?(lease = 1.0) ?(max_batch = 8) ~self ()
    =
  let f = { vnow = 0.0; client_out = []; shard_out = []; timers = [] } in
  let caps =
    {
      Dmx_service.Host.now = (fun () -> f.vnow);
      send_shard =
        (fun ~shard ~dst_node payload ->
          f.shard_out <- (shard, dst_node, payload) :: f.shard_out);
      send_client = (fun fr -> f.client_out <- fr :: f.client_out);
      set_timer =
        (fun ~shard ~tag ~delay ->
          f.timers <- (f.vnow +. delay, shard, tag) :: f.timers);
    }
  in
  let host =
    Host.create ~caps
      ~codec:{ Host.encode = Wire.encode_message; decode = Wire.decode_message }
      ~self ~n ~shards
      ~lease:{ Dmx_core.Lease.duration = lease; max_batch }
      ~pconfig:(fun ~shard:_ ->
        Dmx_core.Delay_optimal.config (B.req_sets B.Star ~n))
  in
  (host, f)

(* Star quorum with rotation: shard s's arbiter (site 0) lives on node
   s. A host on node [self] can serve shard [self] entirely locally —
   which lets these tests reach a Grant without a network. *)
let local_lock host ~shard =
  let rec go i =
    if i > 10_000 then Alcotest.fail "no lock name hashed onto the shard"
    else
      let lock = Printf.sprintf "k%d" i in
      if SM.shard_of_lock ~shards:(Host.shard_count host) lock = shard then
        lock
      else go (i + 1)
  in
  go 0

(* self-arbitration needs the self-send queue drained a few times:
   request -> arbiter -> reply -> enter_cs *)
let drain_grant host =
  for _ = 1 to 4 do
    Host.tick host
  done

let test_host_grant_flow () =
  let self = 1 in
  let host, f = make_host ~self () in
  let lock = local_lock host ~shard:self in
  Host.open_session host ~session:7 ~inc:1.0;
  Host.acquire host ~session:7 ~lock ~req:1;
  drain_grant host;
  (match f.client_out with
  | [ Wire.Grant { session = 7; lock = l; req = 1; deadline } ] ->
    Alcotest.(check string) "lock echoed" lock l;
    Alcotest.(check (float 1e-9)) "deadline = now + lease" 1.0 deadline
  | other ->
    Alcotest.failf "expected exactly one Grant, got %d frame(s)"
      (List.length other));
  f.client_out <- [];
  (* release lets the next session in *)
  Host.open_session host ~session:8 ~inc:1.0;
  Host.acquire host ~session:8 ~lock ~req:1;
  Host.release host ~session:7 ~lock ~req:1;
  drain_grant host;
  (match f.client_out with
  | [ Wire.Grant { session = 8; _ } ] -> ()
  | _ -> Alcotest.fail "release should hand the lock to session 8");
  let stats = Host.lease_stats host in
  Alcotest.(check (option int))
    "two grants counted" (Some 2)
    (List.assoc_opt "lease.grants" stats)

let test_host_denies_unknown_session () =
  let host, f = make_host ~self:0 () in
  Host.acquire host ~session:9 ~lock:"x" ~req:1;
  (match f.client_out with
  | [ Wire.Deny { session = 9; reason = "no-session"; _ } ] -> ()
  | _ -> Alcotest.fail "expected Deny no-session");
  Alcotest.(check (option int))
    "deny counted" (Some 1)
    (List.assoc_opt "service.denies" (Host.lease_stats host))

let test_host_expiry_and_incarnation () =
  let self = 1 in
  let host, f = make_host ~self ~lease:1.0 () in
  let lock = local_lock host ~shard:self in
  Host.open_session host ~session:7 ~inc:1.0;
  Host.acquire host ~session:7 ~lock ~req:1;
  drain_grant host;
  f.client_out <- [];
  (* the lease timer fires past the deadline: the hold expires *)
  f.vnow <- 1.5;
  let due, rest =
    List.partition (fun (_, _, tag) -> tag = Dmx_core.Lease.timer_tag) f.timers
  in
  f.timers <- rest;
  Alcotest.(check int) "one lease timer armed" 1 (List.length due);
  List.iter (fun (_, shard, tag) -> Host.on_timer host ~shard ~tag) due;
  (match f.client_out with
  | [ Wire.Expire { session = 7; req = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected Expire for the silent holder");
  f.client_out <- [];
  (* a re-open with a larger incarnation voids what the old life held *)
  Host.acquire host ~session:7 ~lock ~req:2;
  drain_grant host;
  f.client_out <- [];
  Host.open_session host ~session:7 ~inc:2.0;
  Alcotest.(check (option int))
    "stale hold voided" (Some 1)
    (List.assoc_opt "lease.voided" (Host.lease_stats host))

(* ---- deterministic swarm ---- *)

let fingerprint (o : Swarm.outcome) =
  Format.asprintf "%a" Swarm.pp_outcome o

let test_sim_swarm_clean () =
  let cfg =
    {
      (Sim_swarm.default ~n:5) with
      Sim_swarm.clients = 40;
      shards = 4;
      rounds = 2;
      abandon = 0.25;
      lease = 0.4;
      seed = 23;
    }
  in
  match Sim_swarm.run_named cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "all shards clean" true (Swarm.ok o);
    Alcotest.(check int) "all clients finished" 40 o.Swarm.completed_clients;
    let total_expiries =
      Array.fold_left (fun a s -> a + s.Swarm.expiries) 0 o.Swarm.per_shard
    in
    Alcotest.(check bool)
      "abandons were cleaned up by expiry" true (total_expiries > 0)

let test_sim_swarm_deterministic () =
  let cfg =
    {
      (Sim_swarm.default ~n:4) with
      Sim_swarm.clients = 24;
      shards = 3;
      rounds = 2;
      abandon = 0.2;
      lease = 0.3;
      quorum = B.Majority;
      seed = 77;
    }
  in
  match (Sim_swarm.run_named cfg, Sim_swarm.run_named cfg) with
  | Ok a, Ok b ->
    Alcotest.(check string)
      "same seed, same everything" (fingerprint a) (fingerprint b);
    (match Sim_swarm.run_named { cfg with Sim_swarm.seed = 78 } with
    | Ok c ->
      Alcotest.(check bool)
        "different seed, different run" true
        (fingerprint a <> fingerprint c)
    | Error e -> Alcotest.fail e)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_sim_swarm_kill_recovery () =
  (* kill one node mid-run without restart: its leases expire, its
     sessions re-home, every shard still finishes clean *)
  let cfg =
    {
      (Sim_swarm.default ~n:5) with
      Sim_swarm.clients = 30;
      shards = 4;
      rounds = 3;
      think = 0.2;
      lease = 0.5;
      kills = [ (0.3, 2) ];
      seed = 41;
    }
  in
  match Sim_swarm.run_named cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "clean under a kill" true (Swarm.ok o);
    Alcotest.(check int) "all clients finished" 30 o.Swarm.completed_clients;
    Alcotest.(check bool)
      "sessions were re-homed" true
      (o.Swarm.rehomed_sessions > 0)

let test_swarm_validation () =
  let bad cfg what =
    match Swarm.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "expected %s to be rejected" what
  in
  let d = Swarm.default ~n:5 in
  bad { d with Swarm.n = 1 } "n=1";
  bad { d with Swarm.abandon = 1.5 } "abandon > 1";
  bad { d with Swarm.kills = [ (1.0, 9) ] } "kill out of range";
  bad
    { d with Swarm.restarts = [ (1.0, 2) ] }
    "restart without an earlier kill";
  bad
    {
      d with
      Swarm.kills = [ (0.1, 0); (0.1, 1); (0.1, 2); (0.1, 3); (0.1, 4) ];
    }
    "killing every node";
  bad { d with Swarm.protocol = "nope" } "unknown protocol";
  (match Swarm.validate d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default should validate: %s" e);
  match Sim_swarm.validate { (Sim_swarm.default ~n:5) with Sim_swarm.latency = 0.0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero latency should be rejected"

(* One validator serves both drivers: a config the shared checks reject
   comes back as [Error] from the live run (before any daemon is
   spawned) and from the simulation alike, never as an exception or a
   daemon dying at startup. *)
let test_shared_validation () =
  let rejected what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %s to be rejected" what
  in
  let live = { (Swarm.default ~n:3) with Swarm.timeout = 5.0 } in
  let sim = Sim_swarm.default ~n:3 in
  rejected "live max_batch 0" (Swarm.run { live with Swarm.max_batch = 0 });
  rejected "sim max_batch 0"
    (Sim_swarm.run_named { sim with Sim_swarm.max_batch = 0 });
  rejected "live restart without kill"
    (Swarm.run { live with Swarm.restarts = [ (1.0, 1) ] });
  rejected "sim restart without kill"
    (Sim_swarm.run_named { sim with Sim_swarm.restarts = [ (1.0, 1) ] })

(* ---- pinned twin: values recorded before the allocation-lean rewrite ---- *)

(* Crash-free, so the oracle's FIFO check compares the rendered message
   strings of every send and receive. *)
let pin_clean =
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.clients = 60;
    shards = 4;
    rounds = 3;
    lease = 0.5;
    seed = 1117;
  }

(* A node killed and restarted mid-run, with 5% of grants abandoned. *)
let pin_kill =
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.clients = 200;
    shards = 8;
    rounds = 2;
    abandon = 0.05;
    lease = 0.5;
    kills = [ (0.5, 1) ];
    restarts = [ (1.5, 1) ];
    seed = 2029;
  }

let digest_of pp xs =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  List.iter (fun x -> Format.fprintf ppf "%a@\n" pp x) xs;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Per shard: counters, latency mean and p99 bit-exact, the oracle's
   verdict and a digest of the merged trace; then the re-homed sessions
   and a digest of the fleet's merged metrics snapshot. *)
let pin_lines ?(run = Sim_swarm.run_named) cfg =
  match run cfg with
  | Error e -> [ "error: " ^ e ]
  | Ok o ->
    let module Summary = Dmx_sim.Stats.Summary in
    Array.to_list
      (Array.map
         (fun (s : Swarm.shard_outcome) ->
           Format.asprintf
             "shard %d acq=%d grants=%d exp=%d mean=%h p99=%h %a %s"
             s.shard s.acquires s.grants s.expiries (Summary.mean s.latency)
             (Summary.percentile s.latency 99.0) Dmx_sim.Oracle.pp_verdict
             s.verdict
             (digest_of Dmx_sim.Trace.pp_entry s.entries))
         o.Swarm.per_shard)
    @ [
        Printf.sprintf "rehomed=%d" o.Swarm.rehomed_sessions;
        "snapshot "
        ^ Digest.to_hex
            (Digest.string (Dmx_obs.Export.json (Swarm.merged_snapshot o)));
      ]

let pinned_clean =
  [
    "shard 0 acq=48 grants=48 exp=0 mean=0x1.6e7c3631c87b3p-7 p99=0x1.82206a3b9b945p-5 trace OK: 1712 entries, 32 CS executions, 477 messages 9c609b3cbe65e4c01877e042d806e1ab";
    "shard 1 acq=42 grants=42 exp=0 mean=0x1.c63b30f8fbe2bp-7 p99=0x1.b4e9a8541d316p-5 trace OK: 1725 entries, 32 CS executions, 481 messages af13914b65956480d32438e53e82660d";
    "shard 2 acq=42 grants=42 exp=0 mean=0x1.51e57375f8438p-7 p99=0x1.55d0fe7fbbe9cp-5 trace OK: 1521 entries, 29 CS executions, 425 messages 39d398e1b9475071b80d134f2abdbf8d";
    "shard 3 acq=48 grants=48 exp=0 mean=0x1.06481a938146ep-6 p99=0x1.cce71f88d8d32p-5 trace OK: 1857 entries, 35 CS executions, 523 messages 0a903c790072f2a6933a8f9162eb0917";
    "rehomed=0";
    "snapshot cd85222c1f80a70059ea29ee5d687ed3";
  ]

let pinned_kill =
  [
    "shard 0 acq=48 grants=48 exp=2 mean=0x1.08e54436063c4p-1 p99=0x1.805592f938369p+0 trace OK: 1142 entries, 17 CS executions, 328 messages 7cd17123fd42d2125ccf324fd034c5e2";
    "shard 1 acq=48 grants=48 exp=3 mean=0x1.2b08551d97163p-1 p99=0x1.8614205f6fe49p+0 trace OK: 1157 entries, 16 CS executions, 325 messages c3d5cd23d4cf5480e691ae9b73f41a79";
    "shard 2 acq=50 grants=50 exp=3 mean=0x1.b172e02109ba8p-1 p99=0x1.05342e9938d4dp+1 trace OK: 807 entries, 12 CS executions, 233 messages bbbda02d158681e07633f96af12a1100";
    "shard 3 acq=48 grants=48 exp=0 mean=0x1.1205db1a052c9p-5 p99=0x1.52ebb2e825b2cp-4 trace OK: 1180 entries, 19 CS executions, 339 messages 535c574f92c250b006ae3b4424672ca8";
    "shard 4 acq=54 grants=54 exp=0 mean=0x1.ff6bbe4bddf4cp-6 p99=0x1.9cf777aa2c70ap-4 trace OK: 1417 entries, 25 CS executions, 399 messages fef7eedd9a35f39b51813269e547eda8";
    "shard 5 acq=50 grants=50 exp=2 mean=0x1.f829fcbdcb4e1p-2 p99=0x1.e5b07d711bc69p+0 trace OK: 1055 entries, 15 CS executions, 305 messages 3f73727318b200cf840a3898459efd49";
    "shard 6 acq=48 grants=48 exp=3 mean=0x1.27ee13d35814ep-1 p99=0x1.3a67de4528c84p+1 trace OK: 1134 entries, 16 CS executions, 327 messages 7fea8fbe1476cf07fdd0e86e3fcb64bd";
    "shard 7 acq=54 grants=54 exp=5 mean=0x1.12f1f662f3b3ap+0 p99=0x1.87a52efea7becp+1 trace OK: 812 entries, 12 CS executions, 238 messages cc6dfb7d063bfa2dbfc9bdd1926c601d";
    "rehomed=27";
    "snapshot 7d34378d08bab949541eca6cf322b802";
  ]

let test_pinned_fingerprint () =
  Alcotest.(check (list string))
    "crash-free" pinned_clean (pin_lines pin_clean);
  Alcotest.(check (list string))
    "kill+restart" pinned_kill (pin_lines pin_kill)

(* [Sim_swarm.run_named]'s ft-delay-optimal run, but on one functor
   application shared by every caller, so state kept per application
   rather than per host would be shared across domains. *)
module Ft = Dmx_core.Ft_delay_optimal
module Shared_run = Sim_swarm.Run (Ft)

let run_shared (cfg : Sim_swarm.config) =
  let reliability =
    {
      Dmx_core.Reliable.rto = cfg.rto;
      backoff = 2.0;
      rto_max = 16.0 *. cfg.rto;
      ack_delay = 0.1 *. cfg.rto;
    }
  in
  Shared_run.run cfg
    ~codec:
      {
        Shared_run.H.encode = Wire.encode_message;
        decode = Wire.decode_message;
      }
    ~attach_obs:(fun st ~labels reg ->
      Option.iter
        (fun r -> Dmx_core.Reliable.attach ~labels r reg)
        (Ft.Internal.reliable st))
    (fun ~shard:_ ->
      Ft.config_of_kind ~reliability ~trust_detector:false cfg.quorum ~n:cfg.n
        ~broadcast:false)

(* Hosts may run on different domains, so nothing on a host's send or
   receive path may be shared between hosts: two twins running at once
   on one functor application, each on its own domain, must give exactly
   their sequential outcomes. *)
let test_parallel_domains () =
  let both first second =
    Domain.spawn (fun () ->
        let a = pin_lines ~run:run_shared first in
        let b = pin_lines ~run:run_shared second in
        (a, b))
  in
  let d1 = both pin_clean pin_kill and d2 = both pin_kill pin_clean in
  let c1, k1 = Domain.join d1 and k2, c2 = Domain.join d2 in
  List.iter
    (fun (what, expected, got) ->
      Alcotest.(check (list string)) what expected got)
    [
      ("crash-free, domain 1", pinned_clean, c1);
      ("kill+restart, domain 1", pinned_kill, k1);
      ("kill+restart, domain 2", pinned_kill, k2);
      ("crash-free, domain 2", pinned_clean, c2);
    ]

(* The reference: FNV-1a over boxed [Int64], folded as [Shard_map.hash]
   folds it. *)
let reference_hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let test_hash_reference () =
  let same s =
    Alcotest.(check int)
      (Printf.sprintf "hash %S" s)
      (reference_hash s) (SM.hash s)
  in
  (* the published 64-bit FNV-1a vectors, folded *)
  List.iter
    (fun (s, v) ->
      Alcotest.(check int) (Printf.sprintf "vector %S" s)
        (Int64.to_int v land max_int) (reference_hash s);
      same s)
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ];
  for i = 0 to 9_999 do
    same (Printf.sprintf "lock-%d" i);
    same (Printf.sprintf "user/%d/profile" i)
  done;
  let rng = Random.State.make [| 1913 |] in
  (* bytes >= 0x80 too, which a signed byte read would get wrong *)
  for _ = 1 to 2_000 do
    let len = Random.State.int rng 40 in
    same (String.init len (fun _ -> Char.chr (Random.State.int rng 256)));
    same
      (String.init len (fun _ -> Char.chr (0x80 + Random.State.int rng 0x80)))
  done;
  same (String.make 64 '\xff')

(* ---- exact counts and an allocation ceiling for the twin ---- *)

(* The perfbench swarm-sim shape at another seed: 2,000 saturating
   clients on 16 shards, a node killed at 2 s and restarted at 4 s. The
   counts were recorded before the allocation-lean rewrite, which left
   them unchanged. That rewrite took the minor words from about 6,350 to
   3,820 per grant on OCaml 5.1. Hashing lock names through boxed
   [Int64] again costs about 1,030 words per grant, and a fresh
   formatter per rendered message about 830, so either fails the 4,400
   ceiling. *)
let alloc_cfg =
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.clients = 2000;
    shards = 16;
    rounds = 2;
    abandon = 0.05;
    lease = 0.5;
    kills = [ (2.0, 1) ];
    restarts = [ (4.0, 1) ];
    seed = 3301;
  }

let test_exact_counts_alloc () =
  let w0 = Gc.minor_words () in
  let o =
    match Sim_swarm.run_named alloc_cfg with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let words = Gc.minor_words () -. w0 in
  let grants =
    Array.fold_left (fun a s -> a + s.Swarm.grants) 0 o.Swarm.per_shard
  in
  let snap = Swarm.merged_snapshot o in
  let kinds =
    List.filter_map
      (fun (s : Dmx_obs.Snapshot.series) ->
        match s.value with
        | Counter v when s.name = "service.messages.kind" ->
          Some (List.assoc "kind" s.labels, v)
        | _ -> None)
      snap
  in
  let per_grant = words /. float_of_int grants in
  Alcotest.(check bool) "clean" true (Swarm.ok o);
  Alcotest.(check int) "grants" 4000 grants;
  Alcotest.(check int)
    "messages" 8976
    (Dmx_obs.Snapshot.total snap "service.sent");
  Alcotest.(check (list (pair string int)))
    "messages by kind"
    [
      ("ack", 3358);
      ("fail", 853);
      ("inquire+transfer", 112);
      ("release", 1048);
      ("reply", 1175);
      ("reply+transfer", 111);
      ("request", 1046);
      ("transfer", 929);
      ("yield", 24);
    ]
    kinds;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per grant %.0f under 4400" per_grant)
    true (per_grant < 4400.0)

(* ---- live swarm (gated, like the heavy cluster scenarios) ---- *)

let test_live_swarm_kill_restart () =
  if not full_enabled then Alcotest.skip ()
  else
    let cfg =
      {
        (Swarm.default ~n:5) with
        Swarm.clients = 60;
        shards = 4;
        rounds = 3;
        think = 0.3;
        lease = 1.0;
        kills = [ (1.0, 1) ];
        restarts = [ (3.0, 1) ];
        timeout = 90.0;
        seed = 5;
      }
    in
    match Swarm.run cfg with
    | Error e -> Alcotest.fail e
    | Ok o ->
      if not (Swarm.ok o) then
        Alcotest.failf "live swarm not clean:@.%a" Swarm.pp_outcome o;
      Alcotest.(check int)
        "all clients finished" 60 o.Swarm.completed_clients;
      Alcotest.(check bool)
        "kill re-homed sessions" true
        (o.Swarm.rehomed_sessions > 0)

let suite =
  [
    Alcotest.test_case "shard map ranges and rotation" `Quick
      test_shard_map_ranges;
    Alcotest.test_case "shard map spread" `Quick test_shard_map_spread;
    Alcotest.test_case "host grant flow" `Quick test_host_grant_flow;
    Alcotest.test_case "host denies unknown session" `Quick
      test_host_denies_unknown_session;
    Alcotest.test_case "host expiry + incarnation voiding" `Quick
      test_host_expiry_and_incarnation;
    Alcotest.test_case "sim swarm clean with abandons" `Quick
      test_sim_swarm_clean;
    Alcotest.test_case "sim swarm deterministic" `Quick
      test_sim_swarm_deterministic;
    Alcotest.test_case "sim swarm kill recovery" `Quick
      test_sim_swarm_kill_recovery;
    Alcotest.test_case "config validation" `Quick test_swarm_validation;
    Alcotest.test_case "shared validation, both drivers" `Quick
      test_shared_validation;
    Alcotest.test_case "pinned sim-swarm fingerprint" `Quick
      test_pinned_fingerprint;
    Alcotest.test_case "sim-swarm on two domains" `Quick test_parallel_domains;
    Alcotest.test_case "shard map hash matches the Int64 reference" `Quick
      test_hash_reference;
    Alcotest.test_case "exact counts and allocation ceiling, sim-swarm" `Quick
      test_exact_counts_alloc;
    Alcotest.test_case "live swarm kill+restart (DMX_CLUSTER_FULL)" `Slow
      test_live_swarm_kill_restart;
  ]
