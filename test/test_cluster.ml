(* Integration tests for the single-CS cluster: the lock service's
   one-shard preset (Swarm.cluster), with real service daemons over
   localhost TCP/UDP and the merged live trace checked by the same
   oracle the simulator uses. The same preset also runs on the
   deterministic Sim_swarm twin, with no sockets, where the rebuilt
   engine report is checked exactly.

   The default suite keeps to quick 3-node runs so `dune runtest` stays
   fast and robust. The full acceptance scenario — 5 sites under
   ft-delay-optimal, 20 CS rounds per site, one kill plus restart
   mid-run — is gated behind DMX_CLUSTER_FULL=1 and run by the dedicated
   CI job, which uploads the merged trace as an artifact on failure
   (written to DMX_CLUSTER_TRACE_DIR). *)

module Swarm = Dmx_service.Swarm
module Sim_swarm = Dmx_service.Sim_swarm
module Oracle = Dmx_sim.Oracle
module E = Dmx_sim.Engine

let full_enabled = Sys.getenv_opt "DMX_CLUSTER_FULL" = Some "1"

let dump_trace_on_failure name entries =
  match Sys.getenv_opt "DMX_CLUSTER_TRACE_DIR" with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".trace") in
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    List.iter
      (fun e -> Format.fprintf ppf "%a@." Dmx_sim.Trace.pp_entry e)
      entries;
    Format.pp_print_flush ppf ();
    close_out oc;
    Printf.eprintf "merged trace written to %s\n%!" path

(* Every round ends only after a Grant (release, expiry and re-homing
   all follow one), so even with kills the driver-side grant count is
   exactly n x rounds once every client is done. *)
let check_outcome name (cfg : Swarm.config) (o : Swarm.outcome) =
  let shard = o.per_shard.(0) in
  let want = cfg.n * cfg.rounds in
  let ok =
    Swarm.shard_ok shard && shard.grants = want
    && o.completed_clients = cfg.n
  in
  if not ok then begin
    dump_trace_on_failure name shard.entries;
    Format.eprintf "%a@." Swarm.pp_outcome o
  end;
  Alcotest.(check int) "occupancy violations" 0 shard.occupancy_violations;
  Alcotest.(check bool) "oracle accepts the merged trace" true
    (Oracle.ok shard.verdict);
  Alcotest.(check int) "grants = n x rounds" want shard.grants;
  Alcotest.(check int) "every client completed" cfg.n o.completed_clients

let run_preset name cfg =
  match Swarm.run cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    check_outcome name cfg o;
    o

let test_small_cluster () =
  let cfg =
    {
      (Swarm.cluster ~n:3 ~rounds:5 ~cs:0.001) with
      Swarm.protocol = "delay-optimal";
      timeout = 30.0;
    }
  in
  let o = run_preset "small-cluster" cfg in
  (* fault-free over TCP: the rebuilt report counts every round *)
  let r = Swarm.report ~protocol:cfg.protocol ~quorum:cfg.quorum ~n:3 o in
  Alcotest.(check int) "report executions" 15 r.E.executions;
  Alcotest.(check int) "report violations" 0 r.E.violations

(* a 50 ms hold stretches the 100 rounds over ~5 s, so the kill at 2 s
   and the restart at 4 s land mid-run: site 1's client re-homes, then
   moves back once the restarted daemon says hello *)
let test_full_ft_cluster () =
  if not full_enabled then Alcotest.skip ()
  else
    ignore
      (run_preset "full-ft-cluster"
         {
           (Swarm.cluster ~n:5 ~rounds:20 ~cs:0.05) with
           Swarm.protocol = "ft-delay-optimal";
           kills = [ (2.0, 1) ];
           restarts = [ (4.0, 1) ];
           timeout = 120.0;
         })

let test_small_udp_cluster () =
  ignore
    (run_preset "small-udp-cluster"
       {
         (Swarm.cluster ~n:3 ~rounds:5 ~cs:0.001) with
         Swarm.protocol = "ft-delay-optimal";
         transport = "udp";
         timeout = 30.0;
       })

(* the acceptance scenario from the chaos harness: genuine datagram loss,
   duplication and a kill+restart, with the unmodified oracle on the
   merged trace and a nonzero live retransmission count *)
let test_chaos_udp_cluster () =
  if not full_enabled then Alcotest.skip ()
  else
    let o =
      run_preset "chaos-udp-cluster"
        {
          (Swarm.cluster ~n:5 ~rounds:10 ~cs:0.001) with
          Swarm.protocol = "ft-delay-optimal";
          transport = "udp";
          chaos =
            {
              Dmx_net.Chaos.no_faults with
              Dmx_net.Chaos.loss = 0.2;
              duplication = 0.05;
            };
          seed = 7;
          kills = [ (2.0, 1) ];
          restarts = [ (4.0, 1) ];
          timeout = 180.0;
        }
    in
    let get = Dmx_obs.Snapshot.total (Swarm.merged_snapshot o) in
    Alcotest.(check bool)
      (Printf.sprintf "chaos really dropped frames (lost %d)"
         (get "chaos.lost"))
      true
      (get "chaos.lost" > 0);
    Alcotest.(check bool)
      (Printf.sprintf "reliability layer really retransmitted (retx %d)"
         (get "reliable.retransmits"))
      true
      (get "reliable.retransmits" > 0)

(* a node that cannot bind its port must fail the run quickly, by name —
   not wedge the supervisor until the global timeout *)
let test_bind_failure_names_the_node () =
  (* occupy a port, then force the cluster to assign it to site 1 *)
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close blocker)
    (fun () ->
      Unix.bind blocker (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen blocker 1;
      let taken =
        match Unix.getsockname blocker with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let free () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let p =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        Unix.close fd;
        p
      in
      let ports = [ free (); taken; free (); free () ] in
      let cfg =
        {
          (Swarm.cluster ~n:3 ~rounds:2 ~cs:0.001) with
          Swarm.protocol = "delay-optimal";
          ports = Some ports;
          hello_timeout = 5.0;
          timeout = 30.0;
        }
      in
      let t0 = Unix.gettimeofday () in
      match Swarm.run cfg with
      | Ok _ -> Alcotest.fail "cluster came up on an occupied port"
      | Error msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error names node 1: %S" msg)
          true
          (contains msg "node 1" || contains msg "node(s) 1");
        Alcotest.(check bool) "failed fast, not at the global timeout" true
          (Unix.gettimeofday () -. t0 < cfg.Swarm.timeout))

let test_bad_configs () =
  let bad cfg = match Swarm.run cfg with Ok _ -> false | Error _ -> true in
  let preset n =
    { (Swarm.cluster ~n ~rounds:20 ~cs:0.001) with Swarm.timeout = 5.0 }
  in
  Alcotest.(check bool) "n too small" true (bad (preset 1));
  Alcotest.(check bool) "restart without kill" true
    (bad { (preset 3) with Swarm.restarts = [ (1.0, 0) ] });
  Alcotest.(check bool) "kill site out of range" true
    (bad { (preset 3) with Swarm.kills = [ (1.0, 7) ] });
  Alcotest.(check bool) "unknown protocol is rejected" true
    (bad { (preset 3) with Swarm.protocol = "nope"; timeout = 10.0 })

(* The preset on the virtual-time twin: no sockets, a pure function of
   the seed. Fault-free with one client per node and one grant per
   tenure, so the shard trace is the simulator's per-site
   Request/Enter_cs/Exit_cs shape and the rebuilt report is exact. *)
let test_sim_preset protocol () =
  let n = 5 and rounds = 4 in
  let p = Swarm.cluster ~n ~rounds ~cs:0.002 in
  let cfg =
    {
      (Sim_swarm.default ~n) with
      Sim_swarm.shards = p.shards;
      clients = p.clients;
      locks = p.locks;
      rounds = p.rounds;
      think = p.think;
      hold = p.hold;
      max_batch = p.max_batch;
      protocol;
      seed = 11;
    }
  in
  match Sim_swarm.run_named cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let shard = o.per_shard.(0) in
    Alcotest.(check bool) "oracle-clean" true (Oracle.ok shard.verdict);
    Alcotest.(check int) "occupancy violations" 0 shard.occupancy_violations;
    let r = Swarm.report ~protocol ~quorum:cfg.quorum ~n o in
    Alcotest.(check int) "executions = n x rounds" (n * rounds) r.E.executions;
    Alcotest.(check int) "report violations" 0 r.E.violations;
    Array.iteri
      (fun site x ->
        Alcotest.(check int)
          (Printf.sprintf "site %d executions" site)
          rounds x)
      r.E.per_site_executions

let suite =
  [
    Alcotest.test_case "3-node delay-optimal cluster" `Slow test_small_cluster;
    Alcotest.test_case "5-node ft cluster with kill+restart (DMX_CLUSTER_FULL)"
      `Slow test_full_ft_cluster;
    Alcotest.test_case "3-node ft cluster over UDP" `Slow test_small_udp_cluster;
    Alcotest.test_case
      "5-node UDP cluster under 20% loss + kill/restart (DMX_CLUSTER_FULL)"
      `Slow test_chaos_udp_cluster;
    Alcotest.test_case "bind failure fails fast and names the node" `Slow
      test_bind_failure_names_the_node;
    Alcotest.test_case "bad configurations rejected" `Quick test_bad_configs;
    Alcotest.test_case "preset on the sim twin, delay-optimal" `Quick
      (test_sim_preset "delay-optimal");
    Alcotest.test_case "preset on the sim twin, ft-delay-optimal" `Quick
      (test_sim_preset "ft-delay-optimal");
  ]
