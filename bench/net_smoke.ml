(* N1: networked-runtime smoke — a real multi-process cluster over
   localhost TCP, timed end to end.

   Unlike every other experiment this one leaves the simulator entirely:
   it runs the single-CS cluster preset of the lock service (one shard,
   one client per node, re-executing the current binary via the Snode
   trampoline), runs ft-delay-optimal over real sockets, and reports
   wall-clock throughput plus the oracle verdict on the merged live
   trace. Numbers are environment-dependent by nature; the point of
   benching it is a perf trajectory for the runtime itself (startup cost,
   per-CS latency on loopback), not a paper figure. *)

module Swarm = Dmx_service.Swarm
module E = Dmx_sim.Engine

let run () =
  let quick = !Scenarios.quick in
  let n = if quick then 3 else 5 in
  let rounds = if quick then 5 else 20 in
  let cfg =
    {
      (Swarm.cluster ~n ~rounds ~cs:0.001) with
      Swarm.protocol = "ft-delay-optimal";
      timeout = 120.0;
    }
  in
  match Swarm.run cfg with
  | Error e -> failwith ("cluster-smoke: " ^ e)
  | Ok o ->
    let shard = o.per_shard.(0) in
    let r = Swarm.report ~protocol:cfg.protocol ~quorum:cfg.quorum ~n o in
    let ok = Swarm.shard_ok shard in
    Printf.printf
      "cluster-smoke: n=%d rounds=%d executions=%d messages=%d \
       per-cs=%.2f wall=%.2fs cs/sec=%.1f violations=%d oracle=%s\n%!"
      n rounds r.E.executions r.E.total_messages r.E.messages_per_cs
      o.wall_seconds
      (float_of_int r.E.executions /. o.wall_seconds)
      r.E.violations
      (if Dmx_sim.Oracle.ok shard.verdict then "ok" else "REJECTED");
    if not ok then failwith "cluster-smoke: safety check failed"
