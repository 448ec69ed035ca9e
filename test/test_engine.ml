(* The simulation engine itself, exercised through a deliberately trivial
   (and a deliberately broken) protocol. *)

module E = Dmx_sim.Engine
module Proto = Dmx_sim.Protocol
module W = Dmx_sim.Workload

(* A correct centralized protocol: site 0 grants one permit at a time. *)
module Central = struct
  type config = unit
  type message = Req | Grant | Rel

  type state = {
    self : int;
    mutable busy : bool;  (* coordinator side *)
    mutable queue : int list;
    mutable failures_seen : int list;
  }

  let name = "central"
  let describe () = ""
  let message_kind = function Req -> "req" | Grant -> "grant" | Rel -> "rel"
  let pp_message ppf m = Format.pp_print_string ppf (message_kind m)

  let init (ctx : message Proto.ctx) () =
    { self = ctx.self; busy = false; queue = []; failures_seen = [] }

  let grant (ctx : message Proto.ctx) st dst =
    st.busy <- true;
    if dst = ctx.self then ctx.enter_cs () else ctx.send ~dst Grant

  let request_cs (ctx : message Proto.ctx) st =
    if ctx.self = 0 then begin
      if st.busy then st.queue <- st.queue @ [ 0 ] else grant ctx st 0
    end
    else ctx.send ~dst:0 Req

  let release_cs (ctx : message Proto.ctx) st =
    if ctx.self = 0 then begin
      st.busy <- false;
      match st.queue with
      | next :: rest ->
        st.queue <- rest;
        grant ctx st next
      | [] -> ()
    end
    else ctx.send ~dst:0 Rel

  let on_message (ctx : message Proto.ctx) st ~src = function
    | Req -> if st.busy then st.queue <- st.queue @ [ src ] else grant ctx st src
    | Grant -> ctx.enter_cs ()
    | Rel -> (
      st.busy <- false;
      match st.queue with
      | next :: rest ->
        st.queue <- rest;
        grant ctx st next
      | [] -> ())

  let on_timer _ _ _ = ()
  let on_failure _ st site = st.failures_seen <- site :: st.failures_seen
  let on_recovery _ _ _ = ()
end

(* A broken protocol: everyone enters immediately. The engine must detect
   the mutual exclusion violations rather than crash. *)
module Anarchy = struct
  type config = unit
  type message = unit
  type state = unit

  let name = "anarchy"
  let describe () = ""
  let message_kind () = "none"
  let pp_message ppf () = Format.pp_print_string ppf "()"
  let init _ () = ()
  let request_cs (ctx : message Proto.ctx) () = ctx.enter_cs ()
  let release_cs _ () = ()
  let on_message _ () ~src:_ () = ()
  let on_timer _ () _ = ()
  let on_failure _ () _ = ()
  let on_recovery _ () _ = ()
end

module EngC = E.Make (Central)
module EngA = E.Make (Anarchy)

let test_central_runs_clean () =
  let r = EngC.run { (E.default ~n:5) with max_executions = 100; warmup = 10 } () in
  Alcotest.(check int) "violations" 0 r.E.violations;
  Alcotest.(check int) "executions" 100 r.E.executions;
  Alcotest.(check bool) "no deadlock" false r.E.deadlocked

let test_violation_detection () =
  let n = 4 in
  let r =
    EngA.run
      {
        (E.default ~n) with
        workload = W.Burst { requesters = [ 0; 1; 2; 3 ]; at = 0.0 };
        max_executions = 10;
        warmup = 0;
        cs_duration = 5.0;
      }
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "violations detected (%d)" r.E.violations)
    true (r.E.violations > 0)

let test_throughput_accounting () =
  (* central coordinator, everything at site 0, zero-delay self messages:
     with one contender the cycle is exactly E. *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 100;
        warmup = 10;
        cs_duration = 2.0;
      }
      ()
  in
  Alcotest.(check (float 0.01)) "throughput = 1/E" 0.5 r.E.throughput

let test_response_time_accounting () =
  (* remote single contender (site 1): request 1T + grant 1T, then CS. *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1 ]; at = 0.0 };
        max_executions = 2;
        warmup = 0;
        cs_duration = 1.0;
      }
      ()
  in
  Alcotest.(check int) "one execution" 1 r.E.executions;
  Alcotest.(check (float 1e-9)) "response = 2T" 2.0
    (Dmx_sim.Stats.Summary.mean r.E.response_time)

let test_message_counting_excludes_self () =
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        (* only site 0 contends: all its traffic is self-delivered *)
        max_executions = 20;
        warmup = 0;
      }
      ()
  in
  Alcotest.(check int) "no network messages" 0 r.E.total_messages

let test_messages_by_kind () =
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1; 2 ]; at = 0.0 };
        max_executions = 3;
        warmup = 0;
      }
      ()
  in
  (* two requests, two grants, two releases -- the final release may be
     outstanding when the run stops, so allow 1 or 2 *)
  Alcotest.(check int) "req" 2 (List.assoc "req" r.E.messages_by_kind);
  Alcotest.(check int) "grant" 2 (List.assoc "grant" r.E.messages_by_kind)

let test_warmup_excluded () =
  let run warmup =
    EngC.run
      { (E.default ~n:4) with max_executions = 50; warmup; cs_duration = 1.0 }
      ()
  in
  let r0 = run 0 and r10 = run 10 in
  Alcotest.(check int) "quota independent of warmup" r0.E.executions
    r10.E.executions;
  (* steady-state rate: both windows cover 50 executions, so the per-CS
     rate must agree closely even though the windows differ *)
  Alcotest.(check bool)
    (Printf.sprintf "per-CS rate stable (%.2f vs %.2f)" r0.E.messages_per_cs
       r10.E.messages_per_cs)
    true
    (abs_float (r0.E.messages_per_cs -. r10.E.messages_per_cs) < 1.0);
  (* the warmed run ends later on the simulated clock *)
  Alcotest.(check bool) "warmup extends sim time" true
    (r10.E.sim_time > r0.E.sim_time)

let test_crash_notifies_survivors () =
  let seen = ref [] in
  let _ =
    EngC.run
      ~inspect:(fun site st ->
        if st.Central.failures_seen <> [] then
          seen := (site, st.Central.failures_seen) :: !seen)
      {
        (E.default ~n:4) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 20;
        warmup = 0;
        crashes = [ (3.0, 3) ];
        detector = E.Oracle 2.0;
      }
      ()
  in
  (* sites 0,1,2 each learn site 3 died *)
  Alcotest.(check int) "three observers" 3 (List.length !seen);
  List.iter
    (fun (_, fs) -> Alcotest.(check (list int)) "saw site 3" [ 3 ] fs)
    !seen

let test_crashed_site_stops_participating () =
  (* crash the coordinator: remaining requests can never be served; the
     engine reports pending work rather than hanging (max_time bounds). *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1; 2 ]; at = 5.0 };
        max_executions = 5;
        warmup = 0;
        crashes = [ (1.0, 0) ];
        max_time = 100.0;
      }
      ()
  in
  Alcotest.(check int) "nothing executed" 0 r.E.executions;
  Alcotest.(check int) "both pending" 2 r.E.pending_at_end

let test_sync_delay_requires_waiter () =
  (* single contender: handoffs are never contended, so no sync samples *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 30;
        warmup = 5;
      }
      ()
  in
  Alcotest.(check int) "no contended handoffs" 0
    (Dmx_sim.Stats.Summary.count r.E.sync_delay)

let test_trace_consistency () =
  (* structural sanity of the recorded trace: alternating enter/exit per
     the global CS, every receive preceded by a matching send count, times
     non-decreasing *)
  let module Trace = Dmx_sim.Trace in
  let trace = Trace.create ~enabled:true () in
  let _ =
    EngC.run ~trace_sink:trace
      { (E.default ~n:5) with max_executions = 40; warmup = 0 }
      ()
  in
  let entries = Trace.entries trace in
  let last_time = ref 0.0 in
  let in_cs = ref false in
  let sends = ref 0 and recvs = ref 0 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "time monotone" true (e.Trace.time >= !last_time);
      last_time := e.Trace.time;
      match e.Trace.kind with
      | Trace.Enter_cs ->
        Alcotest.(check bool) "no nested CS" false !in_cs;
        in_cs := true
      | Trace.Exit_cs ->
        Alcotest.(check bool) "exit only from CS" true !in_cs;
        in_cs := false
      | Trace.Send _ -> incr sends
      | Trace.Receive _ -> incr recvs
      | _ -> ())
    entries;
  Alcotest.(check bool) "sends cover receives" true (!recvs <= !sends);
  Alcotest.(check bool) "messages flowed" true (!recvs > 0)

let test_poisson_rate_accuracy () =
  (* open-loop arrivals: over a long window the execution rate equals the
     offered rate when the system is far from saturation *)
  let rate = 0.01 in
  let n = 4 in
  let r =
    EngC.run
      {
        (E.default ~n) with
        workload = W.Poisson { rate_per_site = rate };
        max_executions = 400;
        warmup = 20;
        cs_duration = 0.1;
        max_time = 1.0e9;
      }
      ()
  in
  let offered = rate *. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.4f ~ offered %.4f" r.E.throughput offered)
    true
    (abs_float (r.E.throughput -. offered) /. offered < 0.15)

let test_bad_config_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (EngC.run cfg ());
           false
         with Invalid_argument _ -> true))
    [
      { (E.default ~n:0) with n = 0 };
      { (E.default ~n:3) with max_executions = 0 };
      { (E.default ~n:3) with warmup = -1 };
      { (E.default ~n:3) with crashes = [ (1.0, 99) ] };
    ]

let test_channel_fingerprint () =
  (* Every run below is pinned to a digest of its full trace (times in hex,
     so a last-ulp drift in any delivery time shows) plus the report's
     aggregates. The digests were recorded with the engine's original
     channel, queue and arbiter-queue representations, so they check that
     a change of representation keeps every RNG draw, delivery time and
     event order. Random per-message delays make the FIFO watermarks
     matter; the faulty plan adds loss, duplication, a delay spike and a
     crash/recover pair, which drives [Network.recover]. *)
  let module Trace = Dmx_sim.Trace in
  let module R = Dmx_baselines.Runner in
  let module Net = Dmx_sim.Network in
  let n = 9 in
  let base =
    {
      (E.default ~n) with
      max_executions = 40;
      warmup = 5;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
    }
  in
  let faults =
    {
      Net.no_faults with
      Net.loss = 0.1;
      duplication = 0.05;
      delay_spikes = [ (5.0, 15.0, 3.0) ];
    }
  in
  let faulty =
    { base with E.faults; crashes = [ (20.0, 2) ]; recoveries = [ (45.0, 2) ] }
  in
  let digest cfg (r : R.t) =
    let sink = Trace.create ~enabled:true () in
    let rep = r.R.run_traced ~trace_sink:sink cfg in
    let entries = Trace.entries sink in
    let b = Buffer.create 65536 in
    List.iter
      (fun (e : Trace.entry) ->
        Buffer.add_string b
          (Format.asprintf "%h|%d|%a\n" e.Trace.time e.Trace.site
             Trace.pp_entry e))
      entries;
    Buffer.add_string b
      (Printf.sprintf "msgs=%d execs=%d time=%h tput=%h viol=%d sites=%s"
         rep.E.total_messages rep.E.executions rep.E.sim_time
         rep.E.throughput rep.E.violations
         (String.concat ","
            (Array.to_list
               (Array.map string_of_int rep.E.per_site_executions))));
    ( Digest.to_hex (Digest.string (Buffer.contents b)),
      List.exists (fun (e : Trace.entry) -> e.Trace.kind = Trace.Recover)
        entries )
  in
  List.iter
    (fun (label, cfg, r, expected) ->
      let hex, recovered = digest cfg r in
      Alcotest.(check string)
        (Printf.sprintf "%s %s: trace digest" r.R.name label)
        expected hex;
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: recovery ran" r.R.name label)
        (cfg.E.recoveries <> []) recovered)
    [
      ("clean", base, R.delay_optimal ~n (),
        "95b29a1ac036f8db19b0308b9b5ca099");
      ("clean", base, R.maekawa ~n (), "ce886fc0280ae0a3ea705cd1be3c214b");
      ("clean", base, R.lamport ~n, "7050f1654d5d217167e3fe0489b98ef5");
      ("clean", base, R.ricart_agrawala ~n, "8e39903146fefc38c120f143575f6fdf");
      ("clean", base, R.suzuki_kasami ~n, "2760db0c2bff2dc9d0169d22f6058289");
      ("clean", base, R.raymond ~n (), "bd84a46eaac2b32054411b3c1edc63bf");
      ( "faulty",
        faulty,
        R.ft_delay_optimal ~reliability:Dmx_core.Reliable.default ~n (),
        "2bcba877d9ac6c34f87cf3d2e4ff70d7" );
    ]

(* Exact cost counters for the engine's hot path: a saturated n = 81 grid
   run of the delay-optimal protocol, 2,000 CS, fixed seed. Events and
   messages per CS are functions of the seed and are pinned exactly; a
   change that adds or loses an event or a message fails here on any
   host. Minor-heap words per CS depend on the compiler and the standard
   library, so they are held under a ceiling instead. The run allocates
   about 2,080 words per CS on OCaml 5.1; boxed event records, list
   arbiter queues and hashtable channels cost about 7,800. The ceiling of
   3,000 leaves room for other compilers and still fails a change that
   brings back part of that cost. *)
module DO_engine = E.Make (Dmx_core.Delay_optimal)

let test_exact_counts_n81 () =
  let module Reg = Dmx_obs.Registry in
  let n = 81 and execs = 2_000 in
  let pcfg =
    Dmx_core.Delay_optimal.config (Dmx_quorum.Builder.req_sets Grid ~n)
  in
  let reg = Reg.create () in
  let cfg =
    {
      (E.default ~n) with
      E.seed = 1913;
      cs_duration = 1.0;
      max_executions = execs;
      warmup = 0;
      obs = Some reg;
    }
  in
  let w0 = Gc.minor_words () in
  let r = DO_engine.run cfg pcfg in
  let words = (Gc.minor_words () -. w0) /. float_of_int execs in
  let events = Dmx_obs.Snapshot.get (Reg.snapshot reg) "engine.events" in
  Alcotest.(check int) "executions" execs r.E.executions;
  Alcotest.(check int) "violations" 0 r.E.violations;
  Alcotest.(check int) "events" 173_284 events;
  Alcotest.(check int) "messages" 160_861 r.E.total_messages;
  Alcotest.(check (list (pair string int)))
    "messages by kind"
    [
      ("fail", 33_200);
      ("release", 32_000);
      ("reply", 30_324);
      ("reply+transfer", 2_022);
      ("request", 33_280);
      ("transfer", 30_035);
    ]
    r.E.messages_by_kind;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per CS %.0f under 3000" words)
    true (words < 3000.0)

(* Lazy and eager sites are one storage path: a lazily built site must
   behave as if it had been built up front. Every report field is
   compared, floats bit for bit. *)
let report_fingerprint (r : E.report) =
  let module S = Dmx_sim.Stats.Summary in
  let summary s =
    if S.count s = 0 then "-"
    else
      Printf.sprintf "%d/%h/%h/%h/%h" (S.count s) (S.total s) (S.min s)
        (S.max s) (S.percentile s 99.0)
  in
  Printf.sprintf
    "execs=%d msgs=%d kinds=%s sync=%s resp=%s unavail=%s tput=%h time=%h \
     viol=%d dead=%b pending=%d fair=%h"
    r.executions r.total_messages
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.messages_by_kind))
    (summary r.sync_delay) (summary r.response_time) (summary r.unavailability)
    r.throughput r.sim_time r.violations r.deadlocked r.pending_at_end
    r.fairness

let test_lazy_equals_eager () =
  let module R = Dmx_baselines.Runner in
  let module B = Dmx_quorum.Builder in
  let cfg n =
    {
      (E.default ~n) with
      E.seed = 2024;
      workload = W.Open_loop { active = 32; rate_per_site = 0.01 };
      max_executions = 300;
      warmup = 10;
    }
  in
  List.iter
    (fun (label, (runner : R.t), (cfg : E.config)) ->
      let eager = runner.R.run cfg in
      let lazy_ = runner.R.run { cfg with E.lazy_sites = true } in
      Alcotest.(check int) (label ^ ": executions") 300 eager.E.executions;
      Alcotest.(check string) (label ^ ": report") (report_fingerprint eager)
        (report_fingerprint lazy_);
      Alcotest.(check (array int))
        (label ^ ": per-site executions")
        eager.E.per_site_executions lazy_.E.per_site_executions)
    [
      ("tree", R.delay_optimal ~kind:B.Tree ~n:1023 (), cfg 1023);
      ("grid", R.delay_optimal ~kind:B.Grid ~n:1024 (), cfg 1024);
      ( "tree, crash and recover",
        R.ft_delay_optimal ~n:1023 (),
        { (cfg 1023) with E.crashes = [ (40.0, 5) ]; recoveries = [ (120.0, 5) ] }
      );
    ]

(* Set-up at N = 10^6 follows the touched sites: a lazy tree run of 50 CS
   under an open loop. Its executions, events and messages are functions
   of the seed and are pinned; the words the run allocates are held under
   a ceiling. The run allocates about 2.3M words on OCaml 5.1, 2M of them
   the slot pointer and the exec counter of each site. Splitting a stream
   per site costs 47M more (17M of them kept), and five per-site arrays
   of options and floats 5M; the ceiling of 6M fails a change that brings
   back either. *)
let test_huge_n_setup_allocation () =
  let module Reg = Dmx_obs.Registry in
  let module B = Dmx_quorum.Builder in
  let n = 1_000_000 and execs = 50 in
  let pcfg =
    Dmx_core.Delay_optimal.config_of_assignment (B.assignment B.Tree ~n)
  in
  let reg = Reg.create () in
  let cfg =
    {
      (E.default ~n) with
      E.seed = 4711;
      cs_duration = 1.0;
      workload = W.Open_loop { active = 64; rate_per_site = 0.004 };
      max_executions = execs;
      warmup = 0;
      lazy_sites = true;
      obs = Some reg;
    }
  in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let w0 = allocated () in
  let r = DO_engine.run cfg pcfg in
  let words = allocated () -. w0 in
  let events = Dmx_obs.Snapshot.get (Reg.snapshot reg) "engine.events" in
  Alcotest.(check int) "executions" execs r.E.executions;
  Alcotest.(check int) "violations" 0 r.E.violations;
  Alcotest.(check int) "events" 3_341 events;
  Alcotest.(check int) "messages" 3_093 r.E.total_messages;
  Alcotest.(check bool)
    (Printf.sprintf "words allocated %.0f under 6M" words)
    true (words < 6.0e6)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("central protocol baseline", test_central_runs_clean);
      ("violation detection", test_violation_detection);
      ("throughput accounting", test_throughput_accounting);
      ("response time accounting", test_response_time_accounting);
      ("self messages not counted", test_message_counting_excludes_self);
      ("messages by kind", test_messages_by_kind);
      ("warmup excluded from stats", test_warmup_excluded);
      ("crash notifies survivors", test_crash_notifies_survivors);
      ("crashed coordinator stops service", test_crashed_site_stops_participating);
      ("sync delay requires a waiter", test_sync_delay_requires_waiter);
      ("trace consistency", test_trace_consistency);
      ("poisson rate accuracy", test_poisson_rate_accuracy);
      ("bad config rejected", test_bad_config_rejected);
      ("pinned channel fingerprint", test_channel_fingerprint);
      ("exact counts and allocation ceiling, n=81", test_exact_counts_n81);
      ("lazy sites equal eager sites", test_lazy_equals_eager);
      ("huge-N set-up allocation ceiling, N=10^6", test_huge_n_setup_allocation);
    ]
