(* Golden deterministic-replay tests: one pinned seed per protocol. The
   same schedule must produce bit-identical reports on every run — and
   after a serialization round-trip through the .dmxrepro format, whose
   hex-float encoding exists precisely so this holds. The fingerprint uses
   %h so even last-ulp drift in the statistics would be caught. Each
   fingerprint is also pinned to the value recorded before the simulator's
   event queue, channel table and arbiter queues changed representation,
   so a refactor of those structures must keep every run bit-identical. *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module S = Dmx_sim.Stats.Summary
module Sch = Dmx_sim.Schedule
module R = Dmx_baselines.Runner

let fp (r : E.report) =
  Printf.sprintf
    "%s execs=%d msgs=%d sync=%h sync99=%h resp=%h tput=%h viol=%d dead=%b \
     retx=%d pending=%d"
    r.E.protocol r.E.executions r.E.total_messages (S.mean r.E.sync_delay)
    (S.percentile r.E.sync_delay 99.0)
    (S.mean r.E.response_time) r.E.throughput r.E.violations r.E.deadlocked
    r.E.retransmissions r.E.pending_at_end

let fp_of (s : Sch.t) =
  match R.run_schedule s with
  | Error e -> Alcotest.fail e
  | Ok (r, _) -> fp r

let check_deterministic ~expected label s =
  let a = fp_of s in
  Alcotest.(check string) (label ^ ": pinned fingerprint") expected a;
  let b = fp_of s in
  Alcotest.(check string) (label ^ ": bit-identical rerun") a b;
  match Sch.of_string (Sch.to_string s) with
  | Error e -> Alcotest.failf "%s: round-trip: %s" label e
  | Ok s' ->
    Alcotest.(check bool) (label ^ ": schedule round-trips exactly") true
      (s' = s);
    Alcotest.(check string)
      (label ^ ": bit-identical after serialization")
      a (fp_of s')

let golden (algo, quorum, n, seed, expected) () =
  check_deterministic ~expected algo
    {
      (Sch.default ~algo ~n) with
      Sch.quorum;
      seed;
      execs = 40;
      cs = 0.7;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
    }

let golden_cases =
  [
    ("delay-optimal", "grid", 9, 101,
      "delay-optimal execs=40 msgs=870 sync=0x1.8e46040f0729p+0 sync99=0x1.7a81984f72c68p+1 resp=0x1.1e6df0b8bde9cp+4 tput=0x1.be0c95619e912p-2 viol=0 dead=false retx=0 pending=8");
    ("ft-delay-optimal", "tree", 7, 202,
      "ft-delay-optimal execs=40 msgs=432 sync=0x1.7c5ed5542aac3p+0 sync99=0x1.5f20d7472af6p+1 resp=0x1.9d6694df4da8ep+3 tput=0x1.d13a4f1379515p-2 viol=0 dead=false retx=0 pending=6");
    ("maekawa", "grid", 9, 303,
      "maekawa execs=40 msgs=698 sync=0x1.1e631abffa293p+1 sync99=0x1.640384c53e9cp+1 resp=0x1.76b555dabc2cp+4 tput=0x1.5917d51eddd14p-2 viol=0 dead=false retx=0 pending=8");
    ("lamport", "", 8, 404,
      "lamport execs=40 msgs=938 sync=0x1.d7c8c75b01eeep-1 sync99=0x1.7c22d740a186p+0 resp=0x1.65f71ceddf7d3p+3 tput=0x1.38fd33dbb094ap-1 viol=0 dead=false retx=0 pending=7");
    ("ricart-agrawala", "", 8, 505,
      "ricart-agrawala execs=40 msgs=637 sync=0x1.ff4b8da2ba3e3p-1 sync99=0x1.7f8e922d8724p+0 resp=0x1.869c824ac712cp+3 tput=0x1.260937465c4fdp-1 viol=0 dead=false retx=0 pending=7");
    ("singhal-dynamic", "", 8, 606,
      "singhal-dynamic execs=40 msgs=567 sync=0x1.03e6e5f76be42p+0 sync99=0x1.78fd5c5f82a4p+0 resp=0x1.725717ef67b4ap+3 tput=0x1.2efbc77a51e9fp-1 viol=0 dead=false retx=0 pending=7");
    ("suzuki-kasami", "", 8, 707,
      "suzuki-kasami execs=40 msgs=354 sync=0x1.03be2bc0ff228p+0 sync99=0x1.7fac0fda000dp+0 resp=0x1.763af8fb6d27cp+3 tput=0x1.2f1799b10cdbep-1 viol=0 dead=false retx=0 pending=7");
    ("singhal-heuristic", "", 8, 808,
      "singhal-heuristic execs=40 msgs=286 sync=0x1.0ab5539f2ca75p+0 sync99=0x1.7a763e8a8ec8p+0 resp=0x1.7590bc64a6b58p+3 tput=0x1.2a67eb16a09eep-1 viol=0 dead=false retx=0 pending=7");
    ("raymond", "", 8, 909,
      "raymond execs=40 msgs=135 sync=0x1.98bf33f1c56cep+0 sync99=0x1.2d9b7aae2a53p+2 resp=0x1.f04597d603e9dp+3 tput=0x1.c5bfebe64fe4dp-2 viol=0 dead=false retx=0 pending=7");
  ]

let test_golden_faulty () =
  (* the full fault machinery: loss, duplication, a healing partition, a
     delay spike, crash + recovery, heartbeat detection, retry/ack layer *)
  check_deterministic "ft-delay-optimal (faulty)"
    ~expected:
      "ft-delay-optimal execs=50 msgs=1662 sync=0x1.3a7553a669eb9p+1 sync99=0x1.12eab4651f41ep+5 resp=0x1.2ca2ca48a836p+4 tput=0x1.4ec3e2faf7802p-2 viol=0 dead=false retx=296 pending=6"
    {
      (Sch.default ~algo:"ft-delay-optimal" ~n:7) with
      Sch.quorum = "tree";
      seed = 77;
      execs = 50;
      cs = 0.5;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
      faults =
        {
          Net.loss = 0.05;
          duplication = 0.02;
          partitions =
            [
              {
                Net.from_t = 20.0;
                until = 45.0;
                groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ];
              };
            ];
          delay_spikes = [ (10.0, 30.0, 2.0) ];
        };
      crashes = [ (30.0, 1) ];
      recoveries = [ (55.0, 1) ];
      detector = E.Heartbeat { Dmx_sim.Detector.period = 2.0; timeout = 10.0 };
      reliability = true;
    }

let test_minimal_file_defaults () =
  (* A hand-written reproducer that omits `workload` must mean "saturated,
     all sites" — the n-dependent default is re-derived after parsing, not
     frozen at the parser's n=0 seed. *)
  match Sch.of_string "dmxrepro v1\nalgo delay-optimal\nn 4\nexecs 5\n" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "saturated all sites" true
      (s.Sch.workload = Dmx_sim.Workload.Saturated { contenders = 4 })

let test_huge_n_needs_explicit_workload () =
  (* the saturated-all default is a trap at huge N: it would instantiate
     every one of the million sites. The parser must reject it with a
     pointer at the fix, and accept the same file once a lazy-compatible
     workload line is present. *)
  (match Sch.of_string "dmxrepro v1\nalgo delay-optimal\nn 1000000\nexecs 5\n" with
  | Ok _ -> Alcotest.fail "huge-n schedule without workload must not parse"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the fix: %s" e)
      true
      (let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
         in
         go 0
       in
       contains e "open-loop"));
  match
    Sch.of_string
      "dmxrepro v1\nalgo delay-optimal\nn 1000000\nexecs 5\nworkload \
       open-loop 8 0x1.4p-11\n"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "open-loop parsed" true
      (s.Sch.workload
      = Dmx_sim.Workload.Open_loop { active = 8; rate_per_site = 0x1.4p-11 });
    (* and the lazy-compatible form round-trips bit-exactly like the rest *)
    (match Sch.of_string (Sch.to_string s) with
    | Error e -> Alcotest.fail e
    | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s'))

let suite =
  List.map
    (fun ((algo, quorum, _, _, _) as case) ->
      let label =
        if quorum = "" then algo else Printf.sprintf "%s (%s)" algo quorum
      in
      Alcotest.test_case label `Quick (golden case))
    golden_cases
  @ [
      Alcotest.test_case "ft-delay-optimal under faults" `Quick
        test_golden_faulty;
      Alcotest.test_case "minimal .dmxrepro gets saturated-all default" `Quick
        test_minimal_file_defaults;
      Alcotest.test_case "huge-n .dmxrepro needs an explicit workload" `Quick
        test_huge_n_needs_explicit_workload;
    ]
