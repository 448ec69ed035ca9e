(* The experiment suite: one function per table/figure of the paper's
   evaluation (see DESIGN.md §5 for the index and EXPERIMENTS.md for the
   paper-vs-measured record). All simulations are deterministic. *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module W = Dmx_sim.Workload
module R = Dmx_baselines.Runner
module B = Dmx_quorum.Builder
module Av = Dmx_quorum.Availability
module S = Dmx_sim.Stats.Summary
module Mdl = Dmx_model.Model
open Scenarios

let check (r : E.report) =
  if r.E.violations > 0 then
    failwith
      (Printf.sprintf "BUG: %s violated mutual exclusion %d times" r.E.protocol
         r.E.violations);
  if r.E.deadlocked then
    failwith (Printf.sprintf "BUG: %s deadlocked" r.E.protocol);
  r

(* ------------------------------------------------------------------ *)
(* E10: §7 replica control — read/write quorums                        *)
(* ------------------------------------------------------------------ *)

let replica_control () =
  let module RW = Dmx_quorum.Rw_quorum in
  let n = 25 in
  let trials = if !Scenarios.quick then 4_000 else 20_000 in
  let rows =
    par_map
      (fun scheme ->
        let t = RW.create scheme ~n in
        (match RW.validate t with Ok () -> () | Error e -> failwith e);
        let r80, w80 = RW.availability t ~p_up:0.8 ~trials ~seed:5 in
        let r95, w95 = RW.availability t ~p_up:0.95 ~trials ~seed:5 in
        [
          RW.scheme_name scheme;
          Tbl.f1 (RW.read_size t);
          Tbl.f1 (RW.write_size t);
          Tbl.f3 r80;
          Tbl.f3 w80;
          Tbl.f3 r95;
          Tbl.f3 w95;
        ])
      [ RW.Rowa; RW.Majority_rw; RW.Grid_rw; RW.Tree_rw ]
  in
  Tbl.print
    ~title:(Printf.sprintf "E10 (7): replica control with read/write quorums (N=%d)" n)
    ~note:
      "Section 7: 'the proposed idea can be used in replicated data \
       management, as long as the quorum being used supports replica \
       control.' Reads intersect every write quorum, so they are always \
       fresh; the table shows the read-cost/availability tradeoff each \
       scheme buys. Writes serialize through the delay-optimal mutex."
    ~headers:
      [
        ("scheme", Tbl.L);
        ("|R|", Tbl.R);
        ("|W|", Tbl.R);
        ("read@.8", Tbl.R);
        ("write@.8", Tbl.R);
        ("read@.95", Tbl.R);
        ("write@.95", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* MC: exhaustive small-scope model check                              *)
(* ------------------------------------------------------------------ *)

let model_check () =
  let module MC = Dmx_sim.Model_check in
  let module Check =
    MC.Make (struct
      include Dmx_core.Delay_optimal

      let copy_state = Dmx_core.Delay_optimal.Internal.copy_state
    end)
  in
  let row ?(staggered = false) (kind, n) =
    let req_sets = B.req_sets kind ~n in
    let o =
      Check.explore ~staggered ~n
        ~requesters:(List.init n Fun.id)
        (Dmx_core.Delay_optimal.config req_sets)
    in
    (* [clean] also rejects truncated explorations: a state-budget cutoff
       proved nothing and must not read as a pass. *)
    if not (MC.clean o) then
      failwith
        (Printf.sprintf
           "BUG: model check %s n=%d not clean (%d violations, %d stuck%s)"
           (B.kind_name kind) n o.MC.violations o.MC.stuck_states
           (if o.MC.truncated then ", truncated" else ""));
    [
      Printf.sprintf "%s n=%d%s" (B.kind_name kind) n
        (if staggered then " (staggered)" else "");
      Tbl.i o.MC.distinct_states;
      Tbl.i o.MC.violations;
      Tbl.i o.MC.stuck_states;
      Tbl.i o.MC.completed_schedules;
    ]
  in
  let rows =
    par_map
      (fun (staggered, kn) -> row ~staggered kn)
      [
        (false, (B.Grid, 2));
        (false, (B.Star, 3));
        (false, (B.Majority, 3));
        (false, (B.Tree, 3));
        (false, (B.Grid, 3));
        (true, (B.Tree, 3));
      ]
  in
  Tbl.print ~title:"MC: exhaustive schedule exploration (simultaneous requests)"
    ~note:
      "Every reachable interleaving of message deliveries and CS exits, \
       with per-channel FIFO preserved. Zero violations and zero stuck \
       states = mutual exclusion and deadlock-freedom hold for ALL \
       schedules at these sizes. 'staggered' additionally explores every \
       late-arrival schedule (request issuance interleaved with \
       deliveries)."
    ~headers:
      [
        ("configuration", Tbl.L);
        ("states", Tbl.R);
        ("violations", Tbl.R);
        ("deadlocks", Tbl.R);
        ("terminal", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: the algorithm across quorum constructions (§3.1, §5.3)         *)
(* ------------------------------------------------------------------ *)

let constructions () =
  let rows =
    par_concat_map
      (fun (kind, n) ->
        let runner = R.delay_optimal ~kind ~n () in
        let stats = B.size_stats (B.req_sets kind ~n) in
        let cfg_l = light ~runs:60 n in
        let cfg_h = heavy ~cs:2.0 ~runs:300 n in
        let l = check (runner.R.run cfg_l) in
        let h = check (runner.R.run cfg_h) in
        let src load = Printf.sprintf "E11 %s N=%d %s" (B.kind_name kind) n load in
        Validate.record_report ~source:(src "light") ~kind ~cfg:cfg_l l;
        Validate.record_report ~source:(src "heavy") ~kind ~cfg:cfg_h h;
        [
          [
            B.kind_name kind;
            Tbl.i n;
            Tbl.f1 stats.B.k_mean;
            Tbl.f1 l.E.messages_per_cs;
            Tbl.f1 h.E.messages_per_cs;
            Tbl.f2 (mean h.E.sync_delay);
          ];
        ])
      [
        (B.Grid, 13);
        (B.Fpp, 13);
        (B.Tree, 13);
        (B.Majority, 13);
        (B.Grid, 27);
        (B.Tree, 27);
        (B.Hqc, 27);
        (B.Majority, 27);
        (B.Grid_set 4, 27);
        (B.Rst 4, 27);
      ]
  in
  Tbl.print
    ~title:"E11 (3.1, 5.3): delay-optimal across quorum constructions"
    ~note:
      "'Our scheme is independent of the quorum being used. K is sqrt(N) \
       with Maekawa's construction and log N with Agrawal-El Abbadi's.' \
       Message cost scales with the construction's K while the sync delay \
       stays at T for every coterie."
    ~headers:
      [
        ("construction", Tbl.L);
        ("N", Tbl.R);
        ("K", Tbl.R);
        ("light msgs", Tbl.R);
        ("heavy msgs", Tbl.R);
        ("sync/T", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations of the algorithm's design choices (DESIGN.md §3)          *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let n = 25 in
  let run ?(piggyback_next = true) ?(eager_fails = true) cfg =
    let req_sets = B.req_sets B.Grid ~n in
    let module M = E.Make (Dmx_core.Delay_optimal) in
    M.run cfg (Dmx_core.Delay_optimal.config ~piggyback_next ~eager_fails req_sets)
  in
  (* piggybacked next-waiter hint: messages and delay with/without *)
  let rows =
    par_map
      (fun (label, piggyback_next) ->
        let r = run ~piggyback_next (heavy ~cs:1.0 ~runs:400 n) in
        [
          label;
          Tbl.f1 r.E.messages_per_cs;
          Tbl.f2 (mean r.E.sync_delay);
          Tbl.f3 (r.E.throughput);
        ])
      [ ("piggyback next (paper)", true); ("separate transfer", false) ]
  in
  Tbl.print ~title:"A1: piggybacking the next-waiter hint on grants (N=25, heavy)"
    ~note:
      "The paper piggybacks transfer(p, j) on grant replies so it rides for \
       free; sending it as its own message leaves delay intact but pays \
       roughly one extra message per grant."
    ~headers:
      [
        ("variant", Tbl.L);
        ("msgs/CS", Tbl.R);
        ("sync/T", Tbl.R);
        ("throughput", Tbl.R);
      ]
    rows;
  (* eager fails: the deadlock-freedom correction of DESIGN.md §3.7 *)
  let seeds = List.init (if !Scenarios.quick then 8 else 20) (fun i -> i + 1) in
  let stalled eager_fails =
    List.length
      (List.filter Fun.id
         (par_map
            (fun seed ->
           let cfg =
             {
               (heavy ~cs:0.5 ~runs:150 n) with
               seed;
               delay = Net.Exponential { mean = 1.0 };
               max_time = 20_000.0;
               warmup = 0;
             }
           in
              let r = run ~eager_fails cfg in
              r.E.deadlocked || r.E.executions < 150)
            seeds))
  in
  let rows =
    [
      [ "corrected (eager fails)"; Tbl.i (stalled true); Tbl.i (List.length seeds) ];
      [ "OCR-literal A.2 rules"; Tbl.i (stalled false); Tbl.i (List.length seeds) ];
    ]
  in
  Tbl.print ~title:"A2: the eager-fail discipline (exponential delays, per-seed outcome)"
    ~note:
      "Without a fail to a best waiter that ranks behind the lock (the \
       message the OCR dropped but §5.2 Case 1 counts), a waiting cycle \
       forms whose members never yield: runs deadlock. The corrected rule \
       never stalls."
    ~headers:[ ("variant", Tbl.L); ("stalled runs", Tbl.R); ("of", Tbl.R) ]
    rows

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — message complexity and synchronization delay          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let n = 25 in
  let k1 = grid_k n - 1 in
  let theory =
    [
      ("lamport", (Printf.sprintf "3(N-1) = %d" (3 * (n - 1)), "T"));
      ("ricart-agrawala", (Printf.sprintf "2(N-1) = %d" (2 * (n - 1)), "T"));
      ( "singhal-dynamic",
        (Printf.sprintf "N-1..2(N-1) = %d..%d" (n - 1) (2 * (n - 1)), "T") );
      ("maekawa", (Printf.sprintf "3..5(K-1) = %d..%d" (3 * k1) (5 * k1), "2T"));
      ( "delay-optimal",
        (Printf.sprintf "3..6(K-1) = %d..%d" (3 * k1) (6 * k1), "T") );
      ("suzuki-kasami", (Printf.sprintf "0..N = 0..%d" n, "T"));
      ("singhal-heuristic", (Printf.sprintf "0..N = 0..%d" n, "T"));
      ("raymond", ("O(log N)", "O(log N) T"));
    ]
  in
  let rows =
    par_map
      (fun runner ->
        let cfg_l = light ~runs:80 n in
        let cfg_h = heavy ~cs:2.0 ~runs:300 n in
        let l = check (runner.R.run cfg_l) in
        let h = check (runner.R.run cfg_h) in
        Validate.record_report
          ~source:(Printf.sprintf "T1 %s light" runner.R.name)
          ~cfg:cfg_l l;
        Validate.record_report
          ~source:(Printf.sprintf "T1 %s heavy" runner.R.name)
          ~cfg:cfg_h h;
        let msgs_th, delay_th =
          match List.assoc_opt runner.R.name theory with
          | Some (m, d) -> (m, d)
          | None -> ("", "")
        in
        [
          runner.R.name;
          Tbl.f1 l.E.messages_per_cs;
          Tbl.f1 h.E.messages_per_cs;
          msgs_th;
          Tbl.f2 (mean h.E.sync_delay);
          delay_th;
        ])
      (R.all ~n)
  in
  Tbl.print
    ~title:(Printf.sprintf "Table 1: message complexity and sync delay (N=%d, grid K=%d)" n (grid_k n))
    ~note:
      "Measured on the simulator (constant delay T=1, CS=2T); light load = \
       rare Poisson arrivals, heavy = all sites saturated. Sync delay in \
       units of T."
    ~headers:
      [
        ("algorithm", Tbl.L);
        ("msgs/CS light", Tbl.R);
        ("msgs/CS heavy", Tbl.R);
        ("theory (msgs)", Tbl.L);
        ("sync delay", Tbl.R);
        ("theory (delay)", Tbl.L);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E1: §5.1 light load — 3(K-1) messages, response 2T+E                *)
(* ------------------------------------------------------------------ *)

let light_load () =
  let rows =
    par_map
      (fun n ->
        let k1 = grid_k n - 1 in
        let cfg = light ~runs:80 n in
        let r = check ((R.delay_optimal ~n ()).R.run cfg) in
        Validate.record_report ~source:(Printf.sprintf "E1 N=%d" n) ~cfg r;
        [
          Tbl.i n;
          Tbl.i (k1 + 1);
          Tbl.f1 r.E.messages_per_cs;
          Tbl.i (3 * k1);
          Tbl.f2 (mean r.E.response_time);
          "2.00";
        ])
      [ 9; 16; 25; 49; 81; 121 ]
  in
  Tbl.print ~title:"E1 (5.1): delay-optimal under light load"
    ~note:
      "Paper: 3(K-1) messages per CS; response time 2T + E (E excluded \
       from the response column: request to entry = 2T)."
    ~headers:
      [
        ("N", Tbl.R);
        ("K", Tbl.R);
        ("msgs/CS", Tbl.R);
        ("3(K-1)", Tbl.R);
        ("response/T", Tbl.R);
        ("paper", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: §5.2 heavy load — 5(K-1)..6(K-1) messages                       *)
(* ------------------------------------------------------------------ *)

let heavy_load () =
  let rows =
    par_map
      (fun n ->
        let k1 = grid_k n - 1 in
        let r = check ((R.delay_optimal ~n ()).R.run (heavy ~runs:400 n)) in
        [
          Tbl.i n;
          Tbl.i (k1 + 1);
          Tbl.f1 r.E.messages_per_cs;
          Printf.sprintf "%d..%d" (5 * k1) (6 * k1);
          Tbl.f2 (r.E.messages_per_cs /. float_of_int k1);
        ])
      [ 9; 16; 25; 49; 81; 121 ]
  in
  Tbl.print ~title:"E2 (5.2): delay-optimal under heavy load"
    ~note:
      "Paper: 5(K-1) or 6(K-1) messages per CS depending on the contention \
       case mix. The last column is the measured multiple of (K-1)."
    ~headers:
      [
        ("N", Tbl.R);
        ("K", Tbl.R);
        ("msgs/CS", Tbl.R);
        ("paper band", Tbl.R);
        ("x(K-1)", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: sync delay T vs 2T across delay models                          *)
(* ------------------------------------------------------------------ *)

let sync_delay () =
  let n = 25 in
  let models =
    [
      ("constant", Net.Constant 1.0);
      ("uniform(0.5,1.5)", Net.Uniform { lo = 0.5; hi = 1.5 });
      ("exponential(1)", Net.Exponential { mean = 1.0 });
      ("shifted-exp(.5+.5)", Net.Shifted_exponential { base = 0.5; extra_mean = 0.5 });
    ]
  in
  let rows =
    par_map
      (fun ((mname, delay), cs) ->
        let cfg = heavy ~cs ~delay ~runs:400 n in
        let rd = check ((R.delay_optimal ~n ()).R.run cfg) in
        let rm = check ((R.maekawa ~n ()).R.run cfg) in
        let src who = Printf.sprintf "E3 %s E=%g %s" mname cs who in
        Validate.record_report ~source:(src "delay-optimal") ~cfg rd;
        Validate.record_report ~source:(src "maekawa") ~cfg rm;
        let shape =
          match delay with Net.Constant _ -> Mdl.Constant | _ -> Mdl.Random
        in
        (* under Constant delay the exact-2x ratio needs E >= 2T (below
           that some handoffs take the release path and dilute it) *)
        (match shape with
        | Mdl.Constant when cs < 2.0 -> ()
        | shape ->
          Validate.record_check ~source:(src "maekawa/proposed sync")
            (Mdl.sync_ratio ~t:1.0 shape)
            (mean rm.E.sync_delay /. mean rd.E.sync_delay));
        [
          mname;
          Tbl.f1 cs;
          Tbl.f2 (mean rd.E.sync_delay);
          Tbl.f2 (p50 rd.E.sync_delay);
          Tbl.f2 (mean rm.E.sync_delay);
          Tbl.f2 (mean rm.E.sync_delay /. mean rd.E.sync_delay);
        ])
      (List.concat_map (fun m -> List.map (fun cs -> (m, cs)) [ 1.0; 2.0 ]) models)
  in
  Tbl.print ~title:(Printf.sprintf "E3 (5.2): synchronization delay, T vs 2T (N=%d)" n)
    ~note:
      "Paper: the proposed algorithm hands the CS off in T; every \
       Maekawa-type algorithm needs 2T. Under random delays both inflate \
       (the handoff waits for a specific message, i.e. a max of samples), \
       but the 2x structural gap persists in the ratio."
    ~headers:
      [
        ("delay model", Tbl.L);
        ("E/T", Tbl.R);
        ("proposed mean", Tbl.R);
        ("proposed p50", Tbl.R);
        ("maekawa mean", Tbl.R);
        ("ratio", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E4/E5: throughput doubled, waiting time halved                      *)
(* ------------------------------------------------------------------ *)

let throughput () =
  let rows =
    par_map
      (fun n ->
        let cfg = heavy ~cs:0.1 ~runs:500 n in
        let rd = check ((R.delay_optimal ~n ()).R.run cfg) in
        let rm = check ((R.maekawa ~n ()).R.run cfg) in
        Validate.record_report
          ~source:(Printf.sprintf "E4 N=%d delay-optimal" n)
          ~cfg rd;
        Validate.record_report ~source:(Printf.sprintf "E4 N=%d maekawa" n) ~cfg
          rm;
        Validate.record_check
          ~source:(Printf.sprintf "E4 N=%d proposed/maekawa throughput" n)
          (Mdl.throughput_ratio ~e:0.1 ~t:1.0)
          (rd.E.throughput /. rm.E.throughput);
        [
          Tbl.i n;
          Tbl.f3 rd.E.throughput;
          Tbl.f3 rm.E.throughput;
          Tbl.f2 (rd.E.throughput /. rm.E.throughput);
          "(2T+E)/(T+E) = " ^ Tbl.f2 (2.1 /. 1.1);
        ])
      [ 9; 25; 49; 81 ]
  in
  Tbl.print ~title:"E4 (5.2): heavy-load throughput, proposed vs Maekawa (E=0.1T)"
    ~note:
      "Paper: 'at heavy loads, the rate of CS execution is doubled'. The \
       structural bound is (2T+E)/(T+E); small E approaches 2."
    ~headers:
      [
        ("N", Tbl.R);
        ("proposed /T", Tbl.R);
        ("maekawa /T", Tbl.R);
        ("ratio", Tbl.R);
        ("ideal", Tbl.L);
      ]
    rows

let waiting_time () =
  let rows =
    par_map
      (fun n ->
        let cfg = heavy ~cs:0.1 ~runs:500 n in
        let rd = check ((R.delay_optimal ~n ()).R.run cfg) in
        let rm = check ((R.maekawa ~n ()).R.run cfg) in
        [
          Tbl.i n;
          Tbl.f1 (mean rd.E.response_time);
          Tbl.f1 (mean rm.E.response_time);
          Tbl.f2 (mean rd.E.response_time /. mean rm.E.response_time);
        ])
      [ 9; 25; 49; 81 ]
  in
  Tbl.print ~title:"E5 (5.2): heavy-load waiting time, proposed vs Maekawa (E=0.1T)"
    ~note:
      "Paper: 'the waiting time of requests is nearly reduced to half \
       because the CS executions proceed with twice the rate'."
    ~headers:
      [
        ("N", Tbl.R);
        ("proposed wait/T", Tbl.R);
        ("maekawa wait/T", Tbl.R);
        ("ratio", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: light -> heavy load sweep                                       *)
(* ------------------------------------------------------------------ *)

let load_sweep () =
  let n = 25 in
  let k1 = grid_k n - 1 in
  let rows =
    par_map
      (fun rate ->
        let cfg = poisson ~rate ~runs:300 n in
        let r = check ((R.delay_optimal ~n ()).R.run cfg) in
        Validate.record_report ~source:(Printf.sprintf "E6 rate=%g" rate) ~cfg r;
        [
          Tbl.f4 rate;
          Tbl.f1 r.E.messages_per_cs;
          Tbl.f2 (r.E.messages_per_cs /. float_of_int k1);
          Tbl.f1 (mean r.E.response_time);
        ])
      [ 0.0005; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2 ]
  in
  Tbl.print
    ~title:
      (Printf.sprintf
         "E6: offered load sweep, delay-optimal (N=%d, K-1=%d, Poisson per site)"
         n k1)
    ~note:
      "Messages per CS climb from the light-load 3(K-1) toward the \
       heavy-load 5..6(K-1) band as contention rises; response time grows \
       with queueing."
    ~headers:
      [
        ("rate/site", Tbl.R);
        ("msgs/CS", Tbl.R);
        ("x(K-1)", Tbl.R);
        ("response/T", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: quorum size vs N per construction (§5.3, §6)                    *)
(* ------------------------------------------------------------------ *)

let quorum_size () =
  let sizes kind ns =
    List.map
      (fun n ->
        if B.supports kind ~n then
          let st = B.size_stats (B.req_sets kind ~n) in
          Printf.sprintf "%.1f" st.B.k_mean
        else "-")
      ns
  in
  let ns = [ 7; 9; 13; 16; 27; 31; 49; 57; 81; 121; 133 ] in
  let rows =
    List.map
      (fun (label, kind, formula) -> (label :: sizes kind ns) @ [ formula ])
      [
        ("grid", B.Grid, "2 sqrt(N) - 1");
        ("fpp (Maekawa)", B.Fpp, "~ sqrt(N)");
        ("tree (AE)", B.Tree, "log2(N+1)");
        ("hqc", B.Hqc, "N^0.63");
        ("grid-set g=4", B.Grid_set 4, "(N/g+1)/2*(2 sqrt g - 1)");
        ("rst g=4", B.Rst 4, "(g+1)/2*(2 sqrt(N/g) - 1)");
        ("majority", B.Majority, "(N+1)/2");
      ]
  in
  Tbl.print ~title:"E7 (5.3, 6): mean quorum size K by construction"
    ~note:"'-' marks universe sizes the construction does not support."
    ~headers:
      (("construction", Tbl.L)
      :: List.map (fun n -> (Printf.sprintf "N=%d" n, Tbl.R)) ns
      @ [ ("formula", Tbl.L) ])
    rows

(* ------------------------------------------------------------------ *)
(* E8: availability vs per-site up-probability (§6)                    *)
(* ------------------------------------------------------------------ *)

let availability () =
  let ps = [ 0.50; 0.70; 0.80; 0.90; 0.95; 0.99 ] in
  let trials = if !Scenarios.quick then 4_000 else 20_000 in
  let row (label, kind, n) =
    label
    :: Tbl.i n
    :: List.map (fun p -> Tbl.f3 (Av.estimate ~trials kind ~n ~p_up:p)) ps
  in
  let rows =
    par_map row
      [
        ("grid", B.Grid, 49);
        ("fpp", B.Fpp, 57);
        ("tree (AE)", B.Tree, 63);
        ("hqc", B.Hqc, 81);
        ("grid-set g=4", B.Grid_set 4, 64);
        ("rst g=4", B.Rst 4, 64);
        ("majority", B.Majority, 63);
        ("star (central)", B.Star, 63);
        ("all sites", B.All, 63);
      ]
  in
  Tbl.print ~title:"E8 (6): coterie availability vs per-site up-probability p"
    ~note:
      "Probability that some quorum is fully alive (exact where closed \
       forms exist, Monte Carlo otherwise). The fault-tolerant \
       constructions approach majority voting; Maekawa-style quorums decay \
       fastest; 'all sites' is the no-redundancy floor."
    ~headers:
      (("construction", Tbl.L) :: ("N", Tbl.R)
      :: List.map (fun p -> (Printf.sprintf "p=%.2f" p, Tbl.R)) ps)
    rows

(* ------------------------------------------------------------------ *)
(* E9: fault tolerance — crashes, recovery, detector ablation (§6)     *)
(* ------------------------------------------------------------------ *)

let fault_tolerance () =
  let n = 15 in
  let base kind crashes recoveries detection =
    {
      (E.default ~n) with
      seed = 11;
      cs_duration = 1.0;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
      detector = E.Oracle detection;
      crashes;
      recoveries;
      max_executions = execs 300;
      warmup = 0;
      max_time = 1.0e6;
    }
    |> fun cfg -> check ((R.ft_delay_optimal ~kind ~n ()).R.run cfg)
  in
  let rows =
    par_map
      (fun (label, kind, crashes, recoveries) ->
        let r = base kind crashes recoveries 3.0 in
        [
          label;
          Tbl.i (List.length crashes);
          Tbl.i r.E.executions;
          Tbl.f1 r.E.messages_per_cs;
          Tbl.f2 (mean r.E.sync_delay);
          Tbl.i r.E.violations;
        ])
      [
        ("tree, no crash", B.Tree, [], []);
        ("tree, leaf dies", B.Tree, [ (25.0, 14) ], []);
        ("tree, root dies", B.Tree, [ (25.0, 0) ], []);
        ("tree, 3 crashes", B.Tree, [ (20.0, 0); (40.0, 4); (60.0, 9) ], []);
        ( "tree, root dies + rejoins",
          B.Tree,
          [ (25.0, 0) ],
          [ (80.0, 0) ] );
        ( "majority, 7 of 15 die",
          B.Majority,
          List.mapi
            (fun i s -> (20.0 +. (5.0 *. float_of_int i), s))
            [ 1; 3; 5; 7; 9; 11; 13 ],
          [] );
      ]
  in
  Tbl.print ~title:(Printf.sprintf "E9 (6): fault-tolerant delay-optimal under crash injection (N=%d)" n)
    ~note:
      "All runs complete their full execution quota: quorum reconstruction \
       (tree substitution / live majorities) plus the Section 6 cleanup \
       keep the system live through crashes, with zero safety violations; \
       a crashed site can also rejoin with fresh state (fail-stop \
       recovery). Detection latency 3.0 > max message delay 1.5."
    ~headers:
      [
        ("scenario", Tbl.L);
        ("crashes", Tbl.R);
        ("CS served", Tbl.R);
        ("msgs/CS", Tbl.R);
        ("sync/T", Tbl.R);
        ("violations", Tbl.R);
      ]
    rows;
  (* Ablation: what the detection-latency assumption buys. A detector
     faster than the network lets the cleanup race in-flight forwards. *)
  let ablate detection =
    let cfg =
      {
        (E.default ~n) with
        seed = 11;
        cs_duration = 1.0;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
        detector = E.Oracle detection;
        crashes = [ (20.0, 0); (35.0, 4) ];
        max_executions = execs 300;
        warmup = 0;
        max_time = 1.0e6;
      }
    in
    (R.ft_delay_optimal ~kind:B.Tree ~n ()).R.run cfg
  in
  let rows =
    par_map
      (fun d ->
        let r = ablate d in
        [
          Tbl.f2 d;
          Tbl.i r.E.executions;
          Tbl.i r.E.violations;
          (if r.E.deadlocked then "yes" else "no");
        ])
      [ 0.1; 0.5; 1.0; 2.0; 3.0; 5.0 ]
  in
  Tbl.print ~title:"E9b: detector-latency ablation (crashes at t=20, t=35)"
    ~note:
      "The Section 6 recovery as written assumes failures are detected \
       after in-flight messages drain (detection > max delay = 1.5); a \
       faster detector can race a release that is still forwarding a \
       permission. Our implementation hardens the arbiter against that \
       race (it refuses to assign its lock to a known-dead site and \
       reclaims permissions forwarded to one — DESIGN.md 3), so every \
       latency below stays safe and live."
    ~headers:
      [
        ("detect delay", Tbl.R);
        ("CS served", Tbl.R);
        ("violations", Tbl.R);
        ("stalled", Tbl.L);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E12: unreliable network — loss sweep and partition healing          *)
(* ------------------------------------------------------------------ *)

let unreliable_network () =
  (* hqc needs a power of 3; everyone else takes the odd default *)
  let default_n = 15 in
  let n_of_kind = function B.Hqc -> 9 | _ -> default_n in
  let losses = [ 0.0; 0.01; 0.05; 0.1 ] in
  (* Only safety is a hard invariant here: under heavy loss a run may
     time out short of its quota, which is the availability signal this
     experiment measures. *)
  let safe (r : E.report) =
    if r.E.violations > 0 then
      failwith
        (Printf.sprintf "BUG: %s violated mutual exclusion under faults"
           r.E.protocol);
    r
  in
  let hb = { Dmx_sim.Detector.period = 2.0; timeout = 12.0 } in
  (* rto above the worst-case round trip (1.5 out + 0.5 ack coalescing +
     1.5 back), so the loss-0 column shows zero spurious retransmissions *)
  let rel = { Dmx_core.Reliable.default with rto = 4.0 } in
  let run kind faults =
    let n = n_of_kind kind in
    let cfg =
      {
        (E.default ~n) with
        seed = 7;
        cs_duration = 1.0;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
        detector = E.Heartbeat hb;
        faults;
        max_executions = execs 200;
        warmup = 0;
        max_time = 1.0e6;
      }
    in
    safe
      ((R.ft_delay_optimal ~reliability:rel ~trust_detector:false ~kind ~n ())
         .R.run cfg)
  in
  let quota = execs 200 in
  let rows =
    par_map
      (fun (label, kind) ->
        label
        :: List.concat_map
             (fun loss ->
               let r = run kind { Net.no_faults with Net.loss } in
               [
                 Printf.sprintf "%d/%d" r.E.executions quota;
                 Tbl.f1 r.E.messages_per_cs;
                 Tbl.i r.E.retransmissions;
               ])
             losses)
      [
        ("tree (AE)", B.Tree);
        ("hqc (N=9)", B.Hqc);
        ("grid-set g=3", B.Grid_set 3);
        ("majority", B.Majority);
      ]
  in
  Tbl.print
    ~title:
      (Printf.sprintf
         "E12: FT delay-optimal on an unreliable network (N=%d, heartbeat \
          detector %g/%g, retry/ack layer on)"
         default_n hb.Dmx_sim.Detector.period hb.Dmx_sim.Detector.timeout)
    ~note:
      "Per-message loss probability vs protocol availability: CS served out \
       of the quota, message cost per CS (acks and retransmissions \
       included), and retransmission count. The reliability layer masks \
       loss at the price of extra messages; safety (violations=0) holds \
       throughout."
    ~headers:
      (("construction", Tbl.L)
      :: List.concat_map
           (fun loss ->
             [
               (Printf.sprintf "CS@%g" loss, Tbl.R);
               ("msgs/CS", Tbl.R);
               ("retx", Tbl.R);
             ])
           losses)
    rows;
  (* Partition-and-heal: requests parked during the split must complete
     after it heals, and the unavailability windows are reported. *)
  let split =
    {
      Net.from_t = 30.0;
      until = 70.0;
      groups = [ [ 0; 1; 2; 3; 4; 5; 6 ]; [ 7; 8; 9; 10; 11; 12; 13; 14 ] ];
    }
  in
  let rows =
    par_map
      (fun (label, faults) ->
        let r = run B.Tree faults in
        [
          label;
          Printf.sprintf "%d/%d" r.E.executions quota;
          Tbl.i r.E.violations;
          Tbl.i (S.count r.E.unavailability);
          Tbl.f1 (S.total r.E.unavailability);
          Tbl.i r.E.retransmissions;
        ])
      [
        ("no faults", Net.no_faults);
        ("split 30..70", { Net.no_faults with Net.partitions = [ split ] });
        ( "split + 5% loss",
          { Net.no_faults with Net.partitions = [ split ]; loss = 0.05 } );
      ]
  in
  Tbl.print
    ~title:"E12b: partition heal — parked requests resume (tree coterie)"
    ~note:
      "During the split no quorum spans both halves, so minority-side \
       requests park (counted as unavailability windows); on heal the \
       reliability layer retransmits and every parked request completes. \
       The run still serves its full quota."
    ~headers:
      [
        ("scenario", Tbl.L);
        ("CS served", Tbl.R);
        ("violations", Tbl.R);
        ("unavail windows", Tbl.R);
        ("unavail time", Tbl.R);
        ("retx", Tbl.R);
      ]
    rows

(* ------------------------------------------------------------------ *)
(* A3: huge-N asymptotics — machine-checked sqrt(N)/log(N) scaling     *)
(* ------------------------------------------------------------------ *)

(* The paper's complexity claims are asymptotic: K = O(sqrt N) for grid and
   FPP coteries, O(log N) for the Agrawal-El Abbadi tree, with message cost
   3(K-1)..6(K-1) and sync delay ~T regardless of N. Small-N tables cannot
   distinguish sqrt(N) from N/2; this sweep runs the same protocol at
   N = 10^3..10^6 (lazy assignments, lazy site instantiation, sparse
   channels) and machine-checks every tier against the Section 5 bands with
   K measured from the live quorums. *)

let asymptotics () =
  let max_n =
    match Sys.getenv_opt "DMX_A3_MAX_N" with
    | Some s -> (
      match int_of_string_opt s with
      | Some v when v > 0 -> v
      | _ -> failwith "DMX_A3_MAX_N must be a positive integer")
    | None -> 1_000_000
  in
  (* (nominal tier, FPP universe): FPP needs N = q^2+q+1 with q prime, so
     its universes sit just under the round tiers (q = 31, 97, 313, 997). *)
  let tiers =
    List.filter
      (fun (nominal, _) -> nominal <= max_n)
      [ (1_000, 993); (10_000, 9_507); (100_000, 98_283); (1_000_000, 995_007) ]
  in
  if tiers = [] then
    failwith "DMX_A3_MAX_N too small: the first tier is N=1000";
  let kinds = [ B.Grid; B.Fpp; B.Tree ] in
  let active = 8 in
  let t_delay = 1.0 in
  let heavy_cs = 2.0 in
  let module M = E.Make (Dmx_core.Delay_optimal) in
  let word_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0) in
  let failures = ref [] in
  (* sequential on purpose: a 10^6-site grid row alone peaks near 0.8 GB,
     and running rows side by side would multiply peak heap *)
  let rows =
    List.concat_map
      (fun (nominal, fpp_n) ->
        List.map
          (fun kind ->
            let n = match kind with B.Fpp -> fpp_n | _ -> nominal in
            if not (B.supports kind ~n) then
              failwith
                (Printf.sprintf "A3: %s does not support n=%d" (B.kind_name kind) n);
            let a = B.assignment kind ~n in
            (* K as the protocol will actually pay it: the mean quorum size
               over the sites that request. *)
            let k =
              let sum =
                List.fold_left
                  (fun acc s ->
                    acc + List.length (Dmx_quorum.Coterie.quorum_of a s))
                  0
                  (List.init active Fun.id)
              in
              float_of_int sum /. float_of_int active
            in
            let pcfg = Dmx_core.Delay_optimal.config_of_assignment a in
            let base =
              {
                (E.default ~n) with
                E.lazy_sites = true;
                delay = Net.Constant t_delay;
                max_time = 1.0e9;
              }
            in
            let cfg_l =
              {
                base with
                E.workload = W.Open_loop { active; rate_per_site = 5e-4 };
                cs_duration = 1.0;
                max_executions = execs 100;
                warmup = 5;
              }
            in
            let cfg_h =
              {
                base with
                E.workload = W.Saturated { contenders = active };
                cs_duration = heavy_cs;
                max_executions = execs 300;
                warmup = 30;
              }
            in
            let l = check (M.run cfg_l pcfg) in
            let h = check (M.run cfg_h pcfg) in
            let src load =
              Printf.sprintf "A3 %s N=%d %s" (B.kind_name kind) n load
            in
            let p ~e load =
              {
                Mdl.algorithm = "delay-optimal";
                n;
                k;
                e;
                t = t_delay;
                load;
                delay_shape = Mdl.Constant;
              }
            in
            let judge source exp value =
              Validate.record_check ~source exp value;
              Mdl.check ~source exp value
            in
            let verdicts =
              List.map
                (fun exp -> judge (src "light") exp l.E.messages_per_cs)
                (Mdl.asymptotic_expectations (p ~e:1.0 Mdl.Light))
              @ List.filter_map
                  (fun exp ->
                    match exp.Mdl.metric with
                    | Mdl.Msgs_per_cs ->
                      Some (judge (src "heavy") exp h.E.messages_per_cs)
                    | Mdl.Sync_delay ->
                      Some (judge (src "heavy") exp (mean h.E.sync_delay))
                    | _ -> None)
                  (Mdl.asymptotic_expectations (p ~e:heavy_cs Mdl.Heavy))
            in
            let bad = List.filter (fun v -> not v.Mdl.ok) verdicts in
            failures := !failures @ bad;
            [
              B.kind_name kind;
              Tbl.i n;
              Tbl.f1 k;
              Tbl.f1 l.E.messages_per_cs;
              Tbl.f1 h.E.messages_per_cs;
              Tbl.f2 (mean h.E.sync_delay /. t_delay);
              Tbl.f1 (word_mb (Gc.quick_stat ()).Gc.top_heap_words);
              Printf.sprintf "%d/%d" (List.length verdicts - List.length bad)
                (List.length verdicts);
            ])
          kinds)
      tiers
  in
  Tbl.print
    ~title:
      (Printf.sprintf
         "A3 (5.3): huge-N asymptotics, machine-checked (N up to %d, %d \
          active sites)"
         (fst (List.nth tiers (List.length tiers - 1)))
         active)
    ~note:
      "Lazy coteries + lazy site instantiation + sparse channels: memory \
       follows the active set, not N. K is measured from the live quorums; \
       each row is checked against 3(K-1) light, the 3(K-1)..6(K-1) heavy \
       envelope, and sync delay T..1.5T (Section 5 closed forms). 'heap' \
       is the process-wide peak after the row, so it is monotone across \
       rows; the last cell is the whole sweep's peak."
    ~headers:
      [
        ("construction", Tbl.L);
        ("N", Tbl.R);
        ("K", Tbl.R);
        ("light msgs", Tbl.R);
        ("heavy msgs", Tbl.R);
        ("sync/T", Tbl.R);
        ("heap MB", Tbl.R);
        ("bands", Tbl.R);
      ]
    rows;
  List.iter (fun v -> Printf.printf "  BAND MISS: %s\n" v.Mdl.message) !failures;
  if !failures <> [] then
    failwith
      (Printf.sprintf "A3: %d measurement(s) outside the Section 5 bands"
         (List.length !failures))
