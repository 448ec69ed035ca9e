(* M1: micro-benchmarks of the substrates (bechamel, OLS estimate of
   ns/run). These are not paper experiments; they document that the
   simulator core is fast enough for the parameter sweeps above. *)

open Bechamel
open Toolkit

let make_tests () =
  let rng = Dmx_sim.Rng.create 1 in
  let quorum name kind n =
    Test.make ~name:(Printf.sprintf "%s n=%d" name n)
      (Staged.stage (fun () ->
           ignore (Dmx_quorum.Builder.req_sets kind ~n : int list array)))
  in
  (* Both queue micros drain with [pop], the engine's allocation-free path. *)
  let event_queue_churn n =
    Test.make ~name:(Printf.sprintf "event-queue churn %d" n)
      (Staged.stage (fun () ->
           let q = Dmx_sim.Event_queue.create () in
           for i = 0 to n - 1 do
             Dmx_sim.Event_queue.schedule q
               ~time:(Dmx_sim.Rng.float rng 1000.0)
               i
           done;
           while not (Dmx_sim.Event_queue.is_empty q) do
             ignore (Dmx_sim.Event_queue.pop q)
           done))
  in
  let event_queue_drop n =
    (* the engine's crash path: purge half the queue, then drain *)
    Test.make ~name:(Printf.sprintf "event-queue drop_if %d" n)
      (Staged.stage (fun () ->
           let q = Dmx_sim.Event_queue.create () in
           for i = 0 to n - 1 do
             Dmx_sim.Event_queue.schedule q
               ~time:(Dmx_sim.Rng.float rng 1000.0)
               i
           done;
           ignore (Dmx_sim.Event_queue.drop_if q (fun i -> i land 1 = 0));
           while not (Dmx_sim.Event_queue.is_empty q) do
             ignore (Dmx_sim.Event_queue.pop q)
           done))
  in
  let sim_run n =
    let req_sets = Dmx_quorum.Builder.req_sets Grid ~n in
    let module M = Dmx_sim.Engine.Make (Dmx_core.Delay_optimal) in
    Test.make ~name:(Printf.sprintf "simulate 50 CS, n=%d" n)
      (Staged.stage (fun () ->
           ignore
             (M.run
                {
                  (Dmx_sim.Engine.default ~n) with
                  max_executions = 50;
                  warmup = 0;
                }
                (Dmx_core.Delay_optimal.config req_sets))))
  in
  Test.make_grouped ~name:"micro"
    [
      quorum "grid" Dmx_quorum.Builder.Grid 1024;
      quorum "tree" Dmx_quorum.Builder.Tree 1023;
      quorum "fpp" Dmx_quorum.Builder.Fpp 307;
      quorum "hqc" Dmx_quorum.Builder.Hqc 729;
      event_queue_churn 10_000;
      event_queue_drop 10_000;
      sim_run 25;
      sim_run 81;
    ]

let run () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (make_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.0f" e
        | _ -> "?"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; ns; r2 ] :: !rows)
    results;
  Tbl.print ~title:"M1: substrate micro-benchmarks (bechamel)"
    ~note:"OLS estimate of monotonic-clock ns per run."
    ~headers:[ ("benchmark", Tbl.L); ("ns/run", Tbl.R); ("r^2", Tbl.R) ]
    (List.sort compare !rows)
