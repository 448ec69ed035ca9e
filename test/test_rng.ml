(* Determinism and statistical sanity of the from-scratch xoshiro256++. *)

module Rng = Dmx_sim.Rng

let check = Alcotest.check

let test_same_seed_same_stream () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_different_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.int64 a) (Rng.int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_preserves_stream () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy equals original" (Rng.int64 a) (Rng.int64 b)
  done

let test_split_independence () =
  (* Consuming the child must not perturb the parent: the parent's stream
     after a split equals the stream of a twin that split and discarded. *)
  let a = Rng.create 99 and b = Rng.create 99 in
  let ca = Rng.split a and cb = Rng.split b in
  for _ = 1 to 10 do
    ignore (Rng.int64 ca)
  done;
  ignore cb;
  for _ = 1 to 50 do
    check Alcotest.int64 "parent unperturbed" (Rng.int64 a) (Rng.int64 b)
  done

let test_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "0 <= x < 7" true (x >= 0 && x < 7)
  done

let test_int_rejects_nonpositive () =
  let r = Rng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_uniform_mean () =
  let r = Rng.create 17 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform r ~lo:1.0 ~hi:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2.0" true (abs_float (mean -. 2.0) < 0.02)

let test_exponential_mean () =
  let r = Rng.create 23 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean near 4.0 (got %f)" mean)
    true
    (abs_float (mean -. 4.0) < 0.05)

let test_exponential_nonnegative () =
  let r = Rng.create 29 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "exp >= 0" true (Rng.exponential r ~mean:1.0 >= 0.0)
  done

let test_bool_balance () =
  let r = Rng.create 31 in
  let t = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool r then incr t
  done;
  let frac = float_of_int !t /. float_of_int n in
  Alcotest.(check bool) "fair coin" true (abs_float (frac -. 0.5) < 0.01)

let test_shuffle_permutes () =
  let r = Rng.create 37 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "same multiset" (Array.init 50 Fun.id) sorted

let test_pick_uniformish () =
  let r = Rng.create 41 in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let x = Rng.pick r [| 0; 1; 2; 3 |] in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 9_000 && c < 11_000))
    counts

let test_pick_empty () =
  let r = Rng.create 43 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

let test_chi_square_uniformity () =
  (* 16 buckets, 160k draws: chi-square statistic for a uniform die with
     15 degrees of freedom should be far below 60 (p < 1e-6 territory) *)
  let r = Rng.create 1234 in
  let buckets = 16 in
  let draws = 160_000 in
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let x = Rng.int r buckets in
    counts.(x) <- counts.(x) + 1
  done;
  let expect = float_of_int draws /. float_of_int buckets in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expect in
        acc +. (d *. d /. expect))
      0.0 counts
  in
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.1f < 60" chi2)
    true (chi2 < 60.0)

let test_split_streams_uncorrelated () =
  (* crude cross-correlation between sibling streams must be tiny *)
  let parent = Rng.create 99 in
  let a = Rng.split parent and b = Rng.split parent in
  let m = 50_000 in
  let dot = ref 0 in
  for _ = 1 to m do
    let xa = if Rng.bool a then 1 else -1 in
    let xb = if Rng.bool b then 1 else -1 in
    dot := !dot + (xa * xb)
  done;
  let corr = float_of_int !dot /. float_of_int m in
  Alcotest.(check bool)
    (Printf.sprintf "correlation %.4f small" corr)
    true
    (abs_float corr < 0.02)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"rng int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

(* [skip t k] must leave [t] where [k] draws leave it, and where the
   engine's old set-up loop, one [split] per site, left its master
   stream. Eight following outputs stand in for the opaque state. *)
let qcheck_skip_matches_draws =
  QCheck.Test.make ~name:"skip k = k draws = k splits" ~count:200
    QCheck.(pair small_int (int_range 0 5_000))
    (fun (seed, k) ->
      let skipped = Rng.create seed in
      Rng.skip skipped k;
      let drawn = Rng.create seed in
      for _ = 1 to k do
        ignore (Rng.int64 drawn)
      done;
      let split = Rng.create seed in
      for _ = 1 to k do
        ignore (Rng.split split)
      done;
      List.for_all
        (fun _ ->
          let x = Rng.int64 skipped in
          Int64.equal x (Rng.int64 drawn) && Int64.equal x (Rng.int64 split))
        (List.init 8 Fun.id))

let test_skip_allocates_nothing_per_step () =
  let r = Rng.create 5 in
  Rng.skip r 1;
  let w0 = Gc.minor_words () in
  Rng.skip r 1_000_000;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 10^6 steps" words)
    true (words < 100.0)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("same seed, same stream", test_same_seed_same_stream);
      ("different seeds differ", test_different_seeds_differ);
      ("copy preserves stream", test_copy_preserves_stream);
      ("split independence", test_split_independence);
      ("int bounds", test_int_bounds);
      ("int rejects non-positive bound", test_int_rejects_nonpositive);
      ("float bounds", test_float_bounds);
      ("uniform mean", test_uniform_mean);
      ("exponential mean", test_exponential_mean);
      ("exponential non-negative", test_exponential_nonnegative);
      ("bool is balanced", test_bool_balance);
      ("shuffle permutes", test_shuffle_permutes);
      ("pick is uniformish", test_pick_uniformish);
      ("pick on empty raises", test_pick_empty);
      ("chi-square uniformity", test_chi_square_uniformity);
      ("split streams uncorrelated", test_split_streams_uncorrelated);
      ("skip allocates nothing per step", test_skip_allocates_nothing_per_step);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_int_in_bounds; qcheck_skip_matches_draws ]
