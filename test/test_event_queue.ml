(* Event queue: time order, deterministic tie-breaking, clock discipline. *)

module Eq = Dmx_sim.Event_queue

let drain q =
  let rec loop acc =
    match Eq.next q with
    | None -> List.rev acc
    | Some ev -> loop ((ev.Eq.time, ev.Eq.payload) :: acc)
  in
  loop []

let test_time_order () =
  let q = Eq.create () in
  Eq.schedule q ~time:3.0 "c";
  Eq.schedule q ~time:1.0 "a";
  Eq.schedule q ~time:2.0 "b";
  Alcotest.(check (list (pair (float 0.0) string)))
    "ordered" [ (1.0, "a"); (2.0, "b"); (3.0, "c") ] (drain q)

let test_tie_break_is_insertion_order () =
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:1.0 p) [ "x"; "y"; "z" ];
  Alcotest.(check (list string))
    "fifo among equals" [ "x"; "y"; "z" ]
    (List.map snd (drain q))

let test_clock_advances () =
  let q = Eq.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Eq.now q);
  Eq.schedule q ~time:5.0 ();
  ignore (Eq.next q);
  Alcotest.(check (float 0.0)) "now is 5" 5.0 (Eq.now q)

let test_no_scheduling_into_past () =
  let q = Eq.create () in
  Eq.schedule q ~time:5.0 ();
  ignore (Eq.next q);
  Alcotest.(check bool) "raises" true
    (try
       Eq.schedule q ~time:4.0 ();
       false
     with Invalid_argument _ -> true)

let test_schedule_at_now_ok () =
  let q = Eq.create () in
  Eq.schedule q ~time:5.0 "first";
  ignore (Eq.next q);
  Eq.schedule q ~time:5.0 "second";
  match Eq.next q with
  | Some { payload = "second"; time = 5.0; _ } -> ()
  | _ -> Alcotest.fail "expected second at t=5"

let test_rejects_nan () =
  let q = Eq.create () in
  Alcotest.(check bool) "nan rejected" true
    (try
       Eq.schedule q ~time:Float.nan ();
       false
     with Invalid_argument _ -> true)

let test_peek_time () =
  let q = Eq.create () in
  Alcotest.(check (option (float 0.0))) "empty" None (Eq.peek_time q);
  Eq.schedule q ~time:2.0 ();
  Eq.schedule q ~time:1.0 ();
  Alcotest.(check (option (float 0.0))) "min" (Some 1.0) (Eq.peek_time q)

let test_drop_if () =
  let q = Eq.create () in
  List.iteri (fun i p -> Eq.schedule q ~time:(float_of_int i) p) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "dropped" 2 (Eq.drop_if q (fun p -> p mod 2 = 1));
  Alcotest.(check (list int)) "evens" [ 0; 2; 4 ] (List.map snd (drain q))

let test_drop_if_preserves_tie_break () =
  (* Survivors of a drop keep their original insertion seq, so equal-time
     events still drain in insertion order — the engine depends on this
     when a crash purges a site's events mid-run. *)
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:1.0 p) [ "a"; "b"; "c"; "d"; "e"; "f" ];
  Alcotest.(check int) "dropped" 2 (Eq.drop_if q (fun p -> p = "b" || p = "e"));
  Alcotest.(check (list string))
    "insertion order among equals survives the drop"
    [ "a"; "c"; "d"; "f" ]
    (List.map snd (drain q))

let test_drop_if_interleaves_late_inserts () =
  (* After a drop, new events at the same time still sort behind the
     surviving older ones. *)
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:2.0 p) [ 10; 11; 12 ];
  ignore (Eq.drop_if q (fun p -> p = 11));
  Eq.schedule q ~time:2.0 13;
  Alcotest.(check (list int)) "old-then-new among equals" [ 10; 12; 13 ]
    (List.map snd (drain q))

let qcheck_drop_if_order =
  QCheck.Test.make ~name:"drop_if preserves (time, seq) order" ~count:300
    QCheck.(pair (list (float_bound_inclusive 100.0)) small_int)
    (fun (times, m) ->
      let q = Eq.create () in
      List.iteri (fun i t -> Eq.schedule q ~time:t (i, t)) times;
      let keep (i, _) = i mod (1 + m) <> 0 in
      let dropped = Eq.drop_if q (fun p -> not (keep p)) in
      let drained = drain q in
      let rec ordered = function
        | (t1, (i1, _)) :: ((t2, (i2, _)) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      dropped + List.length drained = List.length times
      && List.for_all (fun (_, p) -> keep p) drained
      && ordered drained)

let test_length () =
  let q = Eq.create () in
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Eq.schedule q ~time:1.0 ();
  Eq.schedule q ~time:2.0 ();
  Alcotest.(check int) "two" 2 (Eq.length q)

let qcheck_ordered_drain =
  QCheck.Test.make ~name:"events drain in (time, seq) order" ~count:300
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Eq.create () in
      List.iteri (fun i t -> Eq.schedule q ~time:t (i, t)) times;
      let drained = drain q in
      (* times non-decreasing, and among equal times the indices ascend *)
      let rec ok = function
        | (t1, (i1, _)) :: ((t2, (i2, _)) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ok rest
        | _ -> true
      in
      ok drained)

(* The heap against a sorted-list reference, over interleaved schedules,
   pops (through both [pop] and [next]) and drops. Times are drawn from a
   few offsets of [now], so ties are common and the (time, seq) order is
   what decides. *)
type eq_op = Schedule of int | Pop | Next | Drop of int

let qcheck_matches_sorted_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun d -> Schedule d) (0 -- 3));
          (3, return Pop);
          (2, return Next);
          (1, map (fun m -> Drop m) (2 -- 4));
        ])
  in
  let print = function
    | Schedule d -> Printf.sprintf "schedule +%d" d
    | Pop -> "pop"
    | Next -> "next"
    | Drop m -> Printf.sprintf "drop mod %d" m
  in
  QCheck.Test.make ~name:"matches a sorted-list reference" ~count:500
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (0 -- 300) op))
    (fun ops ->
      let q = Eq.create () in
      (* reference: (time, seq) pairs in pop order; the seq is the payload *)
      let pending = ref [] and now = ref 0.0 and seq = ref 0 in
      let take () =
        match !pending with
        | [] -> None
        | ((t, _) as e) :: rest ->
          pending := rest;
          now := t;
          Some e
      in
      let step = function
        | Schedule d ->
          let time = !now +. (0.5 *. float_of_int d) in
          Eq.schedule q ~time !seq;
          pending := List.merge compare !pending [ (time, !seq) ];
          incr seq;
          true
        | Pop -> (
          match take () with
          | None -> Eq.is_empty q
          | Some (t, s) -> Eq.pop q = s && Eq.now q = t)
        | Next -> (
          match (take (), Eq.next q) with
          | None, None -> true
          | Some (t, s), Some ev ->
            ev.Eq.payload = s && ev.Eq.seq = s && ev.Eq.time = t && Eq.now q = t
          | _ -> false)
        | Drop m ->
          let doomed (_, s) = s mod m = 0 in
          let want = List.length (List.filter doomed !pending) in
          pending := List.filter (fun e -> not (doomed e)) !pending;
          Eq.drop_if q (fun s -> s mod m = 0) = want
      in
      List.for_all
        (fun o ->
          step o
          && Eq.length q = List.length !pending
          && Eq.peek_time q = Option.map fst (List.nth_opt !pending 0))
        ops)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("time order", test_time_order);
      ("tie-break by insertion", test_tie_break_is_insertion_order);
      ("clock advances", test_clock_advances);
      ("no past scheduling", test_no_scheduling_into_past);
      ("schedule at current time", test_schedule_at_now_ok);
      ("rejects nan", test_rejects_nan);
      ("peek_time", test_peek_time);
      ("drop_if", test_drop_if);
      ("drop_if keeps tie-break", test_drop_if_preserves_tie_break);
      ("drop_if then insert at same time", test_drop_if_interleaves_late_inserts);
      ("length / is_empty", test_length);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_ordered_drain;
      QCheck_alcotest.to_alcotest qcheck_drop_if_order;
      QCheck_alcotest.to_alcotest qcheck_matches_sorted_reference;
    ]
