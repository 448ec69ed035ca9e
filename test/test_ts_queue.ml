(* The arbiter's priority queue of request timestamps. *)

module Ts = Dmx_sim.Timestamp
module Q = Dmx_core.Ts_queue

let ts sn site = { Ts.sn; site }

let test_priority_order () =
  let q = Q.create () in
  Q.insert q (ts 3 1);
  Q.insert q (ts 1 2);
  Q.insert q (ts 2 0);
  Alcotest.(check bool) "head is (1,2)" true
    (match Q.head q with Some h -> Ts.equal h (ts 1 2) | None -> false);
  Alcotest.(check (list string)) "full order"
    [ "(1,2)"; "(2,0)"; "(3,1)" ]
    (List.map (Format.asprintf "%a" Ts.pp) (Q.to_list q))

let test_same_site_replaces () =
  let q = Q.create () in
  Q.insert q (ts 5 3);
  Q.insert q (ts 9 3);
  Alcotest.(check int) "one entry" 1 (Q.length q);
  Alcotest.(check bool) "newest kept" true
    (match Q.head q with Some h -> Ts.equal h (ts 9 3) | None -> false)

let test_stale_insert_dropped () =
  (* an out-of-order re-enqueue of a superseded request must not clobber
     the site's newer entry *)
  let q = Q.create () in
  Q.insert q (ts 9 3);
  Q.insert q (ts 5 3);
  Alcotest.(check int) "one entry" 1 (Q.length q);
  Alcotest.(check bool) "newer survives" true
    (match Q.head q with Some h -> Ts.equal h (ts 9 3) | None -> false)

let test_pop () =
  let q = Q.create () in
  Q.insert q (ts 2 2);
  Q.insert q (ts 1 1);
  Alcotest.(check bool) "pop best" true
    (match Q.pop q with Some h -> Ts.equal h (ts 1 1) | None -> false);
  Alcotest.(check int) "one left" 1 (Q.length q);
  Alcotest.(check bool) "empty pop" true (Q.pop q <> None && Q.pop q = None)

let test_remove_site () =
  let q = Q.create () in
  Q.insert q (ts 1 1);
  Q.insert q (ts 2 2);
  Alcotest.(check bool) "removed" true (Q.remove_site q 1);
  Alcotest.(check bool) "absent now" false (Q.mem_site q 1);
  Alcotest.(check bool) "remove missing" false (Q.remove_site q 9)

let test_remove_ts_exact () =
  let q = Q.create () in
  Q.insert q (ts 7 4);
  (* removing an OLD timestamp of the same site must not touch the newer *)
  Alcotest.(check bool) "old ts not present" false (Q.remove_ts q (ts 3 4));
  Alcotest.(check bool) "still queued" true (Q.mem_site q 4);
  Alcotest.(check bool) "exact removes" true (Q.remove_ts q (ts 7 4));
  Alcotest.(check bool) "gone" true (Q.is_empty q)

let test_find_site () =
  let q = Q.create () in
  Q.insert q (ts 6 2);
  Alcotest.(check bool) "found" true
    (match Q.find_site q 2 with Some t -> Ts.equal t (ts 6 2) | None -> false);
  Alcotest.(check bool) "missing" true (Q.find_site q 5 = None)

let test_clear () =
  let q = Q.create () in
  Q.insert q (ts 1 1);
  Q.clear q;
  Alcotest.(check bool) "empty" true (Q.is_empty q)

let qcheck_sorted =
  QCheck.Test.make ~name:"ts_queue keeps priority order" ~count:300
    QCheck.(list (pair (int_range 0 20) (int_range 0 10)))
    (fun entries ->
      let q = Q.create () in
      List.iter (fun (sn, site) -> Q.insert q (ts sn site)) entries;
      let l = Q.to_list q in
      (* sorted by priority *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> Ts.compare a b < 0 && sorted rest
        | _ -> true
      in
      (* at most one entry per site *)
      let sites = List.map (fun (t : Ts.t) -> t.site) l in
      sorted l && List.length sites = List.length (List.sort_uniq compare sites))

(* The list implementation the sorted array replaced, kept as the
   reference model. *)
module Ref = struct
  type t = { mutable entries : Ts.t list }

  let create () = { entries = [] }

  let insert t ts =
    let newer_exists =
      List.exists
        (fun (e : Ts.t) -> e.site = ts.Ts.site && e.sn >= ts.Ts.sn)
        t.entries
    in
    if not newer_exists then begin
      let without =
        List.filter (fun (e : Ts.t) -> e.site <> ts.Ts.site) t.entries
      in
      let rec ins = function
        | [] -> [ ts ]
        | e :: rest as l ->
          if Ts.compare ts e < 0 then ts :: l else e :: ins rest
      in
      t.entries <- ins without
    end

  let pop t =
    match t.entries with
    | [] -> None
    | e :: rest ->
      t.entries <- rest;
      Some e

  let remove_site t site =
    let before = List.length t.entries in
    t.entries <- List.filter (fun (e : Ts.t) -> e.site <> site) t.entries;
    List.length t.entries < before

  let remove_ts t ts =
    let before = List.length t.entries in
    t.entries <- List.filter (fun e -> not (Ts.equal e ts)) t.entries;
    List.length t.entries < before
end

type tq_op =
  | Insert of int * int
  | Pop
  | Remove_site of int
  | Remove_ts of int * int
  | Clear
  | Copy

let qcheck_matches_list_model =
  let sites = 12 in
  let op =
    QCheck.Gen.(
      let site = 0 -- (sites - 1) in
      frequency
        [
          (8, map (fun (sn, s) -> Insert (sn, s)) (pair (0 -- 30) site));
          (2, return Pop);
          (2, map (fun s -> Remove_site s) site);
          (2, map (fun (sn, s) -> Remove_ts (sn, s)) (pair (0 -- 30) site));
          (1, return Copy);
          (1, return Clear);
        ])
  in
  let print = function
    | Insert (sn, s) -> Printf.sprintf "insert (%d,%d)" sn s
    | Pop -> "pop"
    | Remove_site s -> Printf.sprintf "remove_site %d" s
    | Remove_ts (sn, s) -> Printf.sprintf "remove_ts (%d,%d)" sn s
    | Clear -> "clear"
    | Copy -> "copy"
  in
  QCheck.Test.make ~name:"matches the list model; canonical; copies independent"
    ~count:500
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (0 -- 120) op))
    (fun ops ->
      let q = Q.create () and r = Ref.create () in
      let copies = ref [] in
      let agrees () =
        Q.to_list q = r.Ref.entries
        && Q.length q = List.length r.Ref.entries
        && Q.is_empty q = (r.Ref.entries = [])
        && Q.head q = (match r.Ref.entries with e :: _ -> Some e | [] -> None)
        && List.for_all
             (fun s ->
               Q.find_site q s
               = List.find_opt (fun (e : Ts.t) -> e.site = s) r.Ref.entries
               && Q.mem_site q s = (Q.find_site q s <> None))
             (List.init sites Fun.id)
      in
      let step = function
        | Insert (sn, s) ->
          Q.insert q (ts sn s);
          Ref.insert r (ts sn s);
          true
        | Pop -> Q.pop q = Ref.pop r
        | Remove_site s -> Q.remove_site q s = Ref.remove_site r s
        | Remove_ts (sn, s) ->
          Q.remove_ts q (ts sn s) = Ref.remove_ts r (ts sn s)
        | Clear ->
          Q.clear q;
          r.Ref.entries <- [];
          true
        | Copy ->
          copies := (Q.copy q, r.Ref.entries) :: !copies;
          true
      in
      List.for_all (fun o -> step o && agrees ()) ops
      (* copies taken along the way saw none of the later operations *)
      && List.for_all (fun (c, snapshot) -> Q.to_list c = snapshot) !copies
      &&
      (* equal contents reached by another history are an equal value *)
      let fresh = Q.create () in
      List.iter (Q.insert fresh) (List.rev (Q.to_list q));
      fresh = q)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("priority order", test_priority_order);
      ("same site replaces", test_same_site_replaces);
      ("stale insert dropped", test_stale_insert_dropped);
      ("pop", test_pop);
      ("remove by site", test_remove_site);
      ("remove exact timestamp", test_remove_ts_exact);
      ("find_site", test_find_site);
      ("clear", test_clear);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_sorted;
      QCheck_alcotest.to_alcotest qcheck_matches_list_model;
    ]
