type hdata = { buckets : int array; count : int; sum : int; max : int }

type value =
  | Counter of int
  | Gauge of int
  | Histogram of hdata

type series = { name : string; labels : (string * string) list; value : value }
type t = series list

let empty : t = []

let compare_labels = List.compare (fun (a, _) (b, _) -> String.compare a b)

let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> (
    match compare_labels a.labels b.labels with
    | 0 ->
      List.compare
        (fun (_, x) (_, y) -> String.compare x y)
        a.labels b.labels
    | c -> c)
  | c -> c

let series ~name ~labels value =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  { name; labels; value }

let normalize l =
  let l = List.map (fun s -> series ~name:s.name ~labels:s.labels s.value) l in
  let l = List.sort compare_key l in
  let rec dup = function
    | a :: (b :: _ as rest) ->
      if compare_key a b = 0 then
        invalid_arg (Printf.sprintf "Obs.Snapshot: duplicate series %s" a.name)
      else dup rest
    | _ -> ()
  in
  dup l;
  l

let add_values name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x + y)
  | Histogram x, Histogram y ->
    Histogram
      {
        buckets = Array.map2 ( + ) x.buckets y.buckets;
        count = x.count + y.count;
        sum = x.sum + y.sum;
        max = Stdlib.max x.max y.max;
      }
  | _ ->
    invalid_arg (Printf.sprintf "Obs.Snapshot.merge: kind mismatch on %s" name)

let sub_values name newer older =
  match (newer, older) with
  | Counter x, Counter y -> Counter (x - y)
  | Gauge x, Gauge y -> Gauge (x - y)
  | Histogram x, Histogram y ->
    Histogram
      {
        buckets = Array.map2 ( - ) x.buckets y.buckets;
        count = x.count - y.count;
        sum = x.sum - y.sum;
        max = x.max;
      }
  | _ ->
    invalid_arg (Printf.sprintf "Obs.Snapshot.diff: kind mismatch on %s" name)

(* Sorted-merge of two canonical snapshots with [combine] on key hits. *)
let rec zip combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys -> (
    match compare_key x y with
    | 0 -> { x with value = combine x.name x.value y.value } :: zip combine xs ys
    | c when c < 0 -> x :: zip combine xs (y :: ys)
    | _ -> y :: zip combine (x :: xs) ys)

let merge a b = zip add_values a b
let merge_all = List.fold_left merge []

let diff ~older ~newer =
  (* series only in [older] are dropped: a vanished series has no rate *)
  let rec go n o =
    match (n, o) with
    | [], _ -> []
    | l, [] -> l
    | x :: xs, y :: ys -> (
      match compare_key x y with
      | 0 -> { x with value = sub_values x.name x.value y.value } :: go xs ys
      | c when c < 0 -> x :: go xs (y :: ys)
      | _ -> go (x :: xs) ys)
  in
  go newer older

let find ?(labels = []) t name =
  let key = series ~name ~labels (Counter 0) in
  List.find_opt (fun s -> compare_key s key = 0) t
  |> Option.map (fun s -> s.value)

let scalar = function
  | Counter v | Gauge v -> v
  | Histogram h -> h.count

let get ?labels t name =
  match find ?labels t name with None -> 0 | Some v -> scalar v

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + scalar s.value else acc)
    0 t

let quantile (h : hdata) p =
  if h.count = 0 then (
    ignore (Quantile.nearest_rank ~count:1 p);
    0)
  else begin
    let rank = Quantile.nearest_rank ~count:h.count p in
    let b = ref 0 and seen = ref 0 in
    while !seen + h.buckets.(!b) <= rank do
      seen := !seen + h.buckets.(!b);
      incr b
    done;
    Stdlib.min (Metric.Histogram.bucket_upper !b) h.max
  end

let label_suffix = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let to_alist t =
  List.filter_map
    (fun s ->
      let v = scalar s.value in
      if v = 0 then None else Some (s.name ^ label_suffix s.labels, v))
    t

let sum_matching ~prefix t =
  let n = String.length prefix in
  List.fold_left
    (fun acc s ->
      if String.length s.name >= n && String.sub s.name 0 n = prefix then
        acc + scalar s.value
      else acc)
    0 t
