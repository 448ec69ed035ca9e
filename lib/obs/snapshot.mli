(** Immutable captures of a registry: plain data, safe to ship across the
    wire, merge across a fleet, diff across time, and compare for
    bit-identical equality in determinism tests.

    A snapshot is a list of series sorted by [(name, labels)] — the order
    is canonical, so two registries holding the same values always render
    the same snapshot, byte for byte. *)

type hdata = { buckets : int array; count : int; sum : int; max : int }

type value =
  | Counter of int
  | Gauge of int
  | Histogram of hdata

type series = { name : string; labels : (string * string) list; value : value }

type t = series list
(** Sorted by [(name, labels)]; labels themselves sorted by key. *)

val empty : t

val series : name:string -> labels:(string * string) list -> value -> series
(** Canonicalizes (sorts) the labels. *)

val normalize : series list -> t
(** Sort into canonical order. Raises [Invalid_argument] on duplicate
    [(name, labels)] keys. *)

val merge : t -> t -> t
(** Pointwise union: counters and gauges add, histograms add bucketwise
    ([max] is the max of maxes). Series present on one side only pass
    through. Associative and commutative (the qcheck suite checks this).
    Raises [Invalid_argument] when the same key carries different
    instrument kinds. *)

val merge_all : t list -> t

val diff : older:t -> newer:t -> t
(** Pointwise [newer - older] — the rate source for the [top] view.
    Counters and gauges subtract; histograms subtract bucketwise, keeping
    [newer]'s max (maxes do not subtract). Series absent from [older]
    pass through unchanged. *)

val find : ?labels:(string * string) list -> t -> string -> value option
val get : ?labels:(string * string) list -> t -> string -> int
(** The scalar reading of a series: counter/gauge value, histogram count.
    0 when absent. *)

val total : t -> string -> int
(** Sum of the scalar readings of every series called [name], whatever
    its labels — e.g. a per-shard counter summed over shards. *)

val quantile : hdata -> float -> int
(** Same readout as {!Metric.Histogram.quantile}, over shipped data. *)

val to_alist : t -> (string * int) list
(** One scalar per series, labels rendered into the key
    ([name{k=v}]; plain [name] when unlabeled), histograms contributing
    their count. Zero-valued entries are dropped — this is the shape the
    cluster supervisor's "live counters" line prints. *)

val sum_matching : prefix:string -> t -> int
(** Sum of scalar readings of every series whose name starts with
    [prefix]. *)
