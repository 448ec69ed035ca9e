(** Network model: message delays, FIFO channels, site crashes, and
    injected faults.

    Implements the system model of Section 2 of the paper: sites are fully
    connected, channels are FIFO, message delay is unpredictable but bounded,
    with mean delay [T]. Crash support (used by the Section 6 fault-tolerance
    experiments) marks sites dead; messages to or from a dead site are
    silently dropped, as in a fail-stop model.

    Beyond the paper's model, a seeded deterministic {!fault_plan} can
    subject every channel to message loss, duplication, scheduled network
    partitions, and delay spikes. Faults are drawn from a dedicated
    generator, so two runs with the same seeds inject the same faults. *)

type delay_model =
  | Constant of float  (** every message takes exactly this long *)
  | Uniform of { lo : float; hi : float }  (** uniform in [lo, hi] *)
  | Exponential of { mean : float }  (** memoryless; heavy tail *)
  | Shifted_exponential of { base : float; extra_mean : float }
      (** a wire latency plus exponential queueing: [base + Exp(extra_mean)] *)

val mean_delay : delay_model -> float
(** The average message delay [T] of the model. *)

val pp_delay_model : Format.formatter -> delay_model -> unit

type partition = { from_t : float; until : float; groups : int list list }
(** During [[from_t, until)] only sites within the same group can exchange
    messages. Sites not listed in any group form one implicit rest-group.
    An infinite [until] never heals. *)

type fault_plan = {
  loss : float;  (** per-message drop probability, in [0, 1) *)
  duplication : float;  (** per-message duplicate probability, in [0, 1) *)
  partitions : partition list;
  delay_spikes : (float * float * float) list;
      (** [(from_t, until, factor)]: delays sampled in the window are
          multiplied by [factor]; overlapping spikes compound. *)
}

val no_faults : fault_plan

type drop_reason = [ `Down | `Partitioned | `Faulty ]

type verdict =
  | Delivered of float list
      (** delivery timestamps: one per copy (duplication can yield two) *)
  | Lost of drop_reason

type t

type channel_repr =
  | Sparse
      (** The one channel representation. This type and the ignored
          [?channels] argument of {!create} are kept only because the
          benchmark harness passes [~channels:Sparse]; both go with the
          next change to the benchmark. *)

val create :
  ?channels:channel_repr -> ?faults:fault_plan -> ?fault_rng:Rng.t ->
  n:int -> delay:delay_model -> rng:Rng.t -> unit -> t
(** [create ~n ~delay ~rng ()] models a fully connected network of [n]
    sites. The generator is consumed for delay sampling; pass a dedicated
    split. [channels] is ignored. [faults] defaults to {!no_faults}; fault
    draws consume [fault_rng] (a fixed-seed generator when omitted), never
    [rng], so the delay stream is identical with and without faults.

    The per-channel FIFO watermarks live in one open-addressing table
    keyed by [src * n + dst], with the times unboxed in a flat
    [float array]. An entry is created on a channel's first delivered
    message, so memory follows the touched links rather than N², which
    is what lets a universe of 10⁶ sites run.
    @raise Invalid_argument on malformed plans: probabilities outside
    [0, 1), empty windows, overlapping or out-of-range partition groups,
    non-positive spike factors. *)

val n : t -> int

val fault_plan : t -> fault_plan

val transmit_into :
  t -> src:int -> dst:int -> now:float -> float array -> int
(** [transmit_into t ~src ~dst ~now times] is the full fault-aware send,
    without allocation. It returns the number of delivered copies, 1 or 2
    (duplication), and writes their delivery times to [times.(0)] and
    [times.(1)]; [times] needs two cells. It returns 0 when the message was
    lost; {!last_drop} then says why. Successive delivered copies on the
    same (src, dst) pair have non-decreasing times, preserving the FIFO
    channel guarantee even under random per-message delays. Lost messages
    do not advance the FIFO watermark. Draw order: the loss draw on
    [fault_rng], then one delay sample per copy on [rng], the duplication
    draw on [fault_rng] between the two. *)

val last_drop : t -> drop_reason
(** Why the last message {!transmit_into} reported lost was lost. *)

val transmit : t -> src:int -> dst:int -> now:float -> verdict
(** {!transmit_into} as a {!verdict}: the delivery time of every
    surviving copy, or why the message was lost. *)

val delivery_time : t -> src:int -> dst:int -> now:float -> float option
(** Compatibility wrapper over {!transmit}: the first surviving copy's
    delivery timestamp, or [None] if the message was lost for any reason
    (endpoint down, partition, or injected loss). Duplicate copies are
    dropped; use {!transmit} to schedule them. *)

val partition_edges : t -> (float * bool) list
(** Every scheduled partition boundary as [(time, is_heal)], split events
    first per partition. Infinite heals are omitted. *)

val crash : t -> int -> unit
(** Mark a site fail-stopped. Idempotent. *)

val recover : t -> int -> unit
(** Bring a crashed site back. Its channels restart empty: the per-pair
    FIFO delivery watermarks touching the site are reset, so the rejoined
    site's first messages are not artificially delayed behind pre-crash
    traffic. *)

val is_up : t -> int -> bool
val up_sites : t -> int list
