(** Arbiter request queue: a small priority queue of request timestamps,
    highest priority (smallest timestamp) first.

    Queues hold at most one entry per site (a site has at most one
    outstanding request, Section 2) and are short (bounded by the number of
    sites whose quorum contains this arbiter); removal by site id is needed
    by the release path and the Section 6 failure cleanup.

    The queue is a sorted array. Insertion and removal shift entries in
    place; they allocate only when the capacity changes. The value is
    canonical: unused slots are cleared and the capacity depends on the
    length alone, so two queues with the same entries are equal under
    polymorphic equality, whatever sequence of operations built them. The
    model checker relies on this to recognise revisited states. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent queue with the same entries. *)

val is_empty : t -> bool
val length : t -> int

val insert : t -> Dmx_sim.Timestamp.t -> unit
(** At most one entry per site, keeping the newest (largest sequence
    number): a re-issued request supersedes the old one, while a stale
    re-enqueue of an already-superseded request is dropped. *)

val head : t -> Dmx_sim.Timestamp.t option
(** Highest-priority entry, not removed. *)

val pop : t -> Dmx_sim.Timestamp.t option
val remove_site : t -> int -> bool
(** Remove the entry of the given site; returns whether one was present. *)

val remove_ts : t -> Dmx_sim.Timestamp.t -> bool
(** Remove exactly this timestamp's entry; a newer request from the same
    site is left alone. *)

val mem_site : t -> int -> bool
val find_site : t -> int -> Dmx_sim.Timestamp.t option
val to_list : t -> Dmx_sim.Timestamp.t list
(** Priority order. *)

val clear : t -> unit
