(** Deterministic pseudo-random number generation.

    A from-scratch implementation of the xoshiro256++ generator seeded
    through splitmix64. Simulations must be bit-reproducible across runs,
    machines and OCaml releases, so we do not rely on [Stdlib.Random]
    (whose algorithm changed between OCaml versions). Each consumer
    (network delays, the workload, fault draws) gets its own independent
    stream derived from the master seed, so adding randomness consumption
    at one consumer never perturbs another's stream. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    identical streams. *)

val split : t -> t
(** [split t] derives a new generator whose future output is independent of
    [t]'s. Used to give each consumer its own stream. *)

val skip : t -> int -> unit
(** [skip t k] advances [t] past [k] outputs: afterwards [t] is in the
    state [k] calls of {!int64} (or [k] calls of {!split}) would have left
    it in. Costs [k] state updates and allocates nothing per step; a
    non-positive [k] leaves [t] unchanged. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (inverse-CDF method). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
