(** Exhaustive schedule exploration for small configurations.

    The simulation engine samples one schedule per seed; this module
    explores {e every} reachable interleaving of message deliveries and CS
    exits (respecting per-channel FIFO order) for a bounded scenario —
    each listed site issues exactly one CS request — and checks:

    - {e safety}: no state has two sites in the CS;
    - {e liveness}: every terminal state (no messages in flight, CS free)
      has served all requesters;

    i.e. a small-scope model check of the protocol, complementing the
    randomized property tests. State explosion is tamed by memoizing
    visited global states (protocol states are pure data, so structural
    hashing works); a [max_states] bound guards runaway exploration.

    Protocols must provide a deep-copy (executions branch), must not use
    timers, and must be deterministic. *)

module type CHECKABLE = sig
  include Protocol.PROTOCOL

  val copy_state : state -> state
end

type outcome = {
  states_explored : int;
  distinct_states : int;
  violations : int;  (** schedules reaching a double-entry (must be 0) *)
  stuck_states : int;
      (** terminal states with unserved requesters (deadlocks; must be 0) *)
  completed_schedules : int;  (** terminal states where everyone was served *)
  truncated : bool;  (** hit [max_states] before exhausting the space *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val clean : outcome -> bool
(** A pass with teeth: no violations, no stuck states, at least one
    completed schedule, {e and} the space was exhausted. A truncated
    exploration proves nothing about the unexplored schedules, so it is
    never a clean pass — callers must report it distinctly. *)

module Make (P : CHECKABLE) : sig
  val explore :
    ?max_states:int ->
    ?staggered:bool ->
    ?max_losses:int ->
    n:int ->
    requesters:int list ->
    P.config ->
    outcome
  (** [explore ~n ~requesters config]: all requesters issue their single
      request before any message is delivered (the paper's worst case —
      simultaneous requests), then every delivery/exit interleaving is
      explored. With [staggered:true] the request issuances themselves
      become explorable actions, additionally covering every late-arrival
      schedule (a strictly larger space). With [max_losses > 0] (default 0)
      the adversary may additionally {e drop} up to that many channel-head
      messages anywhere in the schedule: safety must survive every bounded
      loss pattern, though lossy schedules naturally count as stuck rather
      than completed (a protocol without retransmission cannot be live
      under loss). Default [max_states] is 2_000_000. *)
end
