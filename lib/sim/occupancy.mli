(** Independent critical-section occupancy scan over a merged trace.

    The oracle checks mutual exclusion as one of many whole-trace
    properties; live runs also count CS overlap with this deliberately
    simple, separate scan, so a bug in either checker cannot hide a
    violation alone. A violation is counted on every [Enter_cs] that
    finds another tenure already open; a site's tenure ends at its
    [Exit_cs] or at its [Crash]. *)

val scan : n:int -> Trace.entry list -> int
(** CS entries in a time-sorted trace of [n] sites that overlapped
    another open tenure (must be 0). *)
