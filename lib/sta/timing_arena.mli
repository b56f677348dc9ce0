(** The per-stage timing store every propagation writes into.

    Each stage owns one slot holding its timing record and the output
    waveform of the solve behind it. Full runs ({!Arrival.propagate},
    {!Parallel.propagate}) fill a fresh store in topological order;
    incremental sessions keep one store for their lifetime, overwrite
    the slots of the stages they re-time, {!resize} it when stages are
    added and {!copy} it when forked. Analyses copy the stored records
    into their timing array, so a record is built once per evaluation.

    A stored output is the solve's own waveform, not a copy: with a
    {!Stage_cache} it is shared read-only with the cache entry (and with
    every other stage that hit it), so it must never be mutated.
    {!level_digest} hashes a level's outputs for the determinism checks.

    Writes go to disjoint per-stage slots, so stages of one level may be
    stored concurrently from different domains without coordination; the
    scheduler's level barrier orders every read of a fanin slot after its
    write. *)

type timing = {
  id : Timing_graph.stage_id;
  arrival_in : float;  (** 50 % crossing time of the switching input *)
  delay : float;  (** stage 50 %-to-50 % delay *)
  slew : float;  (** output 10-90 % transition time *)
  arrival_out : float;
  critical_fanin : Timing_graph.stage_id option;
      (** driver that set [arrival_in]; [None] at primary inputs *)
}
(** One stage's timing; re-exported as {!Arrival.stage_timing}. *)

type t

val create : int -> t
(** Empty store with one slot per stage (no stage stored). *)

val length : t -> int
(** Number of stage slots. *)

val resize : t -> int -> unit
(** Grow to the given number of slots; new slots start empty. Never
    shrinks. *)

val copy : t -> t
(** Independent store with the same slots: later writes to either side
    never show in the other. *)

val store : t -> Timing_graph.stage_id -> timing -> Tqwm_wave.Waveform.quadratic -> unit
(** Record one stage's timing and output waveform, overwriting the
    slot. *)

val timing : t -> Timing_graph.stage_id -> timing option
(** The stored record, [None] for a slot never written. *)

val output : t -> Timing_graph.stage_id -> Tqwm_wave.Waveform.quadratic option
(** The waveform as given to {!store} — the solve's own, shared
    read-only with the stage cache. *)

val level_digest : t -> Timing_graph.frozen -> int -> string
(** Content hash of level [k] of the frozen schedule: the raw float64
    bits of each stored output in {!Tqwm_wave.Waveform} packed order,
    stages in level order (a stage without a stored output adds
    nothing). Equal timing results hash equally across domain
    counts.
    @raise Invalid_argument on an unknown level. *)
