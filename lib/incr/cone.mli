(** Dirty-cone analysis over a frozen timing graph.

    An edit to a set of stages can only change timings inside the edited
    stages' transitive fanout — the {e dirty cone}. The cone is an upper
    bound on incremental work: {!Session} additionally prunes it by
    early cutoff wherever a recomputed stage's outputs come back
    unchanged. *)

module Timing_graph = Tqwm_sta.Timing_graph

val fanout_cone : Timing_graph.frozen -> Timing_graph.stage_id list -> bool array
(** [fanout_cone frozen seeds] marks every stage reachable from [seeds]
    through fanout edges, the seeds included; indexed by stage id.
    @raise Invalid_argument on an out-of-range seed. *)

val size : bool array -> int
(** Number of marked stages. *)
