(** Stage-level timing graphs.

    Vertices are switching scenarios (a logic stage with its worst-case
    input configuration); a directed edge records that the source stage's
    output drives one named input of the target stage. Static timing
    analysis propagates arrival times and slews topologically through
    this graph, evaluating each stage with QWM.

    The graph is built incrementally ({!add_stage} / {!connect}) and then
    {!freeze}-dried into an indexed form — scenario array, fanin/fanout
    adjacency arrays and a topological level schedule — that propagation
    engines (sequential {!Arrival} and multi-domain {!Parallel}) consume
    without any list scans. Freezing is memoized: the frozen view is
    rebuilt only after a mutation.

    Each snapshot also carries every stage's {!Stage_cache.structure}
    digest, the half of the stage cache key that input shaping never
    changes. A stage whose scenario value is physically the one the
    previous snapshot held keeps that snapshot's digest, so an edit
    re-digests only the stage it replaced; stages sharing one scenario
    value share one digest computation. This relies on scenarios never
    being mutated in place ([Stage.with_load] / [with_device] copy their
    arrays). Digests are computed eagerly at freeze time, never lazily,
    so a snapshot stays immutable and safe to read from any domain.

    When the only mutations since the previous snapshot were
    {!set_scenario} calls, the new snapshot shares that snapshot's
    adjacency arrays and level schedule; adding a stage or adding or
    removing an edge rebuilds them. *)

type stage_id = int

type connection = {
  from_stage : stage_id;
  to_stage : stage_id;
  input : string;  (** which input of [to_stage] the source output drives *)
}

(** Immutable indexed snapshot of a graph. All arrays are indexed by
    [stage_id]; a frozen value is never mutated and is safe to share
    across domains. *)
type frozen = {
  scenarios : Tqwm_circuit.Scenario.t array;
  fanin : connection array array;  (** edges into each stage, insertion order *)
  fanout : connection array array;  (** edges out of each stage, insertion order *)
  order : stage_id array;  (** topological order, primary-input stages first *)
  levels : stage_id array array;
      (** topological level schedule: [levels.(k)] holds the stages whose
          longest fanin path has exactly [k] edges. Stages within a level
          are mutually independent — the unit of parallelism — and ids
          within a level ascend. [order] is the concatenation of the
          levels. *)
  endpoints : stage_id array;
      (** stages with no fanout, ids ascending: the sink set
          required-time propagation starts from and path enumeration
          ends at. Built with the schedule, once per stage or edge
          change. *)
  structure : string array;
      (** [structure.(id)] is {!Stage_cache.structure}
          [scenarios.(id)] — pass it as [?structure] when keying a solve
          of a shaped copy of that scenario *)
}

type t

val create : unit -> t

val copy : t -> t
(** Copy-on-write fork: an independent graph with the same stages and
    edges. The copy shares the (immutable) scenario values, adjacency
    lists and — until either side mutates — the memoized frozen
    snapshot, so forking is O(stages), a fork's first {!freeze} costs
    nothing and later freezes on either side reuse the shared structure
    digests of unchanged stages. Mutating one side never affects the
    other; this is the session-isolation primitive the what-if server
    forks client overlays from. *)

val add_stage : t -> Tqwm_circuit.Scenario.t -> stage_id

val connect : t -> from_stage:stage_id -> to_stage:stage_id -> input:string -> unit
(** @raise Invalid_argument on unknown stages, an unknown input name, an
    exact duplicate of an existing edge (same [from_stage], [to_stage]
    and [input] — a duplicate would double-count the target's fanin), or
    when the edge would create a combinational cycle. A rejected edge
    leaves the graph untouched. *)

val disconnect : t -> from_stage:stage_id -> to_stage:stage_id -> input:string -> unit
(** Remove the edge with exactly these endpoints and input name.
    @raise Invalid_argument when no such edge exists. *)

val set_scenario : t -> stage_id -> Tqwm_circuit.Scenario.t -> unit
(** Replace a stage's scenario in place (ECO-style edit: resized devices,
    a changed load, a different worst-case configuration). Invalidates
    the frozen snapshot.
    @raise Invalid_argument on an unknown stage or when the replacement
    scenario lacks an input that existing fanin edges drive. *)

val num_stages : t -> int

val num_connections : t -> int

val scenario : t -> stage_id -> Tqwm_circuit.Scenario.t
(** O(1). @raise Invalid_argument on an unknown stage. *)

val fanin : t -> stage_id -> connection list
(** Edges into a stage, in insertion order; O(fanin degree). *)

val fanout : t -> stage_id -> connection list
(** Edges out of a stage, in insertion order; O(fanout degree). *)

val freeze : t -> frozen
(** Indexed snapshot of the current graph. Memoized until the next
    mutation. O(V) after scenario replacements alone, O(V + E) after a
    stage or edge change, plus one structure digest per scenario value
    not in the previous snapshot. *)

val topological_order : t -> stage_id list
(** Primary-input stages first (the frozen [order]). *)

val levels : t -> stage_id array array
(** The frozen level schedule. *)
