(** The piecewise-quadratic waveform-matching engine (paper §IV).

    The transient of a charge/discharge chain is divided into regions
    separated by critical points — the instants successive transistors
    turn on — plus a descending ladder of output-level matching points
    once every transistor conducts. Within a region each active node's
    current is linear, [I_k(t) = I_k(tau) + alpha_k (t - tau)], so its
    voltage is quadratic; the [alpha_k] and the region length are found by
    one small Newton solve matching capacitor currents against the device
    I/V relation {e only at the region end point} (paper Eq. (7)).

    Internally the chain is normalized to "discharge toward a rail at 0 V"
    coordinates; pull-up (PMOS) chains are mirrored about VDD, solved
    identically and mirrored back. *)

open Tqwm_circuit

module Workspace : sig
  type t
  (** Preallocated scratch buffers for the region-solve hot path:
      projection endpoints, residuals, Jacobian bands, linear-solver
      scratch and Newton candidates, all sized for chains of up to a
      capacity number of nodes (grown on demand). With a workspace in
      hand, {!solve} runs its Newton iterations without per-iteration
      allocation. A workspace is {e not} thread-safe: use one per domain
      (the default) or one per solver. *)

  val create : ?capacity:int -> unit -> t
  (** A fresh workspace; [capacity] (default 8) is the initial chain-node
      capacity. Buffers grow automatically when a longer chain arrives. *)

  val for_current_domain : unit -> t
  (** The calling domain's lazily-created workspace ({!solve}'s default).
      Parallel STA workers each run on their own domain, so every worker
      gets its own scratch without coordination. *)
end

type stats = {
  regions : int;  (** quadratic regions solved *)
  turn_ons : int;  (** critical points fired *)
  newton_iterations : int;
  linear_solves : int;
  bisections : int;
  failures : int;
      (** fixed-length fallback regions: the only regions accepted without
          full convergence *)
  residuals : int;  (** residual evaluations, line-search trials included *)
  line_search_halvings : int;
  discarded_newton : int;
      (** Newton iterations in attempts whose result was not committed *)
  estimator_runs : int;
  estimator_steps : int;
  estimator_misses : int;  (** estimator runs that returned no estimate *)
  device_calls_residual : int;
      (** device-model calls, by phase; the four phases partition every
          call the solve made. A residual evaluates each edge's current
          and its two derivatives in one call, which the Jacobian at that
          point reuses. *)
  device_calls_jacobian : int;
      (** threshold slopes of turn-on targets and explicit time
          derivatives through moving gates *)
  device_calls_estimator : int;
  device_calls_other : int;
      (** turn-on searches, region starts and current refreshes *)
}

type result = {
  node_quadratics : Tqwm_wave.Waveform.quadratic array;
      (** real (un-normalized) voltage waveform of chain node [k] at index
          [k-1] *)
  critical_times : float list;  (** turn-on instants, ascending *)
  t_solved : float;  (** last instant covered by the pieces *)
  stats : stats;
}

val solve :
  ?workspace:Workspace.t ->
  model:Tqwm_device.Device_model.t ->
  config:Config.t ->
  scenario:Scenario.t ->
  chain:Chain.t ->
  initial:float array ->
  result
(** [solve ~model ~config ~scenario ~chain ~initial] runs QWM on [chain];
    [initial.(k-1)] is the real initial voltage of chain node [k]. Gate
    drives come from the scenario's sources. [workspace] supplies the
    scratch buffers for the region solves (default: the calling domain's
    — see {!Workspace.for_current_domain}); results are bit-identical
    whatever workspace is passed.
    @raise Invalid_argument on malformed inputs. *)

