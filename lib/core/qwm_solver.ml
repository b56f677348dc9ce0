open Tqwm_circuit
module Device_model = Tqwm_device.Device_model
module Source = Tqwm_wave.Source
module Waveform = Tqwm_wave.Waveform
module Vec = Tqwm_num.Vec
module Tridiag = Tqwm_num.Tridiag
module Bordered = Tqwm_num.Bordered
module Sherman_morrison = Tqwm_num.Sherman_morrison
module Lu = Tqwm_num.Lu
module Mat = Tqwm_num.Mat
module Metrics = Tqwm_obs.Metrics
module Trace = Tqwm_obs.Trace
module Json = Tqwm_obs.Json
module Alloc = Tqwm_obs.Alloc

(* Global solver telemetry; one atomic add per counter per solve (the
   counts of [stats] flush through [stat_counters]). *)
let c_solves = Metrics.counter "qwm.solves"
let c_alloc_minor = Metrics.counter "qwm.alloc.minor_words"
let c_alloc_promoted = Metrics.counter "qwm.alloc.promoted_words"

let h_regions_per_solve =
  Metrics.histogram "qwm.regions_per_solve"
    ~bounds:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

let h_newton_per_region =
  Metrics.histogram "qwm.newton_per_region"
    ~bounds:[| 1.0; 2.0; 3.0; 5.0; 8.0; 13.0; 21.0; 34.0 |]

let h_alloc_per_region =
  Metrics.histogram "qwm.alloc.words_per_region"
    ~bounds:
      [| 128.0; 256.0; 512.0; 1024.0; 2048.0; 4096.0; 8192.0; 16384.0; 32768.0; 65536.0 |]

module Workspace = struct
  (* One flat bundle of scratch buffers sized for chains of up to [cap]
     nodes. Every float buffer is a zero-copy [Vec.view] carved out of a
     single contiguous Bigarray slab, so the whole region-solve working
     set lives in unboxed storage that the GC never scans or moves. The
     buffers are reused across regions and solves, and every kernel
     operates on an explicit prefix of them, so slots beyond the live
     prefix may hold stale values from an earlier (larger) system and
     must never be read. The few slots a computation relies on being
     zero are re-zeroed at each use site, keeping results bit-identical
     to the old allocate-fresh-zeroed-arrays code. *)
  type buffers = {
    cap : int;  (** chain-node capacity [K] *)
    slab : Vec.t;  (** the backing slab all views below are carved from *)
    (* region-end projection of the current Newton candidate *)
    v_end : Vec.t;  (* K+1 *)
    i_end : Vec.t;  (* K+1 *)
    (* residuals: the accepted iterate's and the line-search trial's *)
    f : Vec.t;  (* K+1 *)
    f_trial : Vec.t;  (* K+1 *)
    j : Vec.t;  (* K+2: edge currents; j.(m+1) re-zeroed per use *)
    (* Jacobian blocks *)
    h : Vec.t;  (* K *)
    w : Vec.t;  (* K+1; w.(0) re-zeroed per use *)
    lower : Vec.t;  (* K; lower.(0) re-zeroed per use *)
    diag : Vec.t;  (* K *)
    upper : Vec.t;  (* K; upper.(m-1) re-zeroed per use *)
    last_col : Vec.t;  (* K *)
    last_row : Vec.t;  (* K *)
    (* SoA edge-current derivatives at the last residual's point (or
       the estimator's step start), written by the same device calls as
       the currents in [j] *)
    d_below : Vec.t;  (* K *)
    d_above : Vec.t;  (* K *)
    d_t : Vec.t;  (* K *)
    mutable last_row_m : float;
    mutable corner : float;
    (* linear-solver scratch *)
    dx : Vec.t;  (* K+1: the Newton step *)
    cp : Vec.t;  (* K+1: Thomas coefficients *)
    dp : Vec.t;  (* K+1 *)
    y : Vec.t;  (* K+1: first base solve *)
    z : Vec.t;  (* K+1: second base solve *)
    sm_lower : Vec.t;  (* K+1: Sherman–Morrison extended bands *)
    sm_diag : Vec.t;  (* K+1 *)
    sm_upper : Vec.t;  (* K+1 *)
    sm_u : Vec.t;  (* K+1 *)
    sm_v : Vec.t;  (* K+1 *)
    mat : Mat.t;  (* (K+1) x (K+1) view into the slab, dense-LU mode only *)
    perm : int array;  (* K+1 *)
    (* Newton candidates and the warm start *)
    alpha_a : Vec.t;  (* K: warm attempt / fixed-delta fallback *)
    alpha_b : Vec.t;  (* K: estimate_region's seed, then the seeded attempt *)
    trial_alpha : Vec.t;  (* K: line-search trial *)
    last_alpha : Vec.t;  (* K: previous region's curvature *)
    (* linearly implicit estimator state: node voltages (node k at index
       k) and node currents (node k at index k-1) *)
    est_v : Vec.t;  (* K+1 *)
    est_i : Vec.t;  (* K+1 *)
    (* solver state vectors: normalized node voltages / currents; views
       into the slab so a solve allocates nothing for its state either *)
    st_v : Vec.t;  (* K+1 *)
    st_i : Vec.t;  (* K+1 *)
    (* Piece arena: the committed waveform, SoA. Piece [r] spans
       [piece_t0.(r), piece_t0.(r)+piece_dt.(r)] (one shared time grid —
       every commit appends one piece to every chain node) and node [k]'s
       coefficients live at column offset [r*piece_stride + (k-1)]. Grown
       on demand, preserving the live prefix, and overwritten from index
       0 by the next solve. *)
    piece_stride : int;  (** node stride of the coefficient columns = cap *)
    mutable piece_cap : int;
    mutable piece_t0 : Vec.t;  (* piece_cap *)
    mutable piece_dt : Vec.t;  (* piece_cap *)
    mutable piece_v0 : Vec.t;  (* piece_cap * piece_stride *)
    mutable piece_dv : Vec.t;  (* piece_cap * piece_stride *)
    mutable piece_ddv : Vec.t;  (* piece_cap * piece_stride *)
    (* device-query scratch: one terminal-voltage record refilled per
       query and one current-and-derivatives out-buffer, so the model
       calls that fire several times per Newton iteration never
       allocate *)
    tvs : Device_model.terminal_voltages;
    dv : Device_model.derivs;
  }

  let alloc cap =
    let k1 = cap + 1 in
    let total = (19 * k1) + (cap + 2) + (13 * cap) + (k1 * k1) in
    let slab = Vec.create total in
    let pos = ref 0 in
    let take n =
      let v = Vec.view slab ~pos:!pos ~len:n in
      pos := !pos + n;
      v
    in
    let v_end = take k1 in
    let i_end = take k1 in
    let f = take k1 in
    let f_trial = take k1 in
    let j = take (cap + 2) in
    let h = take cap in
    let w = take k1 in
    let lower = take cap in
    let diag = take cap in
    let upper = take cap in
    let last_col = take cap in
    let last_row = take cap in
    let d_below = take cap in
    let d_above = take cap in
    let d_t = take cap in
    let dx = take k1 in
    let cp = take k1 in
    let dp = take k1 in
    let y = take k1 in
    let z = take k1 in
    let sm_lower = take k1 in
    let sm_diag = take k1 in
    let sm_upper = take k1 in
    let sm_u = take k1 in
    let sm_v = take k1 in
    let mat = Mat.of_vec ~rows:k1 ~cols:k1 (take (k1 * k1)) in
    let alpha_a = take cap in
    let alpha_b = take cap in
    let trial_alpha = take cap in
    let last_alpha = take cap in
    let est_v = take k1 in
    let est_i = take k1 in
    let st_v = take k1 in
    let st_i = take k1 in
    assert (!pos = total);
    let piece_cap = 64 in
    {
      cap;
      slab;
      v_end;
      i_end;
      f;
      f_trial;
      j;
      h;
      w;
      lower;
      diag;
      upper;
      last_col;
      last_row;
      d_below;
      d_above;
      d_t;
      last_row_m = 0.0;
      corner = 0.0;
      dx;
      cp;
      dp;
      y;
      z;
      sm_lower;
      sm_diag;
      sm_upper;
      sm_u;
      sm_v;
      mat;
      perm = Array.make k1 0;
      alpha_a;
      alpha_b;
      trial_alpha;
      last_alpha;
      est_v;
      est_i;
      st_v;
      st_i;
      piece_stride = cap;
      piece_cap;
      piece_t0 = Vec.create piece_cap;
      piece_dt = Vec.create piece_cap;
      piece_v0 = Vec.create (piece_cap * cap);
      piece_dv = Vec.create (piece_cap * cap);
      piece_ddv = Vec.create (piece_cap * cap);
      tvs = { Device_model.input = 0.0; src = 0.0; snk = 0.0 };
      dv = Device_model.derivs ();
    }

  (* grow the piece arena to hold [needed] pieces, preserving the [live]
     committed prefix (a solve may outgrow the arena mid-flight) *)
  let ensure_pieces b ~live needed =
    if needed > b.piece_cap then begin
      let cap' = max needed (2 * b.piece_cap) in
      let grow1 src len' n_live =
        let dst = Vec.create len' in
        Vec.blit_n n_live src dst;
        dst
      in
      b.piece_t0 <- grow1 b.piece_t0 cap' live;
      b.piece_dt <- grow1 b.piece_dt cap' live;
      let coef_live = live * b.piece_stride in
      b.piece_v0 <- grow1 b.piece_v0 (cap' * b.piece_stride) coef_live;
      b.piece_dv <- grow1 b.piece_dv (cap' * b.piece_stride) coef_live;
      b.piece_ddv <- grow1 b.piece_ddv (cap' * b.piece_stride) coef_live;
      b.piece_cap <- cap'
    end

  type t = { mutable bufs : buffers }

  let create ?(capacity = 8) () = { bufs = alloc (max capacity 1) }

  (* Grow-only: replacing the bundle wholesale keeps every buffer's
     capacity invariant trivially true. *)
  let ensure t k = if k > t.bufs.cap then t.bufs <- alloc (max k (2 * t.bufs.cap))

  (* Per-domain default workspace: parallel STA workers each live on their
     own domain, so the single-flight stage cache hands every worker its
     own scratch without coordination. *)
  let key = Domain.DLS.new_key (fun () -> create ())
  let for_current_domain () = Domain.DLS.get key
end

type stats = {
  regions : int;
  turn_ons : int;
  newton_iterations : int;
  linear_solves : int;
  bisections : int;
  failures : int;
  residuals : int;
  line_search_halvings : int;
  discarded_newton : int;
  estimator_runs : int;
  estimator_steps : int;
  estimator_misses : int;
  device_calls_residual : int;
  device_calls_jacobian : int;
  device_calls_estimator : int;
  device_calls_other : int;
}

let stat_counters =
  List.map
    (fun (name, count) -> (Metrics.counter name, count))
    [
      ("qwm.regions", fun s -> s.regions);
      ("qwm.turn_ons", fun s -> s.turn_ons);
      ("qwm.newton_iterations", fun s -> s.newton_iterations);
      ("qwm.linear_solves", fun s -> s.linear_solves);
      ("qwm.bisections", fun s -> s.bisections);
      ("qwm.failures", fun s -> s.failures);
      ("qwm.residuals", fun s -> s.residuals);
      ("qwm.line_search_halvings", fun s -> s.line_search_halvings);
      ("qwm.discarded_newton", fun s -> s.discarded_newton);
      ("qwm.estimator_runs", fun s -> s.estimator_runs);
      ("qwm.estimator_steps", fun s -> s.estimator_steps);
      ("qwm.estimator_misses", fun s -> s.estimator_misses);
      ("qwm.device_calls.residual", fun s -> s.device_calls_residual);
      ("qwm.device_calls.jacobian", fun s -> s.device_calls_jacobian);
      ("qwm.device_calls.estimator", fun s -> s.device_calls_estimator);
      ("qwm.device_calls.other", fun s -> s.device_calls_other);
    ]

type result = {
  node_quadratics : Waveform.quadratic array;
  critical_times : float list;
  t_solved : float;
  stats : stats;
}

(* All internal voltages are in "pull-down-normalized" coordinates: the rail
   is 0 V and nodes discharge toward it. Pull-up chains are mirrored about
   VDD on the way in and back on the way out. *)
type problem = {
  model : Device_model.t;
  vdd : float;
  rail : Chain.rail;
  edges : Chain.edge array;  (** edge k at index k-1 *)
  gates : Source.t option array;
  caps : float array;  (** node k capacitance at index k-1 *)
  t_end : float;
  cfg : Config.t;
  ws : Workspace.buffers;
  mutable device_calls : int;
      (** device-model calls so far in this solve; every call goes through
          [edge_current], [edge_current_derivs_into], [edge_current_dt] or
          [threshold] *)
}

type state = {
  mutable t : float;
  v : Vec.t;  (** normalized voltages, index 0..K; v.(0) = 0 rail *)
  i : Vec.t;  (** normalized node currents C dv/dt, index 0..K *)
  mutable active : int;  (** nodes 1..active evolve; the rest are frozen *)
  mutable n_pieces : int;  (** committed pieces in the workspace arena *)
  mutable crits : float list;  (** reversed *)
  mutable n_regions : int;
  mutable n_turn_ons : int;
  mutable n_newton : int;
  mutable n_solves : int;
  mutable n_bisect : int;
  mutable n_fail : int;
  mutable n_residuals : int;
  mutable n_halvings : int;
  mutable n_discarded : int;
  mutable n_est_runs : int;
  mutable n_est_steps : int;
  mutable n_est_misses : int;
  (* device calls by phase; the rest of [p.device_calls] is turn-on
     searches, region starts and current refreshes *)
  mutable calls_residual : int;
  mutable calls_jacobian : int;
  mutable calls_estimator : int;
  mutable newton_at_commit : int;  (** [n_newton] after the last commit *)
  mutable last_alpha_len : int;
      (** live prefix of [ws.last_alpha] (warm start); -1 before the
          first committed region *)
}

(* Fixed solver settings; [Config] holds the ones callers vary. *)

(* residual tolerance on a region's end condition, V *)
let voltage_tolerance = 1e-6

(* residual tolerance on a region's current matches, A *)
let current_match_tolerance = 5e-9

(* per-region Newton cap *)
let max_iterations = 60

(* the line search's first step: the full Newton step *)
let line_search_step = 1.0

(* target bisections before the fixed-length fallback *)
let bisect_depth = 6

(* hard cap on regions per solve *)
let max_regions = 400

(* the solve ends once the output has this fraction of the swing left *)
let end_fraction = 0.05

let chain_length p = Array.length p.edges

let real_of_norm p x =
  match p.rail with Chain.Pull_down -> x | Chain.Pull_up -> p.vdd -. x

(* The device helpers below run several times per Newton iteration and
   are [@inline], so their float arguments and results stay unboxed. *)

let[@inline] gate_real p k t =
  match p.gates.(k - 1) with Some s -> Source.value s t | None -> 0.0

let[@inline] gate_real_slope p k t =
  match p.gates.(k - 1) with Some s -> Source.derivative s t | None -> 0.0

let gate_norm p k t = real_of_norm p (gate_real p k t)

let gate_norm_slope p k t =
  match p.rail with
  | Chain.Pull_down -> gate_real_slope p k t
  | Chain.Pull_up -> -.gate_real_slope p k t

(* terminal voltages of edge k for normalized below/above node voltages,
   refilled into the workspace scratch record (the model only reads it
   during the call, so one record serves every query) *)
let[@inline] terminal_voltages p k ~t ~vb ~va =
  let tv = p.ws.Workspace.tvs in
  (match p.rail with
  | Chain.Pull_down ->
    tv.Device_model.input <- gate_real p k t;
    tv.Device_model.src <- va;
    tv.Device_model.snk <- vb
  | Chain.Pull_up ->
    tv.Device_model.input <- gate_real p k t;
    tv.Device_model.src <- p.vdd -. vb;
    tv.Device_model.snk <- p.vdd -. va);
  tv

(* J'_k: normalized current flowing from node k to node k-1 *)
let[@inline] edge_current p k ~t ~vb ~va =
  p.device_calls <- p.device_calls + 1;
  p.model.Device_model.iv p.edges.(k - 1).Chain.device (terminal_voltages p k ~t ~vb ~va)

(* J'_k and (dJ'_k/dv'_below, dJ'_k/dv'_above) from one device call, left
   in [p.ws.dv]: the current in [cur], bit-for-bit [edge_current]'s, the
   below derivative in [dsrc] and the above derivative in [dsnk] (the
   record is repurposed as the rail-mapped pair) *)
let[@inline] edge_current_derivs_into p k ~t ~vb ~va =
  let tv = terminal_voltages p k ~t ~vb ~va in
  let d = p.ws.Workspace.dv in
  p.device_calls <- p.device_calls + 1;
  p.model.Device_model.iv_derivatives_into p.edges.(k - 1).Chain.device tv d;
  match p.rail with
  | Chain.Pull_down ->
    let dsrc = d.Device_model.dsrc in
    d.Device_model.dsrc <- d.Device_model.dsnk;
    d.Device_model.dsnk <- dsrc
  | Chain.Pull_up ->
    d.Device_model.dsrc <- -.d.Device_model.dsrc;
    d.Device_model.dsnk <- -.d.Device_model.dsnk

(* explicit time derivative of J'_k through a moving gate drive *)
let[@inline] edge_current_dt p k ~t ~vb ~va =
  let slope = gate_real_slope p k t in
  if slope = 0.0 then 0.0
  else begin
    let tv = terminal_voltages p k ~t ~vb ~va in
    let h = 1e-5 in
    let device = p.edges.(k - 1).Chain.device in
    let g0 = tv.Device_model.input in
    p.device_calls <- p.device_calls + 2;
    tv.Device_model.input <- g0 +. h;
    let up = p.model.Device_model.iv device tv in
    tv.Device_model.input <- g0 -. h;
    let dn = p.model.Device_model.iv device tv in
    (up -. dn) /. (2.0 *. h) *. slope
  end

(* body-corrected threshold of edge k seen from its below node *)
let[@inline] threshold p k ~t ~vb =
  let real_b = real_of_norm p vb in
  let tv = p.ws.Workspace.tvs in
  tv.Device_model.input <- gate_real p k t;
  tv.Device_model.src <- real_b;
  tv.Device_model.snk <- real_b;
  p.device_calls <- p.device_calls + 1;
  p.model.Device_model.threshold p.edges.(k - 1).Chain.device tv

let threshold_slope p k ~t ~vb =
  let h = 1e-5 in
  (threshold p k ~t ~vb:(vb +. h) -. threshold p k ~t ~vb:(vb -. h)) /. (2.0 *. h)

(* gate drive in excess of threshold; the transistor conducts when >= 0 *)
let[@inline] drive p k ~t ~vb = gate_norm p k t -. vb -. threshold p k ~t ~vb

(* nodes connected to the front through wire edges activate together *)
let rec extend_front p a =
  if a >= chain_length p then a
  else if Chain.is_transistor p.edges.(a) then a
  else extend_front p (a + 1)

type target =
  | Turn_on of int  (** edge index whose turn-on ends the region *)
  | Level of { node : int; value : float }

let is_linear p = p.cfg.Config.waveform_model = Config.Linear

(* Region-end node voltages and currents for a candidate (x, delta),
   written into [ws.v_end] / [ws.i_end].
   Quadratic model (the paper's): x_k is the current slope [alpha_k], so
   [v] gains i*d + alpha*d^2/2 over the region and [i] gains alpha*d.
   Linear model: x_k is the region's (constant) current itself, so [v]
   gains x*d and the end current is x. *)
let project p st (x : Vec.t) delta =
  let ws = p.ws in
  let k_total = chain_length p in
  let linear = is_linear p in
  let v_end = ws.v_end and i_end = ws.i_end in
  v_end.{0} <- 0.0;
  for k = 1 to k_total do
    if k <= st.active then begin
      let c = p.caps.(k - 1) in
      if linear then begin
        v_end.{k} <- st.v.{k} +. (x.{k - 1} *. delta /. c);
        i_end.{k} <- x.{k - 1}
      end
      else begin
        v_end.{k} <-
          st.v.{k} +. (((st.i.{k} *. delta) +. (0.5 *. x.{k - 1} *. delta *. delta)) /. c);
        i_end.{k} <- st.i.{k} +. (x.{k - 1} *. delta)
      end
    end
    else v_end.{k} <- st.v.{k}
  done

(* Edge currents J'_1..J'_m at node voltages [v] (node k at index k),
   one device call per edge, into [ws.j.(1..m)] with [ws.j.(m+1)] = 0,
   and their voltage derivatives into [ws.d_below]/[ws.d_above]. *)
let edge_currents_and_derivs p m ~t ~(v : Vec.t) =
  let ws = p.ws in
  let j = ws.j and dv = ws.dv in
  let d_below = ws.d_below and d_above = ws.d_above in
  (* j.(m+1) is 0: the edge above the front is an off transistor *)
  j.{m + 1} <- 0.0;
  for k = 1 to m do
    edge_current_derivs_into p k ~t ~vb:v.{k - 1} ~va:v.{k};
    j.{k} <- dv.Device_model.cur;
    d_below.{k - 1} <- dv.Device_model.dsrc;
    d_above.{k - 1} <- dv.Device_model.dsnk
  done

(* Residual of the region system at (alpha, delta), written into the first
   [m+1] slots of [f]. Also leaves [ws.v_end]/[ws.i_end] holding the
   candidate's projection and [ws.d_below]/[ws.d_above] its edge-current
   derivatives — [region_jacobian] relies on both. *)
let region_residual p st target alpha delta ~(f : Vec.t) =
  let ws = p.ws in
  let m = st.active in
  let calls0 = p.device_calls in
  let t' = st.t +. delta in
  project p st alpha delta;
  edge_currents_and_derivs p m ~t:t' ~v:ws.v_end;
  let v_end = ws.v_end and i_end = ws.i_end and j = ws.j in
  for k = 1 to m do
    f.{k - 1} <- i_end.{k} -. (j.{k + 1} -. j.{k})
  done;
  (match target with
  | Turn_on k0 -> f.{m} <- drive p k0 ~t:t' ~vb:v_end.{m}
  | Level { node; value } -> f.{m} <- v_end.{node} -. value);
  st.n_residuals <- st.n_residuals + 1;
  st.calls_residual <- st.calls_residual + (p.device_calls - calls0)

(* Jacobian of the region system, written as its structural components:
   the alpha-block tridiagonal and dense last (d/d delta) column into the
   workspace band buffers, the single non-zero of the last row (at
   alpha_m) into [ws.last_row_m] and the corner into [ws.corner].

   Precondition: [ws.v_end]/[ws.i_end] already hold the projection of
   (alpha, delta) and [ws.d_below]/[ws.d_above] the edge-current
   derivatives there — always true because the accepted candidate's
   residual is the last one evaluated, and it evaluated each edge's
   current and derivatives in one device call. So the Jacobian repeats
   neither the projection nor a derivative query; its only device calls
   are the threshold slope of a turn-on target and the explicit time
   derivative of a moving gate. *)
let region_jacobian p st target (alpha : Vec.t) delta =
  let ws = p.ws in
  let m = st.active in
  let calls0 = p.device_calls in
  let linear = is_linear p in
  let t' = st.t +. delta in
  let v_end = ws.v_end and i_end = ws.i_end in
  (* dv_end/dx per node, and di_end/dx (shared by all nodes) *)
  let h = ws.h in
  for k = 0 to m - 1 do
    h.{k} <- (if linear then delta /. p.caps.(k) else 0.5 *. delta *. delta /. p.caps.(k))
  done;
  let di_dx = if linear then 1.0 else delta in
  let w = ws.w in
  w.{0} <- 0.0;
  for k = 1 to m do
    w.{k} <- i_end.{k} /. p.caps.(k - 1)
  done;
  let lower = ws.lower and diag = ws.diag and upper = ws.upper and last_col = ws.last_col in
  (* the loop below leaves these two slots untouched; zero the stale values *)
  lower.{0} <- 0.0;
  upper.{m - 1} <- 0.0;
  (* each edge's derivatives are shared by the rows of both its nodes *)
  let d_below = ws.d_below and d_above = ws.d_above and d_t = ws.d_t in
  for idx = 0 to m - 1 do
    let k = idx + 1 in
    d_t.{idx} <- edge_current_dt p k ~t:t' ~vb:v_end.{k - 1} ~va:v_end.{k}
  done;
  for k = 1 to m do
    let r = k - 1 in
    let djk_b = d_below.{r} and djk_a = d_above.{r} in
    let djk_t = d_t.{r} in
    let djk1_b = if k < m then d_below.{r + 1} else 0.0 in
    let djk1_a = if k < m then d_above.{r + 1} else 0.0 in
    let djk1_t = if k < m then d_t.{r + 1} else 0.0 in
    diag.{r} <- di_dx +. ((djk_a -. djk1_b) *. h.{r});
    if k < m then upper.{r} <- -.djk1_a *. h.{r + 1};
    if k > 1 then lower.{r} <- djk_b *. h.{r - 2 + 1};
    let dj_dt_total =
      (* d/d delta of -(J_{k+1} - J_k) through voltages and gate motion *)
      -.((djk1_b *. w.{k}) +. (djk1_a *. (if k < m then w.{k + 1} else 0.0)) +. djk1_t)
      +. (djk_b *. w.{k - 1})
      +. (djk_a *. w.{k})
      +. djk_t
    in
    (* di_end/d delta: alpha for the quadratic model, 0 for the linear *)
    last_col.{r} <- (if linear then 0.0 else alpha.{r}) +. dj_dt_total
  done;
  (match target with
  | Turn_on k0 ->
    let vth' = threshold_slope p k0 ~t:t' ~vb:v_end.{m} in
    ws.last_row_m <- (-1.0 -. vth') *. h.{m - 1};
    ws.corner <- gate_norm_slope p k0 t' -. ((1.0 +. vth') *. w.{m})
  | Level _ ->
    ws.last_row_m <- h.{m - 1};
    ws.corner <- w.{m});
  st.calls_jacobian <- st.calls_jacobian + (p.device_calls - calls0)

(* Solve the bordered system held in the workspace band buffers for the
   Newton step, reading the residual from [f] and writing the step into
   [ws.dx.(0..m)]. All three solver modes run allocation-free on the
   in-place kernels. *)
let solve_linear p m ~f =
  let ws = p.ws in
  match p.cfg.Config.linear_solver with
  | Config.Dense_lu ->
    let a = ws.mat in
    for r = 0 to m do
      for c = 0 to m do
        Mat.set a r c 0.0
      done
    done;
    for r = 0 to m - 1 do
      Mat.set a r r ws.diag.{r};
      if r > 0 then Mat.set a r (r - 1) ws.lower.{r};
      if r < m - 1 then Mat.set a r (r + 1) ws.upper.{r};
      Mat.set a r m ws.last_col.{r}
    done;
    Mat.set a m (m - 1) ws.last_row_m;
    Mat.set a m m ws.corner;
    Lu.factorize_into ~n:(m + 1) a ~perm:ws.perm;
    Lu.solve_factored_into ~n:(m + 1) a ~perm:ws.perm ~b:f ~x:ws.dx
  | Config.Bordered ->
    let last_row = ws.last_row in
    Vec.fill_n m last_row 0.0;
    last_row.{m - 1} <- ws.last_row_m;
    Bordered.solve_into ~n:m ~lower:ws.lower ~diag:ws.diag ~upper:ws.upper
      ~last_col:ws.last_col ~last_row ~corner:ws.corner ~cp:ws.cp ~dp:ws.dp ~y:ws.y
      ~z:ws.z ~b:f ~x:ws.dx
  | Config.Sherman_morrison ->
    (* the paper's form: an (m+1) tridiagonal matrix (the last row's only
       non-zero is adjacent to the corner, and the last column's entry in
       row m-1 fits the super-diagonal) plus a rank-1 update carrying the
       remaining last-column entries *)
    Vec.blit_n m ws.lower ws.sm_lower;
    Vec.blit_n m ws.diag ws.sm_diag;
    Vec.blit_n m ws.upper ws.sm_upper;
    ws.sm_upper.{m - 1} <- ws.last_col.{m - 1};
    ws.sm_lower.{m} <- ws.last_row_m;
    ws.sm_diag.{m} <- ws.corner;
    let u = ws.sm_u and v = ws.sm_v in
    Vec.fill_n (m + 1) u 0.0;
    for r = 0 to m - 2 do
      u.{r} <- ws.last_col.{r}
    done;
    Vec.fill_n (m + 1) v 0.0;
    v.{m} <- 1.0;
    Sherman_morrison.solve_tridiag_into ~n:(m + 1) ~lower:ws.sm_lower ~diag:ws.sm_diag
      ~upper:ws.sm_upper ~u ~v ~cp:ws.cp ~dp:ws.dp ~y:ws.y ~z:ws.z ~b:f ~x:ws.dx

let converged (f : Vec.t) m =
  let ok = ref (Float.abs f.{m} <= voltage_tolerance) in
  for k = 0 to m - 1 do
    if Float.abs f.{k} > current_match_tolerance then ok := false
  done;
  !ok

(* first-order guess of the region length from the target node's slope *)
let initial_delta p st target =
  let fallback = 5e-12 in
  let guess =
    match target with
    | Level { node; value } ->
      let rate = -.st.i.{node} /. p.caps.(node - 1) in
      if rate > 1e3 then (st.v.{node} -. value) /. rate else fallback
    | Turn_on k0 ->
      let m = st.active in
      let target_v = gate_norm p k0 st.t -. threshold p k0 ~t:st.t ~vb:st.v.{m} in
      let rate = -.st.i.{m} /. p.caps.(m - 1) in
      if rate > 1e3 then (st.v.{m} -. target_v) /. rate else fallback
  in
  Float.min (Float.max guess 1e-14) (Float.max (p.t_end *. 2.0) 1e-12)

(* [iters] counts the attempt's Newton iterations the way
   [qwm.newton_iterations] does; [merit] is the residual merit at the
   returned point. *)
type region_solution = {
  alpha : Vec.t;
  delta : float;
  ok : bool;
  iters : int;
  merit : float;
}

(* [Float.max]/[Float.min] for operands that are >= +0 or NaN, by
   comparison alone: no sign-bit C calls, and a NaN operand still wins *)
let[@inline] max_nonneg x y = if y > x || Float.is_nan y then y else x

let[@inline] min_nonneg x y = if y < x || Float.is_nan y then y else x

(* Scale-free residual magnitude: current matches in units of the current
   tolerance, the end condition in units of the voltage tolerance. *)
let merit (f : Vec.t) m =
  let acc = ref (Float.abs f.{m} /. voltage_tolerance) in
  for k = 0 to m - 1 do
    acc := max_nonneg !acc (Float.abs f.{k} /. current_match_tolerance)
  done;
  !acc

(* Newton iteration working in place on [alpha], a workspace-owned buffer
   already holding the start point (used directly by [solve_region], and
   with the estimator's seed in [ws.alpha_b]). The attempt ends at the
   iteration budget [cap] or at the first line search whose ten halvings
   all fail to lower the merit. The returned solution aliases [alpha]; it
   stays valid until the buffer's next attempt. *)
let solve_region_from ?cap p st target (alpha : Vec.t) delta0 =
  let ws = p.ws in
  let m = st.active in
  let max_iterations = Option.value cap ~default:max_iterations in
  let newton0 = st.n_newton in
  let delta = ref (Float.max delta0 1e-15) in
  let finish ok =
    { alpha; delta = !delta; ok; iters = st.n_newton - newton0; merit = merit ws.f m }
  in
  let apply_step step =
    let dx = ws.dx and trial_alpha = ws.trial_alpha in
    for r = 0 to m - 1 do
      trial_alpha.{r} <- alpha.{r} -. (step *. dx.{r})
    done;
    let prev = !delta in
    let next = prev -. (step *. dx.{m}) in
    if next <= 0.0 then prev *. 0.3
    else if next > prev *. 10.0 then prev *. 10.0
    else Float.max next 1e-16
  in
  (* invariant: [ws.f] holds the residual at (alpha, !delta), and
     [ws.v_end]/[ws.i_end] and [ws.d_below]/[ws.d_above] that candidate's
     projection and edge-current derivatives (a line-search trial
     overwrites them, and the trial accepted is the last one evaluated) *)
  let rec iterate n =
    st.n_newton <- st.n_newton + 1;
    if converged ws.f m then finish true
    else if n >= max_iterations then finish false
    else begin
      region_jacobian p st target alpha !delta;
      match solve_linear p m ~f:ws.f with
      | exception _ -> finish false
      | () ->
        st.n_solves <- st.n_solves + 1;
        let m0 = merit ws.f m in
        (* the trial region length, or nan when no step down to 1/1024
           lowers the merit *)
        let rec backtrack step tries =
          let trial_delta = apply_step step in
          region_residual p st target ws.trial_alpha trial_delta ~f:ws.f_trial;
          let mt = merit ws.f_trial m in
          if mt < m0 then trial_delta
          else if tries = 0 then Float.nan
          else begin
            st.n_halvings <- st.n_halvings + 1;
            backtrack (step /. 2.0) (tries - 1)
          end
        in
        let trial_delta = backtrack line_search_step 10 in
        (* a stalled attempt ends here: its iterate stays where it was *)
        if Float.is_nan trial_delta then finish false
        else begin
          Vec.blit_n m ws.trial_alpha alpha;
          delta := trial_delta;
          Vec.blit_n (m + 1) ws.f_trial ws.f;
          iterate (n + 1)
        end
    end
  in
  region_residual p st target alpha !delta ~f:ws.f;
  if Float.is_nan (merit ws.f m) then finish false else iterate 0

(* A region is warm when its start needs no estimate: the previous
   region committed curvatures for the same active set, or the linear
   model starts from the node currents. *)
let warm p st = is_linear p || st.last_alpha_len = st.active

(* An attempt in [ws.alpha_a] from the warm start, or from zero curvature
   on a cold region the estimator could not seed. *)
let solve_region ?cap p st target =
  let ws = p.ws in
  let m = st.active in
  let x0 = ws.alpha_a in
  if is_linear p then
    for r = 0 to m - 1 do
      x0.{r} <- st.i.{r + 1}
    done
  else if warm p st then Vec.blit_n m ws.last_alpha x0
  else Vec.fill_n m x0 0.0;
  solve_region_from ?cap p st target x0 (initial_delta p st target)

(* Largest node-voltage move of one estimator step; the longest step, as
   a fraction of the remaining window; and the most steps one estimate
   may take. *)
let estimator_step_v = 0.4

let estimator_step_window = 1.0 /. 50.0

let estimator_max_steps = 200

(* Linearly implicit Euler integration of the active nodes up to the
   target condition: the start of a cold region, and the retry when a warm
   start fails. Each step evaluates the node currents [i] and the edge
   derivatives at the step start, one device call per edge, and solves
   the tridiagonal system
   (C/dt - di/dv) dv = i. The step is the longest that moves no node and
   no moving gate by more than [estimator_step_v] and spans at most
   [estimator_step_window] of the remaining window; shrinking it
   re-solves only the tridiagonal system, so it costs no device call. On
   the step where the target condition turns true the state is
   interpolated linearly back to the crossing. Stiff node pairs (a pi
   wire's near node) settle in one step instead of oscillating. The
   curvature seed lands in [ws.alpha_b]; [None] when the target is not
   reached within four times the remaining window. *)
let estimate_region p st target =
  let ws = p.ws in
  let m = st.active in
  let calls0 = p.device_calls in
  st.n_est_runs <- st.n_est_runs + 1;
  (* [v] holds node k at index k (v.{0} is the rail); [i], [dx] and the
     bands hold node k at index k-1 *)
  let v = ws.est_v and i = ws.est_i and dx = ws.dx in
  let lower = ws.lower and diag = ws.diag and upper = ws.upper in
  let d_below = ws.d_below and d_above = ws.d_above in
  Vec.blit_n (m + 1) st.v v;
  let remaining = Float.max (p.t_end -. st.t) 1e-12 in
  let horizon = remaining *. 4.0 in
  (* node currents [i] from the edge currents in [ws.j] *)
  let node_currents () =
    let j = ws.j in
    for k = 1 to m do
      i.{k - 1} <- j.{k + 1} -. j.{k}
    done
  in
  (* the node currents alone, at the estimate's end point *)
  let currents t_rel =
    let j = ws.j in
    j.{m + 1} <- 0.0;
    for k = 1 to m do
      j.{k} <- edge_current p k ~t:(st.t +. t_rel) ~vb:v.{k - 1} ~va:v.{k}
    done;
    node_currents ()
  in
  (* negative until the target is reached, with the watched node at [vw] *)
  let watched = match target with Turn_on _ -> m | Level { node; _ } -> node in
  let gap t_rel vw =
    match target with
    | Turn_on k0 -> drive p k0 ~t:(st.t +. t_rel) ~vb:vw
    | Level { value; _ } -> value -. vw
  in
  (* the step at [dt] into [dx]; its largest node move (nan if singular) *)
  let solve_step dt =
    for r = 0 to m - 1 do
      diag.{r} <-
        (p.caps.(r) /. dt) +. d_above.{r} -. (if r < m - 1 then d_below.{r + 1} else 0.0)
    done;
    match Tridiag.solve_into ~n:m ~lower ~diag ~upper ~cp:ws.cp ~dp:ws.dp ~b:i ~x:dx with
    | exception Tridiag.Singular _ -> Float.nan
    | () ->
      let worst = ref 0.0 in
      for r = 0 to m - 1 do
        worst := max_nonneg !worst (Float.abs dx.{r})
      done;
      !worst
  in
  (* Shrink [dt] until the step moves no node by more than the limit. Each
     node is modelled as |dv(dt)| = q dt / (1 + dt / tau), with q its
     explicit rate and tau fitted through the trial, and [dt] is cut to
     where the fastest such model reaches the limit, and at least as far
     as the linear ratio or a half, whichever cuts less. *)
  let rec fit dt tries =
    let worst = solve_step dt in
    if Float.is_nan worst then Float.nan
    else if worst <= estimator_step_v then dt
    else if tries = 0 then Float.nan
    else begin
      let inv = ref (1.0 /. dt) in
      for r = 0 to m - 1 do
        let u = Float.abs dx.{r} in
        if u > estimator_step_v then begin
          let q = Float.abs i.{r} /. p.caps.(r) in
          let inv_r = (1.0 /. dt) +. (q *. ((1.0 /. estimator_step_v) -. (1.0 /. u))) in
          inv := max_nonneg !inv inv_r
        end
      done;
      let linear_cut = dt *. max_nonneg 0.5 (estimator_step_v /. worst) in
      fit (min_nonneg (0.95 /. !inv) linear_cut) (tries - 1)
    end
  in
  let rec step t_rel gap0 n =
    if n = 0 || t_rel >= horizon then None
    else begin
      edge_currents_and_derivs p m ~t:(st.t +. t_rel) ~v;
      node_currents ();
      for r = 0 to m - 1 do
        lower.{r} <- (if r > 0 then d_below.{r} else 0.0);
        upper.{r} <- (if r < m - 1 then -.d_above.{r + 1} else 0.0)
      done;
      st.n_est_steps <- st.n_est_steps + 1;
      (* A long step follows the right states but lags in time: in a
         slow tail, where no node has 0.4 V left to move, one step to the
         horizon would reach the target a nanosecond late. The step also
         holds the gates at their start values, so no moving gate (the
         next turn-on's included) may move by more than the voltage
         limit either. *)
      let longest =
        ref (Float.min (horizon -. t_rel) (remaining *. estimator_step_window))
      in
      for k = 1 to Int.min (m + 1) (chain_length p) do
        let slope = Float.abs (gate_real_slope p k (st.t +. t_rel)) in
        if slope > 0.0 then longest := Float.min !longest (estimator_step_v /. slope)
      done;
      let dt = fit !longest 30 in
      if Float.is_nan dt then None
      else begin
        let gap1 = gap (t_rel +. dt) (v.{watched} +. dx.{watched - 1}) in
        let frac = if gap1 >= 0.0 && gap0 < 0.0 then gap0 /. (gap0 -. gap1) else 1.0 in
        for r = 0 to m - 1 do
          v.{r + 1} <- v.{r + 1} +. (frac *. dx.{r})
        done;
        if gap1 >= 0.0 then Some (t_rel +. (frac *. dt))
        else step (t_rel +. dt) gap1 (n - 1)
      end
    end
  in
  let estimate =
    match step 0.0 (gap 0.0 v.{watched}) estimator_max_steps with
    | None ->
      st.n_est_misses <- st.n_est_misses + 1;
      None
    | Some delta ->
      currents delta;
      (if is_linear p then Vec.blit_n m i ws.alpha_b
       else
         for r = 0 to m - 1 do
           ws.alpha_b.{r} <- (i.{r} -. st.i.{r + 1}) /. delta
         done);
      Some delta
  in
  st.calls_estimator <- st.calls_estimator + (p.device_calls - calls0);
  estimate

(* Reject solutions that leave the physical operating range: committing
   them would poison every later region. Also reject regions whose
   quadratic pieces swing far outside the rails {e between} the matching
   points (the end states match but the waveform is garbage); bisecting
   the target then yields shorter, well-behaved pieces. *)
let plausible p st sol =
  let ws = p.ws in
  project p st sol.alpha sol.delta;
  let k_total = chain_length p in
  let lo = -0.3 and hi = p.vdd +. 0.3 in
  let ok = ref (Float.is_finite sol.delta && sol.delta > 0.0) in
  for k = 0 to k_total do
    let v = ws.v_end.{k} in
    if not (Float.is_finite v) || v < lo -. 0.7 || v > hi +. 0.7 then ok := false
  done;
  for k = 1 to (if is_linear p then 0 else st.active) do
    (* interior extremum of the quadratic piece, if any *)
    let a = sol.alpha.{k - 1} in
    if a <> 0.0 then begin
      let t_ext = -.st.i.{k} /. a in
      if t_ext > 0.0 && t_ext < sol.delta then begin
        let c = p.caps.(k - 1) in
        let v_ext = st.v.{k} +. (((st.i.{k} *. t_ext) +. (0.5 *. a *. t_ext *. t_ext)) /. c) in
        if v_ext < lo || v_ext > hi then ok := false
      end
    end
  done;
  !ok

(* Fixed-length fallback region: with the region length pinned, only the
   current-match equations remain and the Jacobian is purely tridiagonal.
   Always commits; guarantees forward progress. Works in [ws.alpha_a]
   (the primary attempt's buffer — dead by the time the fallback runs). *)
let solve_fixed p st delta =
  let ws = p.ws in
  let m = st.active in
  let alpha = ws.alpha_a in
  let newton0 = st.n_newton in
  if is_linear p then
    for r = 0 to m - 1 do
      alpha.{r} <- st.i.{r + 1}
    done
  else Vec.fill_n m alpha 0.0;
  let residual (a : Vec.t) ~(f : Vec.t) =
    let t' = st.t +. delta in
    let calls0 = p.device_calls in
    project p st a delta;
    edge_currents_and_derivs p m ~t:t' ~v:ws.v_end;
    let j = ws.j in
    for r = 0 to m - 1 do
      f.{r} <- ws.i_end.{r + 1} -. (j.{r + 2} -. j.{r + 1})
    done;
    st.n_residuals <- st.n_residuals + 1;
    st.calls_residual <- st.calls_residual + (p.device_calls - calls0)
  in
  let fixed_merit (f : Vec.t) =
    let acc = ref 0.0 in
    for r = 0 to m - 1 do
      acc := max_nonneg !acc (Float.abs f.{r} /. current_match_tolerance)
    done;
    !acc
  in
  (* invariant: [ws.f] holds the residual at [alpha], and
     [ws.v_end]/[ws.i_end] and [ws.d_below]/[ws.d_above] the candidate's
     projection and edge-current derivatives *)
  let rec iterate n =
    st.n_newton <- st.n_newton + 1;
    if fixed_merit ws.f <= 1.0 || n >= max_iterations then ()
    else begin
      region_jacobian p st (Level { node = m; value = 0.0 }) alpha delta;
      match
        Tridiag.solve_into ~n:m ~lower:ws.lower ~diag:ws.diag ~upper:ws.upper ~cp:ws.cp
          ~dp:ws.dp ~b:ws.f ~x:ws.dx
      with
      | exception _ -> ()
      | () ->
        st.n_solves <- st.n_solves + 1;
        let m0 = fixed_merit ws.f in
        let rec backtrack step tries =
          for r = 0 to m - 1 do
            ws.trial_alpha.{r} <- alpha.{r} -. (step *. ws.dx.{r})
          done;
          residual ws.trial_alpha ~f:ws.f_trial;
          let mt = fixed_merit ws.f_trial in
          if tries = 0 then mt
          else if Float.is_nan mt || mt >= m0 then begin
            st.n_halvings <- st.n_halvings + 1;
            backtrack (step /. 2.0) (tries - 1)
          end
          else mt
        in
        let mt = backtrack 1.0 8 in
        if Float.is_nan mt then ()
        else begin
          Vec.blit_n m ws.trial_alpha alpha;
          Vec.blit_n m ws.f_trial ws.f;
          iterate (n + 1)
        end
    end
  in
  residual alpha ~f:ws.f;
  iterate 0;
  { alpha; delta; ok = true; iters = st.n_newton - newton0; merit = fixed_merit ws.f }

(* Step size for the fallback region: move the fastest node by ~0.1 V. *)
let fallback_delta p st =
  let m = st.active in
  let dt = ref ((p.t_end -. st.t) /. 20.0) in
  for k = 1 to m do
    let rate = Float.abs st.i.{k} /. p.caps.(k - 1) in
    if rate > 0.0 then dt := Float.min !dt (0.1 /. rate)
  done;
  Float.max !dt 1e-14

(* Append one piece (shared time span, per-node coefficients) to the
   workspace piece arena. The coefficient expressions are exactly the
   ones the old boxed [Waveform.piece] construction used, so the stored
   columns are bit-identical to the former record fields. *)
let append_piece p st ~delta ~(alpha : Vec.t option) =
  let ws = p.ws in
  let k_total = chain_length p in
  let r = st.n_pieces in
  Workspace.ensure_pieces ws ~live:r (r + 1);
  let stride = ws.Workspace.piece_stride in
  let t0c = ws.Workspace.piece_t0
  and dtc = ws.Workspace.piece_dt
  and v0c = ws.Workspace.piece_v0
  and dvc = ws.Workspace.piece_dv
  and ddvc = ws.Workspace.piece_ddv in
  t0c.{r} <- st.t;
  dtc.{r} <- delta;
  let linear = is_linear p in
  for k = 1 to k_total do
    let o = (r * stride) + (k - 1) in
    v0c.{o} <- st.v.{k};
    match alpha with
    | Some a when k <= st.active ->
      if linear then begin
        dvc.{o} <- a.{k - 1} /. p.caps.(k - 1);
        ddvc.{o} <- 0.0
      end
      else begin
        dvc.{o} <- st.i.{k} /. p.caps.(k - 1);
        ddvc.{o} <- a.{k - 1} /. p.caps.(k - 1)
      end
    | Some _ | None ->
      dvc.{o} <- 0.0;
      ddvc.{o} <- 0.0
  done;
  st.n_pieces <- r + 1

(* append this region's quadratic pieces and advance the state *)
let commit p st { alpha; delta; _ } =
  let ws = p.ws in
  let k_total = chain_length p in
  let delta = Float.max delta 1e-16 in
  project p st alpha delta;
  append_piece p st ~delta ~alpha:(Some alpha);
  for k = 1 to k_total do
    st.v.{k} <- ws.v_end.{k};
    if k <= st.active then st.i.{k} <- ws.i_end.{k}
  done;
  st.t <- st.t +. delta;
  st.n_regions <- st.n_regions + 1;
  Metrics.observe h_newton_per_region (float_of_int (st.n_newton - st.newton_at_commit));
  st.newton_at_commit <- st.n_newton;
  Vec.blit_n st.active alpha ws.last_alpha;
  st.last_alpha_len <- st.active

let target_label = function
  | Turn_on k -> Printf.sprintf "turnon%d" k
  | Level { node; value } -> Printf.sprintf "level(%d,%.3f)" node value

(* Where the chosen region attempt started: from the warm start under the
   capped budget; from the estimator's seed on a cold region; from the
   estimator's seed after the warm attempt failed; or from zero curvature
   on a cold region the estimator missed. *)
type start = Warm | Seeded | Retry | Cold

let start_label = function
  | Warm -> "warm"
  | Seeded -> "seeded"
  | Retry -> "retry"
  | Cold -> "cold"

let stats_of p st =
  {
    regions = st.n_regions;
    turn_ons = st.n_turn_ons;
    newton_iterations = st.n_newton;
    linear_solves = st.n_solves;
    bisections = st.n_bisect;
    failures = st.n_fail;
    residuals = st.n_residuals;
    line_search_halvings = st.n_halvings;
    discarded_newton = st.n_discarded;
    estimator_runs = st.n_est_runs;
    estimator_steps = st.n_est_steps;
    estimator_misses = st.n_est_misses;
    device_calls_residual = st.calls_residual;
    device_calls_jacobian = st.calls_jacobian;
    device_calls_estimator = st.calls_estimator;
    device_calls_other =
      p.device_calls - st.calls_residual - st.calls_jacobian - st.calls_estimator;
  }

(* Structured per-region diagnostics: an instant trace event carrying
   the region's state, the chosen attempt's start, solution and merit,
   and the work this region's attempts did since [s0]. Called only while
   tracing; it makes no device call, so a traced solve counts the same
   work as an untraced one. *)
let trace_region p st target sol start (s0 : stats) =
  let m = st.active in
  let s = stats_of p st in
  let floats (xs : Vec.t) =
    Json.List (List.init (Vec.dim xs) (fun r -> Json.Float xs.{r}))
  in
  let floats_prefix n (xs : Vec.t) = Json.List (List.init n (fun r -> Json.Float xs.{r})) in
  let since f = Json.Int (f s - f s0) in
  Trace.instant ~name:"qwm.region" ~cat:"qwm"
    ~args:
      [
        ("t_ps", Json.Float (st.t *. 1e12));
        ("active", Json.Int st.active);
        ("target", Json.String (target_label target));
        ("start", Json.String (start_label start));
        ("ok", Json.Bool sol.ok);
        ("iters", Json.Int sol.iters);
        ("delta_ps", Json.Float (sol.delta *. 1e12));
        ("merit", Json.Float sol.merit);
        ("newton", since (fun s -> s.newton_iterations));
        ("residuals", since (fun s -> s.residuals));
        ("halvings", since (fun s -> s.line_search_halvings));
        ("estimator_steps", since (fun s -> s.estimator_steps));
        ( "device_calls",
          Json.Obj
            [
              ("residual", since (fun s -> s.device_calls_residual));
              ("jacobian", since (fun s -> s.device_calls_jacobian));
              ("estimator", since (fun s -> s.device_calls_estimator));
              ("other", since (fun s -> s.device_calls_other));
            ] );
        ("v", floats st.v);
        ("i", floats st.i);
        ("alpha", floats_prefix m sol.alpha);
      ]
    ()

(* Attempt a region. A warm region first takes a cheap attempt, capped at
   a quarter of the iteration budget, from the previous region's
   curvature; only if that fails does the estimator seed a full-budget
   retry. A cold region (the first of a solve, or the first after a
   turn-on grew the active set) has no curvature to start from, so the
   estimator seeds it at once. Every attempt ends at its first line
   search that cannot lower the merit. A region whose attempts fail is
   bisected on its target voltage; at the bisection limit a short
   fixed-length current-matching step keeps the state advancing
   physically. The warm attempt works in [ws.alpha_a] and the seeded one
   in [ws.alpha_b], so a failed retry can still fall back to the warm
   attempt's solution. *)
let rec advance p st target depth =
  let newton0 = st.n_newton in
  let before = if Trace.enabled () then Some (stats_of p st) else None in
  let cap = max_iterations / 4 in
  let sol, start =
    if warm p st then begin
      let first = solve_region ~cap p st target in
      if first.ok then (first, Warm)
      else
        match estimate_region p st target with
        | Some delta0 ->
          let retry = solve_region_from p st target p.ws.alpha_b delta0 in
          if retry.ok then (retry, Retry) else (first, Warm)
        | None -> (first, Warm)
    end
    else
      match estimate_region p st target with
      | Some delta0 -> (solve_region_from p st target p.ws.alpha_b delta0, Seeded)
      | None -> (solve_region p st target, Cold)
  in
  Option.iter (trace_region p st target sol start) before;
  if sol.ok && plausible p st sol then begin
    st.n_discarded <- st.n_discarded + (st.n_newton - newton0 - sol.iters);
    commit p st sol
  end
  else begin
    st.n_discarded <- st.n_discarded + (st.n_newton - newton0);
    let node, goal =
      match target with
      | Level { node; value } -> (node, value)
      | Turn_on k0 ->
        let m = st.active in
        (m, gate_norm p k0 st.t -. threshold p k0 ~t:st.t ~vb:st.v.{m})
    in
    let mid = (st.v.{node} +. goal) /. 2.0 in
    if depth > 0 && Float.abs (mid -. st.v.{node}) >= 1e-4 then begin
      st.n_bisect <- st.n_bisect + 1;
      advance p st (Level { node; value = mid }) (depth - 1);
      advance p st target (depth - 1)
    end
    else begin
      (* last resort: a short fixed-length step that only matches currents *)
      st.n_fail <- st.n_fail + 1;
      commit p st (solve_fixed p st (fallback_delta p st))
    end
  end

let refresh_currents p st =
  let ws = p.ws in
  let m = st.active in
  let j = ws.j in
  j.{m + 1} <- 0.0;
  for k = 1 to m do
    j.{k} <- edge_current p k ~t:st.t ~vb:st.v.{k - 1} ~va:st.v.{k}
  done;
  for k = 1 to m do
    st.i.{k} <- j.{k + 1} -. j.{k}
  done

(* first instant the (inactive-chain) bottom transistor's gate drive
   reaches threshold, by sampling + bisection; None if never *)
let find_gate_turn_on p k0 ~t_from =
  let f t = drive p k0 ~t ~vb:0.0 in
  if f t_from >= 0.0 then Some t_from
  else begin
    let samples = 512 in
    let dt = (p.t_end -. t_from) /. float_of_int samples in
    let rec scan i =
      if i > samples then None
      else begin
        let t = t_from +. (float_of_int i *. dt) in
        if f t >= 0.0 then begin
          let rec bisect lo hi n =
            if n = 0 then Some hi
            else begin
              let mid = (lo +. hi) /. 2.0 in
              if f mid >= 0.0 then bisect lo mid (n - 1) else bisect mid hi (n - 1)
            end
          in
          bisect (t -. dt) t 60
        end
        else scan (i + 1)
      end
    in
    scan 1
  end

let finalize p st alloc0 =
  let stats = stats_of p st in
  Metrics.incr c_solves;
  List.iter (fun (c, count) -> Metrics.add c (count stats)) stat_counters;
  Metrics.observe h_regions_per_solve (float_of_int st.n_regions);
  (* allocation accounting for the solve loop proper (waveform assembly
     below is inherent output, not hot path) *)
  let d = Alloc.words_since alloc0 in
  Metrics.add c_alloc_minor (int_of_float d.Alloc.minor);
  Metrics.add c_alloc_promoted (int_of_float d.Alloc.promoted);
  if st.n_regions > 0 then
    Metrics.observe h_alloc_per_region (d.Alloc.minor /. float_of_int st.n_regions);
  let ws = p.ws in
  let k_total = chain_length p in
  let t_solved = Float.max st.t (p.t_end *. 1e-3) in
  let n = st.n_pieces in
  let quads =
    if n = 0 then
      (* no pieces ever committed: one flat hold per node, mirrored back
         to real coordinates exactly as the old piece-list path did *)
      Array.init k_total (fun idx ->
          let piece =
            { Waveform.t0 = 0.0; dt = t_solved; v0 = st.v.{idx + 1}; dv = 0.0; ddv = 0.0 }
          in
          let piece =
            match p.rail with
            | Chain.Pull_down -> piece
            | Chain.Pull_up ->
              {
                piece with
                Waveform.v0 = p.vdd -. piece.Waveform.v0;
                dv = -.piece.Waveform.dv;
                ddv = -.piece.Waveform.ddv;
              }
          in
          Waveform.quadratic_of_pieces [ piece ])
    else begin
      (* Pack the arena into one fresh per-report slab: [k_total * n * 5]
         floats, node [idx]'s five columns contiguous at [idx * n * 5].
         Reports are cached and shared immutably across domains forever,
         so they get their own storage rather than recycled arena memory;
         the pull-up mirror is applied during the pack (same expressions
         as the old per-piece [unnorm]). *)
      let stride = ws.Workspace.piece_stride in
      let t0c = ws.Workspace.piece_t0
      and dtc = ws.Workspace.piece_dt
      and v0c = ws.Workspace.piece_v0
      and dvc = ws.Workspace.piece_dv
      and ddvc = ws.Workspace.piece_ddv in
      let slab = Vec.create (k_total * n * 5) in
      Array.init k_total (fun idx ->
          let base = idx * n * 5 in
          let t0v = Vec.view slab ~pos:base ~len:n in
          let dtv = Vec.view slab ~pos:(base + n) ~len:n in
          let v0v = Vec.view slab ~pos:(base + (2 * n)) ~len:n in
          let dvv = Vec.view slab ~pos:(base + (3 * n)) ~len:n in
          let ddvv = Vec.view slab ~pos:(base + (4 * n)) ~len:n in
          (match p.rail with
          | Chain.Pull_down ->
            for r = 0 to n - 1 do
              let o = (r * stride) + idx in
              t0v.{r} <- t0c.{r};
              dtv.{r} <- dtc.{r};
              v0v.{r} <- v0c.{o};
              dvv.{r} <- dvc.{o};
              ddvv.{r} <- ddvc.{o}
            done
          | Chain.Pull_up ->
            for r = 0 to n - 1 do
              let o = (r * stride) + idx in
              t0v.{r} <- t0c.{r};
              dtv.{r} <- dtc.{r};
              v0v.{r} <- p.vdd -. v0c.{o};
              dvv.{r} <- -.dvc.{o};
              ddvv.{r} <- -.ddvc.{o}
            done);
          Waveform.of_columns ~t0:t0v ~dt:dtv ~v0:v0v ~dv:dvv ~ddv:ddvv)
    end
  in
  {
    node_quadratics = quads;
    critical_times = List.rev st.crits;
    t_solved = st.t;
    stats;
  }

(* every other argument is labeled, so [?workspace] could only be erased
   by an unlabeled application that never happens; the mli fixes the type *)
let[@warning "-16"] solve ?workspace ~model ~config ~scenario ~chain ~initial =
  let alloc0 = Alloc.words () in
  let k_total = Chain.length chain in
  if Array.length initial <> k_total then
    invalid_arg "Qwm_solver.solve: initial voltage count mismatch";
  let wsp =
    match workspace with Some w -> w | None -> Workspace.for_current_domain ()
  in
  Workspace.ensure wsp k_total;
  let bufs = wsp.Workspace.bufs in
  let tech = scenario.Scenario.tech in
  let gates =
    Array.map
      (fun (e : Chain.edge) ->
        Option.map (fun g -> Scenario.source scenario g) e.Chain.gate)
      chain.Chain.edges
  in
  let p =
    {
      model;
      vdd = tech.Tqwm_device.Tech.vdd;
      rail = chain.Chain.rail;
      edges = chain.Chain.edges;
      gates;
      caps = chain.Chain.caps;
      t_end = scenario.Scenario.t_end;
      cfg = config;
      ws = bufs;
      device_calls = 0;
    }
  in
  let norm v = match p.rail with Chain.Pull_down -> v | Chain.Pull_up -> p.vdd -. v in
  let st =
    let v = Vec.view bufs.Workspace.st_v ~pos:0 ~len:(k_total + 1) in
    let i = Vec.view bufs.Workspace.st_i ~pos:0 ~len:(k_total + 1) in
    for k = 0 to k_total do
      v.{k} <- (if k = 0 then 0.0 else norm initial.(k - 1))
    done;
    Vec.fill_n (k_total + 1) i 0.0;
    {
      t = 0.0;
      v;
      i;
      active = 0;
      n_pieces = 0;
      crits = [];
      n_regions = 0;
      n_turn_ons = 0;
      n_newton = 0;
      n_solves = 0;
      n_bisect = 0;
      n_fail = 0;
      n_residuals = 0;
      n_halvings = 0;
      n_discarded = 0;
      n_est_runs = 0;
      n_est_steps = 0;
      n_est_misses = 0;
      calls_residual = 0;
      calls_jacobian = 0;
      calls_estimator = 0;
      newton_at_commit = 0;
      last_alpha_len = -1;
    }
  in
  let remaining_levels = ref (List.map (fun frac -> frac *. p.vdd) config.Config.levels) in
  let end_level = end_fraction *. p.vdd in
  let rec loop () =
    if st.t >= p.t_end || st.n_regions >= max_regions then ()
    else if st.active = 0 then begin
      (* waiting for the bottom transistor's gate to reach threshold *)
      match find_gate_turn_on p 1 ~t_from:st.t with
      | None ->
        (* never conducts: hold everything flat until the window ends *)
        append_piece p st ~delta:(p.t_end -. st.t) ~alpha:None;
        st.t <- p.t_end
      | Some t_on ->
        if t_on > st.t +. 1e-16 then begin
          append_piece p st ~delta:(t_on -. st.t) ~alpha:None;
          st.t <- t_on
        end;
        st.crits <- st.t :: st.crits;
        st.n_turn_ons <- st.n_turn_ons + 1;
        st.active <- extend_front p 1;
        refresh_currents p st;
        loop ()
    end
    else if st.active < k_total then begin
      let k0 = st.active + 1 in
      (* fire within tolerance: a just-solved turn-on region leaves the
         drive within the Newton voltage tolerance of zero *)
      let fire_margin = -10.0 *. voltage_tolerance in
      if drive p k0 ~t:st.t ~vb:st.v.{st.active} >= fire_margin then begin
        (* already past threshold: fire the critical point immediately *)
        st.crits <- st.t :: st.crits;
        st.n_turn_ons <- st.n_turn_ons + 1;
        st.active <- extend_front p k0;
        refresh_currents p st;
        loop ()
      end
      else begin
        advance p st (Turn_on k0) bisect_depth;
        loop ()
      end
    end
    else begin
      (* all transistors on: follow the output down the level ladder *)
      let v_out = st.v.{k_total} in
      if v_out <= end_level then ()
      else begin
        let rec pick () =
          match !remaining_levels with
          | [] -> None
          | l :: rest ->
            if l < v_out -. 1e-6 then Some l
            else begin
              remaining_levels := rest;
              pick ()
            end
        in
        match pick () with
        | None -> ()
        | Some level ->
          remaining_levels := List.tl !remaining_levels;
          advance p st (Level { node = k_total; value = level }) bisect_depth;
          loop ()
      end
    end
  in
  loop ();
  finalize p st alloc0
