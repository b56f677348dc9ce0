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

(* Global solver telemetry; one atomic add per counter per solve. *)
let c_solves = Metrics.counter "qwm.solves"
let c_regions = Metrics.counter "qwm.regions"
let c_turn_ons = Metrics.counter "qwm.turn_ons"
let c_newton = Metrics.counter "qwm.newton_iterations"
let c_linear_solves = Metrics.counter "qwm.linear_solves"
let c_bisections = Metrics.counter "qwm.bisections"
let c_failures = Metrics.counter "qwm.failures"
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
    (* SoA edge-current derivatives, replacing the arrays of tuples *)
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
    alpha_a : Vec.t;  (* K: primary attempt / fixed-delta fallback *)
    alpha_b : Vec.t;  (* K: explicit-Euler retry *)
    trial_alpha : Vec.t;  (* K: line-search trial *)
    seed : Vec.t;  (* K: estimate_region output *)
    last_alpha : Vec.t;  (* K: previous region's curvature *)
    (* explicit-Euler estimator state *)
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
       query and one derivative out-buffer, so the model calls that fire
       several times per Newton iteration never allocate *)
    tvs : Device_model.terminal_voltages;
    dv : Device_model.derivs;
  }

  let alloc cap =
    let k1 = cap + 1 in
    let total = (19 * k1) + (cap + 2) + (14 * cap) + (k1 * k1) in
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
    let seed = take cap in
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
      seed;
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
}

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
  mutable last_alpha_len : int;
      (** live prefix of [ws.last_alpha] (warm start); -1 before the
          first committed region *)
}

let chain_length p = Array.length p.edges

let real_of_norm p x =
  match p.rail with Chain.Pull_down -> x | Chain.Pull_up -> p.vdd -. x

let gate_real p k t =
  match p.gates.(k - 1) with Some s -> Source.value s t | None -> 0.0

let gate_real_slope p k t =
  match p.gates.(k - 1) with Some s -> Source.derivative s t | None -> 0.0

let gate_norm p k t = real_of_norm p (gate_real p k t)

let gate_norm_slope p k t =
  match p.rail with
  | Chain.Pull_down -> gate_real_slope p k t
  | Chain.Pull_up -> -.gate_real_slope p k t

(* terminal voltages of edge k for normalized below/above node voltages,
   refilled into the workspace scratch record (the model only reads it
   during the call, so one record serves every query) *)
let terminal_voltages p k ~t ~vb ~va =
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
let edge_current p k ~t ~vb ~va =
  p.model.Device_model.iv p.edges.(k - 1).Chain.device (terminal_voltages p k ~t ~vb ~va)

(* (dJ'_k/dv'_below, dJ'_k/dv'_above), left in [p.ws.dv] with the below
   derivative in [dsrc] and the above derivative in [dsnk] (the record is
   repurposed as the rail-mapped pair — same expressions as the old
   tuple-returning form, so the values are bit-identical) *)
let edge_current_derivs_into p k ~t ~vb ~va =
  let tv = terminal_voltages p k ~t ~vb ~va in
  let d = p.ws.Workspace.dv in
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
let edge_current_dt p k ~t ~vb ~va =
  let slope = gate_real_slope p k t in
  if slope = 0.0 then 0.0
  else begin
    let tv = terminal_voltages p k ~t ~vb ~va in
    let h = 1e-5 in
    let device = p.edges.(k - 1).Chain.device in
    let g0 = tv.Device_model.input in
    tv.Device_model.input <- g0 +. h;
    let up = p.model.Device_model.iv device tv in
    tv.Device_model.input <- g0 -. h;
    let dn = p.model.Device_model.iv device tv in
    (up -. dn) /. (2.0 *. h) *. slope
  end

(* body-corrected threshold of edge k seen from its below node *)
let threshold p k ~t ~vb =
  let real_b = real_of_norm p vb in
  let tv = p.ws.Workspace.tvs in
  tv.Device_model.input <- gate_real p k t;
  tv.Device_model.src <- real_b;
  tv.Device_model.snk <- real_b;
  p.model.Device_model.threshold p.edges.(k - 1).Chain.device tv

let threshold_slope p k ~t ~vb =
  let h = 1e-5 in
  (threshold p k ~t ~vb:(vb +. h) -. threshold p k ~t ~vb:(vb -. h)) /. (2.0 *. h)

(* gate drive in excess of threshold; the transistor conducts when >= 0 *)
let drive p k ~t ~vb = gate_norm p k t -. vb -. threshold p k ~t ~vb

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

(* Residual of the region system at (alpha, delta), written into the first
   [m+1] slots of [f]. Also leaves [ws.v_end]/[ws.i_end] holding the
   candidate's projection — [region_jacobian] relies on this. *)
let region_residual p st target alpha delta ~(f : Vec.t) =
  let ws = p.ws in
  let m = st.active in
  let t' = st.t +. delta in
  project p st alpha delta;
  let v_end = ws.v_end and i_end = ws.i_end and j = ws.j in
  (* j.(m+1) is 0: the edge above the front is an off transistor *)
  j.{m + 1} <- 0.0;
  for k = 1 to m do
    j.{k} <- edge_current p k ~t:t' ~vb:v_end.{k - 1} ~va:v_end.{k}
  done;
  for k = 1 to m do
    f.{k - 1} <- i_end.{k} -. (j.{k + 1} -. j.{k})
  done;
  match target with
  | Turn_on k0 -> f.{m} <- drive p k0 ~t:t' ~vb:v_end.{m}
  | Level { node; value } -> f.{m} <- v_end.{node} -. value

(* Jacobian of the region system, written as its structural components:
   the alpha-block tridiagonal and dense last (d/d delta) column into the
   workspace band buffers, the single non-zero of the last row (at
   alpha_m) into [ws.last_row_m] and the corner into [ws.corner].

   Precondition: [ws.v_end]/[ws.i_end] already hold the projection of
   (alpha, delta) — always true because the accepted candidate's residual
   is the last one evaluated. This removes the duplicate [project] the
   old code performed once per Newton iteration. *)
let region_jacobian p st target (alpha : Vec.t) delta =
  let ws = p.ws in
  let m = st.active in
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
    edge_current_derivs_into p k ~t:t' ~vb:v_end.{k - 1} ~va:v_end.{k};
    d_below.{idx} <- ws.dv.Device_model.dsrc;
    d_above.{idx} <- ws.dv.Device_model.dsnk;
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
  match target with
  | Turn_on k0 ->
    let vth' = threshold_slope p k0 ~t:t' ~vb:v_end.{m} in
    ws.last_row_m <- (-1.0 -. vth') *. h.{m - 1};
    ws.corner <- gate_norm_slope p k0 t' -. ((1.0 +. vth') *. w.{m})
  | Level _ ->
    ws.last_row_m <- h.{m - 1};
    ws.corner <- w.{m}

(* Solve the bordered system held in the workspace band buffers for the
   Newton step, reading the residual from [f] and writing the step into
   [ws.dx.(0..m)]. All three solver modes run allocation-free on the
   in-place kernels, bit-identical to the old allocating forms. *)
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

let converged p (f : Vec.t) m =
  let ok = ref (Float.abs f.{m} <= p.cfg.Config.voltage_tolerance) in
  for k = 0 to m - 1 do
    if Float.abs f.{k} > p.cfg.Config.current_tolerance then ok := false
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

type region_solution = { alpha : Vec.t; delta : float; ok : bool; iters : int }

(* Scale-free residual magnitude: current matches in units of the current
   tolerance, the end condition in units of the voltage tolerance. *)
let merit p (f : Vec.t) m =
  let acc = ref (Float.abs f.{m} /. p.cfg.Config.voltage_tolerance) in
  for k = 0 to m - 1 do
    acc := Float.max !acc (Float.abs f.{k} /. p.cfg.Config.current_tolerance)
  done;
  !acc

(* Newton iteration working in place on [alpha], a workspace-owned buffer
   already holding the start point (used directly by [solve_region], and
   with the explicit estimator's seed after a cheap-start failure). The
   returned solution aliases [alpha]; it stays valid until the buffer's
   next attempt. *)
let solve_region_from ?cap p st target (alpha : Vec.t) delta0 =
  let ws = p.ws in
  let m = st.active in
  let cfg = p.cfg in
  let max_iterations = Option.value cap ~default:cfg.Config.max_iterations in
  let delta = ref (Float.max delta0 1e-15) in
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
     [ws.v_end]/[ws.i_end] that candidate's projection *)
  let rec iterate n =
    st.n_newton <- st.n_newton + 1;
    if converged p ws.f m then { alpha; delta = !delta; ok = true; iters = n }
    else if n >= max_iterations then { alpha; delta = !delta; ok = false; iters = n }
    else begin
      region_jacobian p st target alpha !delta;
      match solve_linear p m ~f:ws.f with
      | exception _ -> { alpha; delta = !delta; ok = false; iters = n }
      | () ->
        st.n_solves <- st.n_solves + 1;
        let m0 = merit p ws.f m in
        let rec backtrack step tries =
          let trial_delta = apply_step step in
          region_residual p st target ws.trial_alpha trial_delta ~f:ws.f_trial;
          let mt = merit p ws.f_trial m in
          if tries = 0 then trial_delta
          else if Float.is_nan mt || mt >= m0 then backtrack (step /. 2.0) (tries - 1)
          else trial_delta
        in
        let trial_delta = backtrack cfg.Config.damping 10 in
        let mt = merit p ws.f_trial m in
        if Float.is_nan mt then { alpha; delta = !delta; ok = false; iters = n }
        else begin
          Vec.blit_n m ws.trial_alpha alpha;
          delta := trial_delta;
          Vec.blit_n (m + 1) ws.f_trial ws.f;
          iterate (n + 1)
        end
    end
  in
  region_residual p st target alpha !delta ~f:ws.f;
  if Float.is_nan (merit p ws.f m) then { alpha; delta = !delta; ok = false; iters = 0 }
  else iterate 0

let solve_region ?cap p st target =
  let ws = p.ws in
  let m = st.active in
  let x0 = ws.alpha_a in
  if is_linear p then
    for r = 0 to m - 1 do
      x0.{r} <- st.i.{r + 1}
    done
  else if st.last_alpha_len = m then Vec.blit_n m ws.last_alpha x0
  else Vec.fill_n m x0 0.0;
  solve_region_from ?cap p st target x0 (initial_delta p st target)

(* Coarse explicit-Euler integration of the active nodes up to the target
   condition: a robust initial guess when the plain Newton start fails
   (e.g. a turn-on region whose condition node has only just activated and
   carries no current yet). The curvature seed lands in [ws.seed]. *)
let estimate_region p st target =
  let ws = p.ws in
  let m = st.active in
  let v = ws.est_v and i = ws.est_i in
  Vec.blit_n (m + 1) st.v v;
  Vec.fill_n (m + 1) i 0.0;
  let remaining = Float.max (p.t_end -. st.t) 1e-12 in
  let reached t_rel =
    match target with
    | Turn_on k0 -> drive p k0 ~t:(st.t +. t_rel) ~vb:v.{m} >= 0.0
    | Level { node; value } -> v.{node} <= value
  in
  let compute_currents t_rel =
    let j = ws.j in
    j.{m + 1} <- 0.0;
    for k = 1 to m do
      j.{k} <- edge_current p k ~t:(st.t +. t_rel) ~vb:v.{k - 1} ~va:v.{k}
    done;
    for k = 1 to m do
      i.{k} <- j.{k + 1} -. j.{k}
    done
  in
  let rec step t_rel n =
    if reached t_rel && t_rel > 0.0 then Some t_rel
    else if n = 0 || t_rel > remaining *. 4.0 then None
    else begin
      compute_currents t_rel;
      (* limit the per-step voltage change for stability *)
      let dt = ref (remaining /. 50.0) in
      for k = 1 to m do
        let rate = Float.abs i.{k} /. p.caps.(k - 1) in
        if rate > 0.0 then dt := Float.min !dt (0.08 /. rate)
      done;
      let dt = Float.max !dt 1e-16 in
      for k = 1 to m do
        v.{k} <- v.{k} +. (i.{k} /. p.caps.(k - 1) *. dt)
      done;
      step (t_rel +. dt) (n - 1)
    end
  in
  match step 0.0 600 with
  | None -> None
  | Some delta ->
    compute_currents delta;
    (if is_linear p then
       for r = 0 to m - 1 do
         ws.seed.{r} <- i.{r + 1}
       done
     else
       for r = 0 to m - 1 do
         ws.seed.{r} <- (i.{r + 1} -. st.i.{r + 1}) /. delta
       done);
    Some delta

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
  let cfg = p.cfg in
  let alpha = ws.alpha_a in
  if is_linear p then
    for r = 0 to m - 1 do
      alpha.{r} <- st.i.{r + 1}
    done
  else Vec.fill_n m alpha 0.0;
  let residual (a : Vec.t) ~(f : Vec.t) =
    let t' = st.t +. delta in
    project p st a delta;
    let j = ws.j in
    j.{m + 1} <- 0.0;
    for k = 1 to m do
      j.{k} <- edge_current p k ~t:t' ~vb:ws.v_end.{k - 1} ~va:ws.v_end.{k}
    done;
    for r = 0 to m - 1 do
      f.{r} <- ws.i_end.{r + 1} -. (j.{r + 2} -. j.{r + 1})
    done
  in
  let fixed_merit (f : Vec.t) =
    let acc = ref 0.0 in
    for r = 0 to m - 1 do
      acc := Float.max !acc (Float.abs f.{r} /. cfg.Config.current_tolerance)
    done;
    !acc
  in
  (* invariant: [ws.f] holds the residual at [alpha], and
     [ws.v_end]/[ws.i_end] the candidate's projection *)
  let rec iterate n =
    st.n_newton <- st.n_newton + 1;
    if fixed_merit ws.f <= 1.0 || n >= cfg.Config.max_iterations then ()
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
          else if Float.is_nan mt || mt >= m0 then backtrack (step /. 2.0) (tries - 1)
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
  { alpha; delta; ok = true; iters = 0 }

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
let commit p st { alpha; delta; ok; iters = _ } =
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
  Vec.blit_n st.active alpha ws.last_alpha;
  st.last_alpha_len <- st.active;
  if not ok then st.n_fail <- st.n_fail + 1

let target_label = function
  | Turn_on k -> Printf.sprintf "turnon%d" k
  | Level { node; value } -> Printf.sprintf "level(%d,%.3f)" node value

(* Structured per-region diagnostics: an instant trace event carrying
   the region's state, solution and merit. Called only while tracing. *)
let trace_region p st target sol =
  let m = st.active in
  region_residual p st target sol.alpha sol.delta ~f:p.ws.f_trial;
  let floats (xs : Vec.t) =
    Json.List (List.init (Vec.dim xs) (fun r -> Json.Float xs.{r}))
  in
  let floats_prefix n (xs : Vec.t) = Json.List (List.init n (fun r -> Json.Float xs.{r})) in
  Trace.instant ~name:"qwm.region" ~cat:"qwm"
    ~args:
      [
        ("t_ps", Json.Float (st.t *. 1e12));
        ("active", Json.Int st.active);
        ("target", Json.String (target_label target));
        ("ok", Json.Bool sol.ok);
        ("iters", Json.Int sol.iters);
        ("delta_ps", Json.Float (sol.delta *. 1e12));
        ("merit", Json.Float (merit p p.ws.f_trial m));
        ("v", floats st.v);
        ("i", floats st.i);
        ("alpha", floats_prefix m sol.alpha);
      ]
    ()

(* Attempt a region. Escalation ladder on Newton failure: retry from an
   explicit-Euler warm start; bisect the target voltage; finally take a
   short fixed-length current-matching step so the state always advances
   physically. The primary attempt works in [ws.alpha_a] and the retry in
   [ws.alpha_b], so a failed retry can still fall back to the primary's
   solution. *)
let rec advance p st target depth =
  let ws = p.ws in
  let sol =
    (* a cheap capped attempt first; the explicit-Euler warm start earns
       the full iteration budget only when the cheap start fails *)
    let first = solve_region ~cap:(p.cfg.Config.max_iterations / 4) p st target in
    if first.ok then first
    else
      match estimate_region p st target with
      | Some delta0 ->
        Vec.blit_n st.active ws.seed ws.alpha_b;
        let retry = solve_region_from p st target ws.alpha_b delta0 in
        if retry.ok then retry else first
      | None -> first
  in
  if Trace.enabled () then trace_region p st target sol;
  Metrics.observe h_newton_per_region (float_of_int sol.iters);
  if sol.ok && plausible p st sol then commit p st sol
  else begin
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
  Metrics.incr c_solves;
  Metrics.add c_regions st.n_regions;
  Metrics.add c_turn_ons st.n_turn_ons;
  Metrics.add c_newton st.n_newton;
  Metrics.add c_linear_solves st.n_solves;
  Metrics.add c_bisections st.n_bisect;
  Metrics.add c_failures st.n_fail;
  Metrics.observe h_regions_per_solve (float_of_int st.n_regions);
  (* allocation accounting for the solve loop proper (waveform assembly
     below is inherent output, not hot path) *)
  let d = Alloc.since alloc0 in
  Metrics.add c_alloc_minor (int_of_float d.Alloc.minor_words);
  Metrics.add c_alloc_promoted (int_of_float d.Alloc.promoted_words);
  if st.n_regions > 0 then
    Metrics.observe h_alloc_per_region
      (d.Alloc.minor_words /. float_of_int st.n_regions);
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
    stats =
      {
        regions = st.n_regions;
        turn_ons = st.n_turn_ons;
        newton_iterations = st.n_newton;
        linear_solves = st.n_solves;
        bisections = st.n_bisect;
        failures = st.n_fail;
      };
  }

(* every other argument is labeled, so [?workspace] could only be erased
   by an unlabeled application that never happens; the mli fixes the type *)
let[@warning "-16"] solve ?workspace ~model ~config ~scenario ~chain ~initial =
  let alloc0 = Alloc.sample () in
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
      last_alpha_len = -1;
    }
  in
  let remaining_levels = ref (List.map (fun frac -> frac *. p.vdd) config.Config.levels) in
  let end_level = config.Config.end_fraction *. p.vdd in
  let rec loop () =
    if st.t >= p.t_end || st.n_regions >= config.Config.max_regions then ()
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
      let fire_margin = -10.0 *. config.Config.voltage_tolerance in
      if drive p k0 ~t:st.t ~vb:st.v.{st.active} >= fire_margin then begin
        (* already past threshold: fire the critical point immediately *)
        st.crits <- st.t :: st.crits;
        st.n_turn_ons <- st.n_turn_ons + 1;
        st.active <- extend_front p k0;
        refresh_currents p st;
        loop ()
      end
      else begin
        advance p st (Turn_on k0) config.Config.bisect_depth;
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
          advance p st (Level { node = k_total; value = level }) config.Config.bisect_depth;
          loop ()
      end
    end
  in
  loop ();
  finalize p st alloc0
