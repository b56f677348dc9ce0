(* Tests for the interconnect substrate: RC trees, moments, Elmore, AWE
   and the O'Brien-Savarino pi reduction. *)

open Tqwm_interconnect
module Rc = Rc_tree

let tech = Tqwm_device.Tech.cmosp35

(* [eps] is relative to [expected], so values in farads or seconds are
   checked as tightly as values near 1; an expected 0 takes [eps] as an
   absolute bound *)
let check_close ?(eps = 1e-9) msg expected actual =
  let bound = if expected = 0.0 then eps else eps *. Float.abs expected in
  if Float.abs (expected -. actual) > bound then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- RC trees ---------- *)

let test_tree_validation () =
  Alcotest.check_raises "bad root" (Invalid_argument "Rc_tree.make: node 0 must be the root")
    (fun () -> ignore (Rc.make ~parent:[| 0 |] ~resistance:[| 0.0 |] ~cap:[| 1.0 |]));
  Alcotest.check_raises "forward parent"
    (Invalid_argument "Rc_tree.make: parents must precede children") (fun () ->
      ignore (Rc.make ~parent:[| -1; 2; 1 |] ~resistance:[| 0.0; 1.0; 1.0 |] ~cap:[| 0.0; 1.0; 1.0 |]))

let test_ladder_totals () =
  let lad = Rc.of_ladder ~r_total:100.0 ~c_total:1e-12 ~segments:10 in
  Alcotest.(check int) "nodes" 11 (Rc.num_nodes lad);
  check_close "cap conserved" 1e-12 (Rc.total_cap lad);
  check_close "resistance to far end" 100.0 (Rc.total_resistance_to lad 10)

let test_downstream_caps () =
  (* Y-shaped tree: root - a - (b, c) *)
  let t =
    Rc.make ~parent:[| -1; 0; 1; 1 |] ~resistance:[| 0.0; 1.0; 2.0; 3.0 |]
      ~cap:[| 1.0; 2.0; 4.0; 8.0 |]
  in
  let d = Rc.downstream_caps t in
  check_close "leaf" 8.0 d.(3);
  check_close "internal" 14.0 d.(1);
  check_close "root" 15.0 d.(0)

let test_shared_resistance () =
  let t =
    Rc.make ~parent:[| -1; 0; 1; 1 |] ~resistance:[| 0.0; 1.0; 2.0; 3.0 |]
      ~cap:[| 0.0; 1.0; 1.0; 1.0 |]
  in
  check_close "siblings share the trunk" 1.0 (Rc.shared_resistance t 2 3);
  check_close "self shares full path" 3.0 (Rc.shared_resistance t 2 2);
  check_close "symmetric" (Rc.shared_resistance t 3 2) (Rc.shared_resistance t 2 3)

let test_elmore_single_rc () =
  let t = Rc.make ~parent:[| -1; 0 |] ~resistance:[| 0.0; 1e3 |] ~cap:[| 0.0; 1e-12 |] in
  check_close "RC" 1e-9 (Rc.elmore t 1)

let prop_elmore_is_first_moment =
  QCheck2.Test.make ~name:"Elmore delay equals -m1 on random trees" ~count:100
    QCheck2.Gen.(pair (int_range 2 12) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 7 |] in
      let gen lo hi = lo +. ((hi -. lo) *. Random.State.float rng 1.0) in
      let t =
        Rc.make
          ~parent:(Array.init n (fun i -> if i = 0 then -1 else Random.State.int rng i))
          ~resistance:(Array.init n (fun i -> if i = 0 then 0.0 else gen 1.0 100.0))
          ~cap:(Array.init n (fun _ -> gen 1e-15 1e-13))
      in
      let m = Rc.moments t ~order:1 in
      let ok = ref true in
      for node = 0 to n - 1 do
        let elm = Rc.elmore t node in
        if Float.abs (elm +. m.(1).(node)) > 1e-9 *. (elm +. 1e-15) then ok := false
      done;
      !ok)

let test_moments_zeroth () =
  let t = Rc.of_ladder ~r_total:10.0 ~c_total:1e-13 ~segments:4 in
  let m = Rc.moments t ~order:0 in
  Array.iter (fun x -> check_close "m0 = 1" 1.0 x) m.(0)

(* ---------- AWE ---------- *)

let test_awe_single_pole_exact () =
  let r = 1e3 and c = 1e-12 in
  let t = Rc.make ~parent:[| -1; 1 - 1 |] ~resistance:[| 0.0; r |] ~cap:[| 0.0; c |] in
  let tp = Awe.of_tree t ~node:1 in
  (* step response must match 1 - exp(-t/RC) *)
  List.iter
    (fun time ->
      check_close ~eps:1e-6 "exp response"
        (1.0 -. exp (-.time /. (r *. c)))
        (Awe.step_response tp time))
    [ 0.1e-9; 0.5e-9; 1e-9; 3e-9 ];
  check_close ~eps:1e-6 "50% delay" (r *. c *. log 2.0) (Awe.delay_to tp ~level:0.5)

let test_awe_ladder_stable_and_sane () =
  let lad = Rc.of_ladder ~r_total:500.0 ~c_total:2e-12 ~segments:12 in
  let far = Rc.num_nodes lad - 1 in
  let tp = Awe.of_tree lad ~node:far in
  let p1, p2 = tp.Awe.poles in
  Alcotest.(check bool) "poles negative" true (p1 < 0.0 && p2 < 0.0);
  let elmore = Rc.elmore lad far in
  let d50 = Awe.delay_to tp ~level:0.5 in
  (* 2-pole delay should land near ln2 * Elmore for a uniform line *)
  Alcotest.(check bool) "delay near ln2*elmore" true
    (d50 > 0.3 *. elmore && d50 < 1.2 *. elmore);
  check_close ~eps:1e-6 "monotone start" 0.0 (Awe.step_response tp 0.0)

let prop_awe_random_ladders_stable =
  QCheck2.Test.make ~name:"AWE stable on random RC ladders" ~count:100
    QCheck2.Gen.(triple (float_range 10.0 5000.0) (float_range 1e-14 1e-11) (int_range 2 20))
    (fun (r, c, segments) ->
      let lad = Rc.of_ladder ~r_total:r ~c_total:c ~segments in
      let far = Rc.num_nodes lad - 1 in
      match Awe.of_tree lad ~node:far with
      | tp ->
        let p1, p2 = tp.Awe.poles in
        p1 < 0.0 && p2 < 0.0
      | exception Awe.Unstable -> false)

let test_awe_unstable_raises () =
  (match Awe.fit ~m1:1.0 ~m2:(-1.0) ~m3:1.0 with
  | exception Awe.Unstable -> ()
  | _ -> Alcotest.fail "expected Unstable")

let test_awe_delay_validation () =
  let tp = Awe.fit ~m1:(-1e-9) ~m2:1e-18 ~m3:(-1e-27) in
  Alcotest.check_raises "level range" (Invalid_argument "Awe.delay_to: level out of (0,1)")
    (fun () -> ignore (Awe.delay_to tp ~level:1.5))

(* ---------- pi model ---------- *)

let test_pi_single_rc_exact () =
  let t = Rc.make ~parent:[| -1; 0 |] ~resistance:[| 0.0; 1e3 |] ~cap:[| 0.0; 1e-12 |] in
  let pi = Pi_model.of_tree t in
  check_close ~eps:1e-9 "r" 1e3 pi.Pi_model.r;
  check_close ~eps:1e-9 "c_far" 1e-12 pi.Pi_model.c_far;
  check_close ~eps:1e-9 "c_near" 0.0 pi.Pi_model.c_near

let prop_pi_conserves_total_cap =
  QCheck2.Test.make ~name:"pi reduction conserves total capacitance" ~count:100
    QCheck2.Gen.(triple (float_range 10.0 2000.0) (float_range 1e-14 1e-11) (int_range 2 16))
    (fun (r, c, segments) ->
      let lad = Rc.of_ladder ~r_total:r ~c_total:c ~segments in
      let pi = Pi_model.of_tree lad in
      Float.abs (Pi_model.total_cap pi -. c) < 1e-9 *. c)

let test_pi_of_wire () =
  let pi = Pi_model.of_wire tech ~w:0.6e-6 ~l:100e-6 ~segments:8 in
  let c_total = Tqwm_device.Capacitance.wire_total tech ~w:0.6e-6 ~l:100e-6 in
  check_close ~eps:1e-9 "wire cap conserved" c_total (Pi_model.total_cap pi);
  Alcotest.(check bool) "resistance positive" true (pi.Pi_model.r > 0.0)

let test_pi_validation () =
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Pi_model: degenerate admittance moments") (fun () ->
      ignore (Pi_model.of_admittance_moments ~y1:1e-12 ~y2:0.0 ~y3:0.0))

(* ---------- uniform line ---------- *)

(* A uniform distributed RC line of total R and C has driving-point
   admittance y1 = C, y2 = -RC^2/3, y3 = 2R^2C^3/15, hence the textbook pi
   (C/6, 12R/25, 5C/6) and a far-end Elmore delay of RC/2. The ladder
   discretisation must reproduce both. Each check compares a ratio to R, C
   or RC, so its tolerance is relative. *)

let line_r = 800.0
let line_c = 0.4e-12

let test_line_elmore () =
  (* half-capacitances at the two ends make RC/2 exact for every n *)
  List.iter
    (fun segments ->
      let lad = Rc.of_ladder ~r_total:line_r ~c_total:line_c ~segments in
      check_close ~eps:1e-12
        (Printf.sprintf "far-end Elmore / RC, %d segments" segments)
        0.5
        (Rc.elmore lad segments /. (line_r *. line_c)))
    [ 1; 2; 3; 10; 40 ]

let test_line_pi_limit () =
  let pi = Pi_model.of_tree (Rc.of_ladder ~r_total:line_r ~c_total:line_c ~segments:64) in
  check_close ~eps:1e-3 "c_near / C" (1.0 /. 6.0) (pi.Pi_model.c_near /. line_c);
  check_close ~eps:1e-3 "r / R" (12.0 /. 25.0) (pi.Pi_model.r /. line_r);
  check_close ~eps:1e-3 "c_far / C" (5.0 /. 6.0) (pi.Pi_model.c_far /. line_c)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop p = QCheck_alcotest.to_alcotest p in
  Alcotest.run "tqwm_interconnect"
    [
      ( "rc_tree",
        [
          quick "validation" test_tree_validation;
          quick "ladder totals" test_ladder_totals;
          quick "downstream caps" test_downstream_caps;
          quick "shared resistance" test_shared_resistance;
          quick "elmore single RC" test_elmore_single_rc;
          prop prop_elmore_is_first_moment;
          quick "zeroth moments" test_moments_zeroth;
        ] );
      ( "awe",
        [
          quick "single pole exact" test_awe_single_pole_exact;
          quick "ladder" test_awe_ladder_stable_and_sane;
          prop prop_awe_random_ladders_stable;
          quick "unstable raises" test_awe_unstable_raises;
          quick "level validation" test_awe_delay_validation;
        ] );
      ( "pi_model",
        [
          quick "single RC exact" test_pi_single_rc_exact;
          prop prop_pi_conserves_total_cap;
          quick "of_wire" test_pi_of_wire;
          quick "validation" test_pi_validation;
        ] );
      ( "uniform_line",
        [
          quick "far-end Elmore is RC/2" test_line_elmore;
          quick "pi limit" test_line_pi_limit;
        ] );
    ]
