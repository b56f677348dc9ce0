(* Tests for the circuit layer: stages, builders, chains, path lowering,
   scenarios, random circuits, the catalog and CCC extraction. *)

open Tqwm_device
open Tqwm_circuit

let tech = Tech.cmosp35

let golden = Models.golden tech

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- stage builder ---------- *)

let test_stage_builder_basics () =
  let stage = Builders.nand ~n:3 tech in
  Alcotest.(check int) "nodes: vdd gnd out x1 x2" 5 stage.Stage.num_nodes;
  Alcotest.(check int) "edges: 3 nmos + 3 pmos" 6 (Array.length stage.Stage.edges);
  Alcotest.(check (list string)) "inputs deduplicated" [ "a1"; "a2"; "a3" ]
    (Stage.inputs stage);
  let out = Builders.output_exn stage in
  Alcotest.(check string) "output name" "out" (Stage.node_name stage out);
  Alcotest.(check int) "incident at out: top nmos + 3 pmos" 4
    (List.length (Stage.incident stage out))

let test_stage_builder_errors () =
  let b = Stage.create () in
  let n = Stage.add_node b "n" in
  Alcotest.check_raises "transistor needs gate"
    (Invalid_argument "Stage.add_edge: transistor without a gate input") (fun () ->
      Stage.add_edge b (Device.nmos ~w:1e-6 tech) ~src:n ~snk:(Stage.ground b));
  Alcotest.check_raises "wire cannot have gate"
    (Invalid_argument "Stage.add_edge: wire with a gate input") (fun () ->
      Stage.add_edge b ~gate:"x" (Device.wire ~w:1e-6 ~l:1e-6) ~src:n
        ~snk:(Stage.ground b));
  Alcotest.check_raises "self loop" (Invalid_argument "Stage.add_edge: self-loop")
    (fun () -> Stage.add_edge b (Device.wire ~w:1e-6 ~l:1e-6) ~src:n ~snk:n)

let test_node_capacitance_sums () =
  let load = 7e-15 in
  let stage = Builders.inverter ~load tech in
  let out = Builders.output_exn stage in
  let c = Stage.node_capacitance golden stage out ~v:1.0 in
  let manual =
    List.fold_left
      (fun acc (e : Stage.edge) ->
        acc
        +.
        if e.Stage.src = out then golden.Device_model.src_cap e.device ~v:1.0
        else golden.Device_model.snk_cap e.device ~v:1.0)
      load (Stage.incident stage out)
  in
  check_close "cap = device terms + load" manual c;
  check_close "rails report zero" 0.0
    (Stage.node_capacitance golden stage stage.Stage.supply ~v:1.0)

(* ---------- chain ---------- *)

let test_chain_validation () =
  let nmos = Device.nmos ~w:1e-6 tech in
  Alcotest.check_raises "empty" (Invalid_argument "Chain.make: empty chain") (fun () ->
      ignore (Chain.make ~rail:Chain.Pull_down ~edges:[] ~caps:[]));
  Alcotest.check_raises "cap mismatch"
    (Invalid_argument "Chain.make: edge/capacitance count mismatch") (fun () ->
      ignore
        (Chain.make ~rail:Chain.Pull_down
           ~edges:[ { Chain.device = nmos; gate = Some "g" } ]
           ~caps:[ 1e-15; 2e-15 ]));
  Alcotest.check_raises "gateless transistor"
    (Invalid_argument "Chain.make: transistor edge without gate") (fun () ->
      ignore
        (Chain.make ~rail:Chain.Pull_down
           ~edges:[ { Chain.device = nmos; gate = None } ]
           ~caps:[ 1e-15 ]))

let test_chain_positions () =
  let chain =
    Chain.make ~rail:Chain.Pull_down
      ~edges:
        [
          { Chain.device = Device.nmos ~w:1e-6 tech; gate = Some "g1" };
          { Chain.device = Device.wire ~w:1e-6 ~l:10e-6; gate = None };
          { Chain.device = Device.nmos ~w:1e-6 tech; gate = Some "g2" };
        ]
      ~caps:[ 1e-15; 1e-15; 1e-15 ]
  in
  Alcotest.(check (list int)) "transistor positions" [ 1; 3 ]
    (Chain.transistor_positions chain);
  Alcotest.(check int) "output node" 3 (Chain.output_node chain)

(* ---------- path lowering ---------- *)

let test_path_nand_lowering () =
  let scenario = Scenario.nand_falling ~n:4 tech in
  let lowering = Scenario.lower ~model:golden scenario in
  let chain = lowering.Path.chain in
  Alcotest.(check int) "chain has 4 series transistors" 4 (Chain.length chain);
  (* bottom-up order: x1 x2 x3 out *)
  let names =
    Array.to_list lowering.Path.stage_nodes
    |> List.map (Stage.node_name scenario.Scenario.stage)
  in
  Alcotest.(check (list string)) "order" [ "x1"; "x2"; "x3"; "out" ] names;
  Array.iter
    (fun c -> Alcotest.(check bool) "caps positive" true (c > 0.0))
    chain.Chain.caps;
  (* the output node carries the PMOS junctions: it must dominate *)
  let out_cap = chain.Chain.caps.(3) and mid_cap = chain.Chain.caps.(1) in
  Alcotest.(check bool) "output cap largest" true (out_cap > mid_cap)

let test_path_requires_conducting () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  (match
     Path.to_chain ~model:golden ~rail:Chain.Pull_down
       ~output:scenario.Scenario.output
       ~conducting:(fun _ -> false)
       ~bias:(fun _ -> 1.0)
       scenario.Scenario.stage
   with
  | exception Path.No_path _ -> ()
  | _ -> Alcotest.fail "expected No_path")

let test_conducting_excludes_pmos_on_fall () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let pmos_edge =
    Array.to_list scenario.Scenario.stage.Stage.edges
    |> List.find (fun (e : Stage.edge) -> e.device.Device.kind = Device.Pmos)
  in
  Alcotest.(check bool) "pmos off when inputs settle high" false
    (Scenario.conducting scenario pmos_edge);
  let nmos_edge =
    Array.to_list scenario.Scenario.stage.Stage.edges
    |> List.find (fun (e : Stage.edge) -> e.device.Device.kind = Device.Nmos)
  in
  Alcotest.(check bool) "nmos on" true (Scenario.conducting scenario nmos_edge)

(* ---------- scenarios ---------- *)

let test_precharge_fixed_point () =
  let vp = Scenario.precharge_voltage tech in
  check_close ~eps:1e-9 "v = vdd - vth(v)"
    (tech.Tech.vdd -. Mosfet.threshold tech Mosfet.N ~vsb:vp)
    vp;
  let vpp = Scenario.predischarge_voltage tech in
  check_close ~eps:1e-9 "v = vthp(vdd - v)"
    (Mosfet.threshold tech Mosfet.P ~vsb:(tech.Tech.vdd -. vpp))
    vpp

let test_scenario_sources_complete () =
  List.iter
    (fun scenario ->
      List.iter
        (fun input ->
          match Scenario.source scenario input with
          | (_ : Tqwm_wave.Source.t) -> ()
          | exception Not_found ->
            Alcotest.failf "%s: input %s has no source" scenario.Scenario.name input)
        (Stage.inputs scenario.Scenario.stage))
    [
      Scenario.inverter_falling tech;
      Scenario.nand_falling ~n:3 tech;
      Scenario.nor_rising ~n:2 tech;
      Scenario.stack_falling ~widths:(Array.make 5 1e-6) tech;
      Scenario.manchester ~bits:4 tech;
      Scenario.decoder ~levels:2 tech;
    ]

let test_scenario_initial_rails () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let stage = scenario.Scenario.stage in
  check_close "vdd pinned" tech.Tech.vdd scenario.Scenario.initial.(stage.Stage.supply);
  check_close "gnd pinned" 0.0 scenario.Scenario.initial.(stage.Stage.ground);
  Alcotest.(check int) "initial per node" stage.Stage.num_nodes
    (Array.length scenario.Scenario.initial)

let test_with_ramp_input () =
  let scenario = Scenario.nand_falling ~n:2 tech in
  let ramped = Scenario.with_ramp_input ~rise_time:50e-12 scenario in
  let src = Scenario.source ramped "a1" in
  Alcotest.(check bool) "no longer a step" false (Tqwm_wave.Source.is_step src);
  check_close "half-way value" (tech.Tech.vdd /. 2.0)
    (Tqwm_wave.Source.value src 25e-12);
  (* the held-high inputs stay constant *)
  let held = Scenario.source ramped "a2" in
  check_close "held input" tech.Tech.vdd (Tqwm_wave.Source.value held 0.0)

(* ---------- builders: structures ---------- *)

let test_manchester_structure () =
  let stage = Builders.manchester ~bits:5 tech in
  (* 1 pull-down + 5 pass + 6 precharge PMOS *)
  Alcotest.(check int) "edges" 12 (Array.length stage.Stage.edges);
  let pmos_count =
    Array.to_list stage.Stage.edges
    |> List.filter (fun (e : Stage.edge) -> e.device.Device.kind = Device.Pmos)
    |> List.length
  in
  Alcotest.(check int) "precharge devices" 6 pmos_count

let test_decoder_structure () =
  let segments = 4 and levels = 3 in
  let stage = Builders.decoder_path ~levels ~wire_segments:segments tech in
  let wires =
    Array.to_list stage.Stage.edges
    |> List.filter (fun (e : Stage.edge) -> e.device.Device.kind = Device.Wire)
  in
  Alcotest.(check int) "wire segments" (segments * levels) (List.length wires);
  (* wire lengths double per level *)
  let lengths = List.map (fun (e : Stage.edge) -> e.device.Device.l) wires in
  let lmin = List.fold_left Float.min infinity lengths in
  let lmax = List.fold_left Float.max 0.0 lengths in
  check_close ~eps:1e-9 "exponential growth" (2.0 ** float_of_int (levels - 1))
    (lmax /. lmin)

let test_nor_structure () =
  let stage = Builders.nor ~n:3 tech in
  Alcotest.(check int) "edges" 6 (Array.length stage.Stage.edges);
  (* series PMOS: supply side chain *)
  let from_supply = Stage.incident stage stage.Stage.supply in
  Alcotest.(check int) "single pmos at supply" 1 (List.length from_supply)

let test_aoi_oai_structure () =
  let aoi = Builders.aoi21 tech in
  Alcotest.(check int) "aoi edges" 6 (Array.length aoi.Stage.edges);
  Alcotest.(check (list string)) "aoi inputs" [ "b"; "a"; "c" ] (Stage.inputs aoi);
  let oai = Builders.oai21 tech in
  Alcotest.(check int) "oai edges" 6 (Array.length oai.Stage.edges);
  (* worst-case falling path of the AOI goes through the series pair, not
     the (off) parallel branch *)
  let scenario = Scenario.aoi21_falling tech in
  let lowering = Scenario.lower ~model:golden scenario in
  Alcotest.(check int) "aoi falling path length" 2
    (Chain.length lowering.Path.chain);
  let names =
    Array.to_list lowering.Path.stage_nodes |> List.map (Stage.node_name scenario.Scenario.stage)
  in
  Alcotest.(check (list string)) "path through x" [ "x"; "out" ] names

let test_side_branch_capacitance_folded () =
  (* the conducting c-PMOS slaves node y onto the AOI output: the chain's
     output cap must exceed the bare node capacitance *)
  let scenario = Scenario.aoi21_falling tech in
  let lowering = Scenario.lower ~model:golden scenario in
  let chain_cap = lowering.Path.chain.Chain.caps.(1) in
  let bare =
    Stage.node_capacitance golden scenario.Scenario.stage scenario.Scenario.output
      ~v:scenario.Scenario.initial.(scenario.Scenario.output)
  in
  Alcotest.(check bool) "side branch adds capacitance" true (chain_cap > bare +. 1e-16)

let test_builder_validation () =
  Alcotest.check_raises "nand n<1" (Invalid_argument "Builders.nand: n < 1") (fun () ->
      ignore (Builders.nand ~n:0 tech));
  Alcotest.check_raises "stack empty"
    (Invalid_argument "Builders.nmos_stack: empty widths") (fun () ->
      ignore (Builders.nmos_stack ~widths:[||] tech))

(* ---------- random circuits and catalog ---------- *)

let test_random_deterministic () =
  let w1 = Random_circuits.widths tech ~len:7 ~seed:42 in
  let w2 = Random_circuits.widths tech ~len:7 ~seed:42 in
  Alcotest.(check bool) "same seed, same widths" true (w1 = w2);
  let w3 = Random_circuits.widths tech ~len:7 ~seed:43 in
  Alcotest.(check bool) "different seed differs" true (w1 <> w3);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "bounded" true (w >= tech.Tech.w_min && w <= 6.0 *. tech.Tech.w_min))
    w1

let test_table2_suite_population () =
  let suite = Random_circuits.table2_suite tech in
  Alcotest.(check int) "6 lengths x 3 configs" 18 (List.length suite)

let test_catalog () =
  List.iter
    (fun name ->
      match Catalog.scenario tech name with
      | (_ : Scenario.t) -> ()
      | exception Not_found -> Alcotest.failf "catalog rejected %s" name)
    [ "inv"; "nand2"; "nand4"; "nor3"; "stack7"; "manchester5"; "decoder3"; "ckt6_2" ];
  (match Catalog.scenario tech "bogus" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  let s = Catalog.scenario tech "ckt6_2" in
  Alcotest.(check string) "random stack name" "ckt6_2" s.Scenario.name

(* ---------- netlist and CCC ---------- *)

let two_inverter_netlist () =
  let b = Netlist.create () in
  let a = Netlist.add_node b "a" in
  let x = Netlist.add_node b "x" in
  let y = Netlist.add_node b "y" in
  let wn = tech.Tech.w_min and wp = 2.0 *. tech.Tech.w_min in
  Netlist.add_transistor b (Device.nmos ~w:wn tech) ~gate:a ~src:x ~snk:(Netlist.ground b);
  Netlist.add_transistor b (Device.pmos ~w:wp tech) ~gate:a ~src:(Netlist.supply b) ~snk:x;
  Netlist.add_transistor b (Device.nmos ~w:wn tech) ~gate:x ~src:y ~snk:(Netlist.ground b);
  Netlist.add_transistor b (Device.pmos ~w:wp tech) ~gate:x ~src:(Netlist.supply b) ~snk:y;
  Netlist.mark_primary_input b a;
  Netlist.mark_primary_output b y;
  (Netlist.finish b, a, x, y)

let test_ccc_two_components () =
  let net, _, x, y = two_inverter_netlist () in
  let ex = Ccc.extract net in
  Alcotest.(check int) "two components" 2 (Array.length ex.Ccc.instances);
  (* x and y live in different components *)
  (match (ex.Ccc.component_of x, ex.Ccc.component_of y) with
  | Some cx, Some cy -> Alcotest.(check bool) "distinct" true (cx <> cy)
  | _ -> Alcotest.fail "components expected");
  Alcotest.(check (option int)) "rails have no component" None
    (ex.Ccc.component_of net.Netlist.supply)

let test_ccc_inputs_and_outputs () =
  let net, _, x, _ = two_inverter_netlist () in
  let ex = Ccc.extract net in
  let cx = Option.get (ex.Ccc.component_of x) in
  let first = ex.Ccc.instances.(cx) in
  Alcotest.(check (list string)) "first stage driven by a" [ "a" ]
    (List.map fst first.Ccc.input_nets);
  (* x drives the second stage's gates: it must be an output of stage 1 *)
  let sx = Option.get (first.Ccc.stage_node_of x) in
  Alcotest.(check bool) "x marked output" true
    (List.mem sx first.Ccc.stage.Stage.outputs)

let test_ccc_gate_load () =
  let net, _, x, _ = two_inverter_netlist () in
  let gate_load (d : Device.t) = Capacitance.gate tech ~w:d.Device.w ~l:d.Device.l in
  let ex = Ccc.extract ~gate_load net in
  let cx = Option.get (ex.Ccc.component_of x) in
  let inst = ex.Ccc.instances.(cx) in
  let sx = Option.get (inst.Ccc.stage_node_of x) in
  let expected =
    gate_load (Device.nmos ~w:tech.Tech.w_min tech)
    +. gate_load (Device.pmos ~w:(2.0 *. tech.Tech.w_min) tech)
  in
  check_close "fanout gate caps loaded onto x" expected
    inst.Ccc.stage.Stage.loads.(sx)

let test_ccc_rail_to_rail_rejected () =
  let b = Netlist.create () in
  let g = Netlist.add_node b "g" in
  Netlist.add_transistor b (Device.nmos ~w:1e-6 tech) ~gate:g ~src:(Netlist.supply b)
    ~snk:(Netlist.ground b);
  let net = Netlist.finish b in
  Alcotest.check_raises "rail-to-rail"
    (Invalid_argument "Ccc.extract: element with both terminals on rails") (fun () ->
      ignore (Ccc.extract net))

(* ---------- netlist parser ---------- *)

let inverter_chain_deck = {|
* two-inverter chain
M1 x a gnd nmos W=0.8u
M2 vdd a x pmos W=1.6u
M3 y x gnd nmos
M4 vdd x y pmos L=0.7u
Cy y 12f
Wstub y z W=0.6u L=40u
.input a
.output y
.end
|}

let test_parser_roundtrip () =
  let net = Netlist_parser.parse_string tech inverter_chain_deck in
  (* vdd gnd a x y z *)
  Alcotest.(check int) "nodes" 6 net.Netlist.num_nodes;
  Alcotest.(check int) "elements" 5 (Array.length net.Netlist.elements);
  let y = Netlist.find_node net "y" in
  check_close "load parsed" 12e-15 net.Netlist.loads.(y);
  Alcotest.(check (list int)) "primary outputs" [ y ] net.Netlist.primary_outputs;
  (* geometry parsing: explicit, default, L override *)
  let m1 = net.Netlist.elements.(0) and m3 = net.Netlist.elements.(2) in
  check_close "explicit width" 0.8e-6 m1.Netlist.device.Device.w;
  check_close "default nmos width" tech.Tech.w_min m3.Netlist.device.Device.w;
  let m4 = net.Netlist.elements.(3) in
  check_close "length override" 0.7e-6 m4.Netlist.device.Device.l;
  (* terminal orientation: nmos src = drain; pmos src = source (vdd) *)
  Alcotest.(check int) "nmos supply-side is drain" (Netlist.find_node net "x")
    m1.Netlist.src;
  let m2 = net.Netlist.elements.(1) in
  Alcotest.(check int) "pmos supply-side is source" net.Netlist.supply m2.Netlist.src

let test_parser_with_ccc () =
  let net = Netlist_parser.parse_string tech inverter_chain_deck in
  let ex = Ccc.extract net in
  (* inverter 1, inverter 2 + wire stub: z is channel-connected to y *)
  Alcotest.(check int) "two stages" 2 (Array.length ex.Ccc.instances);
  let y = Netlist.find_node net "y" and z = Netlist.find_node net "z" in
  Alcotest.(check bool) "wire keeps y and z in one stage" true
    (ex.Ccc.component_of y = ex.Ccc.component_of z)

let test_parser_si_suffixes () =
  let deck = "Cbig n1 1.5p\nCsmall n2 800f\nWseg n1 n2 W=600n L=0.1m\n" in
  let net = Netlist_parser.parse_string tech deck in
  let n1 = Netlist.find_node net "n1" and n2 = Netlist.find_node net "n2" in
  check_close "picofarad" 1.5e-12 net.Netlist.loads.(n1);
  check_close "femtofarad" 800e-15 net.Netlist.loads.(n2);
  let w = net.Netlist.elements.(0) in
  check_close "nanometre width" 600e-9 w.Netlist.device.Device.w;
  check_close "milli length" 1e-4 w.Netlist.device.Device.l

let expect_parse_error deck expected_line =
  match Netlist_parser.parse_string tech deck with
  | exception Netlist_parser.Parse_error { line; _ } ->
    Alcotest.(check int) "error line" expected_line line
  | _ -> Alcotest.fail "expected Parse_error"

let test_parser_errors () =
  expect_parse_error "M1 a b nmos\n" 1;  (* missing terminal *)
  expect_parse_error "Q1 a b c\n" 1;  (* unknown card *)
  expect_parse_error "M1 d g s nmos W=2x\n" 1;  (* bad suffix *)
  expect_parse_error "* fine\nWseg a b W=1u\n" 2;  (* wire without length *)
  expect_parse_error ".input\n" 1

let expect_parse_error_matching deck expected_line fragment =
  match Netlist_parser.parse_string tech deck with
  | exception Netlist_parser.Parse_error { line; message } ->
    Alcotest.(check int) "error line" expected_line line;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    if not (contains message fragment) then
      Alcotest.failf "error %S does not mention %S" message fragment
  | _ -> Alcotest.fail "expected Parse_error"

let test_parser_malformed_line () =
  (* a parameter token without '=' is rejected, not silently dropped *)
  expect_parse_error_matching "M1 d g s nmos W\n" 1 "key=value";
  expect_parse_error_matching "Cload out\n" 1 "capacitor card";
  expect_parse_error_matching ".option foo\n" 1 "unknown directive"

let test_parser_unknown_device () =
  expect_parse_error_matching "M1 d g s bjt W=1u\n" 1 "unknown transistor type";
  expect_parse_error_matching "X1 a b sub\n" 1 "unknown card"

let test_parser_dangling_node () =
  (* port 'a' is declared but no element touches it; reported at the
     .input directive's line even though parsing runs to completion *)
  expect_parse_error_matching "M1 x b gnd nmos\n.input a\n.output x\n.end\n" 2
    "dangling port node \"a\"";
  expect_parse_error_matching "M1 x b gnd nmos\n.input b\n.output y\n.end\n" 3
    "dangling port node \"y\"";
  (* gate-only and terminal-only connections both count as touched *)
  let net =
    Netlist_parser.parse_string tech "M1 x b gnd nmos\n.input b\n.output x\n.end\n"
  in
  Alcotest.(check int) "clean deck still parses" 1 (Array.length net.Netlist.elements)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "tqwm_circuit"
    [
      ( "stage",
        [
          quick "builder basics" test_stage_builder_basics;
          quick "builder errors" test_stage_builder_errors;
          quick "node capacitance" test_node_capacitance_sums;
        ] );
      ( "chain",
        [ quick "validation" test_chain_validation; quick "positions" test_chain_positions ] );
      ( "path",
        [
          quick "nand lowering" test_path_nand_lowering;
          quick "requires conducting" test_path_requires_conducting;
          quick "conducting predicate" test_conducting_excludes_pmos_on_fall;
        ] );
      ( "scenario",
        [
          quick "precharge fixed points" test_precharge_fixed_point;
          quick "sources complete" test_scenario_sources_complete;
          quick "initial rails" test_scenario_initial_rails;
          quick "ramp input" test_with_ramp_input;
        ] );
      ( "builders",
        [
          quick "manchester" test_manchester_structure;
          quick "decoder" test_decoder_structure;
          quick "nor" test_nor_structure;
          quick "aoi/oai" test_aoi_oai_structure;
          quick "side-branch capacitance" test_side_branch_capacitance_folded;
          quick "validation" test_builder_validation;
        ] );
      ( "random+catalog",
        [
          quick "deterministic" test_random_deterministic;
          quick "table2 population" test_table2_suite_population;
          quick "catalog" test_catalog;
        ] );
      ( "ccc",
        [
          quick "two components" test_ccc_two_components;
          quick "inputs/outputs" test_ccc_inputs_and_outputs;
          quick "gate load" test_ccc_gate_load;
          quick "rail-to-rail" test_ccc_rail_to_rail_rejected;
        ] );
      ( "parser",
        [
          quick "roundtrip" test_parser_roundtrip;
          quick "with ccc" test_parser_with_ccc;
          quick "si suffixes" test_parser_si_suffixes;
          quick "errors" test_parser_errors;
          quick "malformed line" test_parser_malformed_line;
          quick "unknown device" test_parser_unknown_device;
          quick "dangling node" test_parser_dangling_node;
        ] );
    ]
