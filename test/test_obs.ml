(* Tests for the observability library (Tqwm_obs) and its wiring into
   the engines: exact histogram bucketing, JSON round-trips, trace
   document shape, the Newton [stalled] flag, and — the load-bearing
   property — solver counters identical between a sequential and a
   4-domain parallel STA run of the same workload. *)

open Tqwm_device
module Alloc = Tqwm_obs.Alloc
module Json = Tqwm_obs.Json
module Log = Tqwm_obs.Log
module Metrics = Tqwm_obs.Metrics
module Prometheus = Tqwm_obs.Prometheus
module Trace = Tqwm_obs.Trace
module Newton = Tqwm_num.Newton
module Vec = Tqwm_num.Vec
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Path_enum = Tqwm_sta.Path_enum
module Report = Tqwm_sta.Report
module Stage_cache = Tqwm_sta.Stage_cache
module Timing_graph = Tqwm_sta.Timing_graph
module Workloads = Tqwm_sta.Workloads
module Server = Tqwm_server.Server
module Server_client = Tqwm_server.Client
module Server_protocol = Tqwm_server.Protocol

let tech = Tech.cmosp35

let table = lazy (Models.table tech)

(* ---------- JSON ---------- *)

(* Malformed inputs and the exact [Parse_error] text each must raise. *)
let rejection_table =
  [
    ("trailing garbage rejected", "at offset 2: trailing garbage", "{}x");
    ("unterminated string", "at offset 4: unterminated string", "\"abc");
    ("unterminated object", "at offset 6: expected , or } in object", "{\"a\":1");
    (* RFC 8259 strictness *)
    ("separator in \\u escape", "at offset 3: bad \\u escape", "\"\\u1_2f\"");
    ("leading zero", "at offset 2: bad number \"01\"", "01");
    ("trailing dot", "at offset 2: bad number \"1.\"", "1.");
    ("overflowing exponent", "at offset 5: bad number \"1e999\"", "1e999");
  ]

(* What parsing gives: the value printed back, or the error text. *)
let parse_outcome parse =
  match parse () with
  | v -> Ok (Json.to_string v)
  | exception Json.Parse_error msg -> Error msg

(* [text] inside bytes that would change the outcome if the parser read
   past either end of the slice: the slice starts at a non-zero
   position and is followed by a digit, a closing bracket and more. *)
let in_slice text =
  let b = Bytes.of_string ("[\"" ^ text ^ "7]}\"\n") in
  Json.of_bytes b ~pos:2 ~len:(String.length text)

let same_outcome what text =
  let expected = parse_outcome (fun () -> Json.of_string text) in
  let got = parse_outcome (fun () -> in_slice text) in
  match (expected, got) with
  | Ok e, Ok g -> Alcotest.(check string) (what ^ ": value") e g
  | Error e, Error g -> Alcotest.(check string) (what ^ ": Parse_error text") e g
  | Ok _, Error m -> Alcotest.failf "%s: the slice fails (%s), the text parses" what m
  | Error m, Ok _ -> Alcotest.failf "%s: the slice parses, the text fails (%s)" what m

let test_json_slices () =
  List.iter (fun (name, _, input) -> same_outcome name input) rejection_table;
  List.iter
    (fun input -> same_outcome input input)
    [
      "[0,-0,10,-1.5e+3,2E-2,0.25]"; "\"a\\u00e9\\u002F\\n\\\"b\""; "{\"a\":[1,{\"b\":null}]}";
      "123456789012345678"; "-1234567890123456789"; "12345678901234567890"; "tru"; "nul";
      "\"\\u00"; "[1,2"; ""; "  "; "-"; "1e"; "[]"; "{}";
    ];
  let b = Bytes.of_string "[1]" in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "slice %d+%d outside 3 bytes" pos len)
        (Invalid_argument "Json.of_bytes")
        (fun () -> ignore (Json.of_bytes b ~pos ~len)))
    [ (-1, 2); (0, 4); (2, 2); (1, -1) ]

(* A frame of [0,0,...] as long as a request line may be: past its
   first few thousand elements the list is built with an accumulator,
   so the stack stays shallow, on a worker domain as on the main one. *)
let test_json_flat_array_on_a_domain () =
  let n = (Tqwm_server.Protocol.max_line_bytes - 2) / 2 in
  let text = "[ " ^ String.concat "," (List.init n (fun _ -> "0")) ^ "]" in
  Alcotest.(check int) "frame length" Tqwm_server.Protocol.max_line_bytes (String.length text);
  let length () =
    match Json.of_bytes (Bytes.unsafe_of_string text) ~pos:0 ~len:(String.length text) with
    | Json.List xs -> List.length xs
    | _ -> -1
  in
  Alcotest.(check int) "elements, worker domain" n (Domain.join (Domain.spawn length));
  Alcotest.(check int) "elements, main domain" n (length ())

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("tiny", Json.Float 1.25e-12);
        ("string", Json.String "a\"b\\c\n\t\x01z");
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  Alcotest.(check bool)
    "round-trip" true
    (Json.of_string (Json.to_string doc) = doc);
  (* non-finite floats must degrade to null, keeping the document valid *)
  Alcotest.(check string)
    "nan -> null" "[null,null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]));
  let rejects name msg input =
    Alcotest.check_raises name (Json.Parse_error msg) (fun () -> ignore (Json.of_string input))
  in
  List.iter (fun (name, msg, input) -> rejects name msg input) rejection_table;
  Alcotest.(check bool)
    "valid numbers accepted" true
    (Json.of_string "[0,-0,10,-1.5e+3,2E-2,0.25]"
    = Json.List
        [ Json.Int 0; Json.Int 0; Json.Int 10; Json.Float (-1500.0); Json.Float 0.02;
          Json.Float 0.25 ]);
  Alcotest.(check bool)
    "escapes decoded" true
    (Json.of_string "\"a\\u00e9\\u002F\\n\\\"b\"" = Json.String "a\xc3\xa9/\n\"b")

(* The printer as it was when every float went through [Printf]: [%.12g],
   a [float_of_string] round-trip check, then [%.17g]. [Json.to_string]
   must reproduce it byte for byte. *)
let reference_float_repr x =
  if not (Float.is_finite x) then "null"
  else begin
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  end

let reference_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec reference_to_buffer buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Int i -> Buffer.add_string buf (string_of_int i)
  | Json.Float x -> Buffer.add_string buf (reference_float_repr x)
  | Json.String s -> reference_escape buf s
  | Json.List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        reference_to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Json.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        reference_escape buf k;
        Buffer.add_char buf ':';
        reference_to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let reference_to_string j =
  let buf = Buffer.create 256 in
  reference_to_buffer buf j;
  Buffer.contents buf

let rec step_ulps x k =
  if k > 0 then step_ulps (Float.succ x) (k - 1)
  else if k < 0 then step_ulps (Float.pred x) (k + 1)
  else x

let gen_json_float =
  let open QCheck2.Gen in
  let any_bits = map Int64.float_of_bits int64 in
  let subnormal =
    map2
      (fun neg m ->
        let x = Int64.float_of_bits (Int64.of_int m) in
        if neg then -.x else x)
      bool
      (int_bound ((1 lsl 52) - 1))
  in
  (* a 12-digit decimal, then 0-2 ulps either side of it *)
  let near_decimal =
    map3
      (fun m e k -> step_ulps (float_of_string (Printf.sprintf "%de%d" m e)) k)
      (int_range 100_000_000_000 999_999_999_999)
      (int_range (-330) 290) (int_range (-2) 2)
  in
  (* seconds scaled to picoseconds, the way reports print times *)
  let picoseconds =
    oneof
      [
        map (fun s -> s *. 1e12) (float_range 1e-13 1e-8);
        map (fun n -> float_of_int n *. 1e-12 *. 1e12) (int_range 0 1_000_000);
      ]
  in
  (* the edges of the printer's exact 17-digit path, either sign *)
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  let ulps_from x = map (step_ulps x) (int_range (-3) 3) in
  (* m * 2^-j: some of these sit exactly halfway at the 17th digit *)
  let ties =
    map2 (fun m j -> Float.ldexp (float_of_int m) (-j)) (int_range 1 4095) (int_range 0 80)
  in
  (* 0-3 ulps from 10^k, where the decimal exponent steps *)
  let near_pow10 =
    bind (int_range (-8) 18) (fun k -> ulps_from (float_of_string (Printf.sprintf "1e%d" k)))
  in
  (* integers of 13-17 digits, some ending in zeros: [%g] prints every
     integer digit, so 3729376725510 is [3.72937672551e+12] *)
  let integers =
    bind (int_range 13 17) (fun digits ->
        let pow k = int_of_float (10.0 ** float_of_int k) in
        map2
          (fun m zeros -> float_of_int (m / pow zeros * pow zeros))
          (int_range (pow (digits - 1)) (pow digits - 1))
          (int_range 0 8))
  in
  frequency
    [
      (4, any_bits);
      (2, subnormal);
      (1, oneofl [ 0.0; -0.0; Float.min_float; -.Float.min_float ]);
      (4, near_decimal);
      (3, picoseconds);
      (2, signed ties);
      (2, signed near_pow10);
      (2, signed integers);
      (1, signed (bind (oneofl [ 1e-6; 1e17 ]) ulps_from));
    ]

let prop_float_matches_reference =
  QCheck2.Test.make ~name:"json floats print as the Printf reference" ~count:1_000_000
    ~print:(Printf.sprintf "%h") gen_json_float (fun x ->
      String.equal (Json.to_string (Json.Float x)) (reference_float_repr x))

(* Every printed float parses to the same value in place as alone. *)
let prop_in_place_matches_of_string =
  QCheck2.Test.make ~name:"json in-place parse matches of_string on printed floats"
    ~count:1_000_000 ~print:(Printf.sprintf "%h") gen_json_float (fun x ->
      let text = Json.to_string (Json.Float x) in
      match Json.of_string text with
      | v -> in_slice text = v
      | exception Json.Parse_error msg -> (
        match in_slice text with
        | _ -> false
        | exception Json.Parse_error msg' -> msg = msg'))

let test_scalars_match_reference () =
  List.iter
    (fun j ->
      Alcotest.(check string) "same bytes as the reference" (reference_to_string j)
        (Json.to_string j))
    [
      Json.Int 0; Json.Int 7; Json.Int (-7); Json.Int 10; Json.Int (-10); Json.Int max_int;
      Json.Int min_int; Json.String ""; Json.String "plain"; Json.String "a\"b\\c\n\r\t\x01\x1fz";
      Json.Obj [ ("k\"ey", Json.List [ Json.Null; Json.Bool true; Json.Float 1e13 ]) ];
    ]

let test_report_documents_match_reference () =
  let model = Lazy.force table in
  let document graph =
    let cache = Stage_cache.create () in
    let analysis = Arrival.propagate ~model ~cache graph in
    let clock_period = 0.9 *. analysis.Arrival.worst_arrival in
    let required = Arrival.required graph analysis ~clock_period in
    let paths = Path_enum.k_worst ~clock_period ~k:10 graph analysis in
    let explained = List.map (Path_enum.explain ~model ~cache graph analysis) paths in
    Report.timing_to_json graph analysis required explained
  in
  List.iter
    (fun (name, graph) ->
      let doc = document graph in
      let text = Json.to_string doc in
      Alcotest.(check string) name (reference_to_string doc) text;
      same_outcome (name ^ ", parsed in place") text)
    [
      ("decoder tree", Workloads.decoder_tree ~fanout:4 ~depth:4 tech);
      ("random stacks", Workloads.random_stacks ~width:4 ~depth:3 ~seed:7 tech);
    ]

(* ---------- metrics ---------- *)

let test_counter_registry () =
  let a = Metrics.counter "test_obs.counter" in
  let b = Metrics.counter "test_obs.counter" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "same cell" 3 (Metrics.value a);
  Alcotest.(check (option int))
    "visible by name" (Some 3)
    (Metrics.find_counter "test_obs.counter");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.histogram: test_obs.counter is a counter")
    (fun () -> ignore (Metrics.histogram "test_obs.counter" ~bounds:[| 1.0 |]))

let test_histogram_boundaries () =
  (* bucket i counts bounds.(i-1) < v <= bounds.(i); overflow last *)
  let h = Metrics.histogram "test_obs.hist" ~bounds:[| 1.0; 2.0; 5.0 |] in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 2.5; 5.0; 6.0 ];
  Alcotest.(check (array int))
    "boundary values land in the lower bucket" [| 2; 2; 2; 1 |]
    (Metrics.histogram_counts h);
  Alcotest.(check int) "total" 7 (Metrics.histogram_total h);
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Metrics.histogram: bounds not strictly increasing")
    (fun () -> ignore (Metrics.histogram "test_obs.bad" ~bounds:[| 1.0; 1.0 |]))

let test_metrics_snapshot_parses () =
  let c = Metrics.counter "test_obs.snap" in
  Metrics.incr c;
  let doc = Json.of_string (Json.to_string (Metrics.snapshot ())) in
  let counters = Option.get (Json.member "counters" doc) in
  Alcotest.(check bool)
    "snapshot JSON round-trips with the counter present" true
    (Json.member "test_obs.snap" counters = Some (Json.Int (Metrics.value c)));
  match Json.member "histograms" doc with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "snapshot has no histograms object"

let test_reset_keeps_handles () =
  (* the Metrics.reset contract: handles handed out before reset stay
     registered and interchangeable with post-reset re-registrations, and
     updates through either round-trip into the next snapshot *)
  let before = Metrics.counter "test_obs.reset" in
  let h_before = Metrics.histogram "test_obs.reset_hist" ~bounds:[| 1.0; 2.0 |] in
  Metrics.add before 5;
  Metrics.observe h_before 1.5;
  Metrics.reset ();
  Alcotest.(check int) "old handle sees the zeroed cell" 0 (Metrics.value before);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_total h_before);
  let after = Metrics.counter "test_obs.reset" in
  let h_after = Metrics.histogram "test_obs.reset_hist" ~bounds:[| 1.0; 2.0 |] in
  Metrics.incr after;
  Metrics.incr before;
  Metrics.observe h_after 0.5;
  Metrics.observe h_before 3.0;
  Alcotest.(check int) "old and new handles share one cell" 2 (Metrics.value after);
  Alcotest.(check (array int))
    "histogram updates via both handles" [| 1; 0; 1 |]
    (Metrics.histogram_counts h_after);
  let doc = Json.of_string (Json.to_string (Metrics.snapshot ())) in
  let counters = Option.get (Json.member "counters" doc) in
  Alcotest.(check bool)
    "post-reset increments round-trip through snapshot" true
    (Json.member "test_obs.reset" counters = Some (Json.Int 2))

let test_gauge_registry () =
  let g = Metrics.gauge "test_obs.gauge" in
  let g' = Metrics.gauge "test_obs.gauge" in
  Metrics.set g 1.5;
  Alcotest.(check (float 1e-12)) "same cell" 1.5 (Metrics.gauge_value g');
  Metrics.set g' (-2.25);
  Alcotest.(check (option (float 1e-12)))
    "last write wins, visible by name" (Some (-2.25))
    (Metrics.find_gauge "test_obs.gauge");
  Alcotest.check_raises "kind clash with a counter"
    (Invalid_argument "Metrics.counter: test_obs.gauge is a gauge")
    (fun () -> ignore (Metrics.counter "test_obs.gauge"));
  Alcotest.check_raises "gauge over an existing counter"
    (Invalid_argument "Metrics.gauge: test_obs.counter is a counter")
    (fun () ->
      ignore (Metrics.counter "test_obs.counter");
      ignore (Metrics.gauge "test_obs.counter"))

let test_gauge_snapshot_and_reset () =
  (* the reset contract extends to gauges: old handles stay registered,
     zeroed, and interchangeable with post-reset re-registrations *)
  let before = Metrics.gauge "test_obs.reset_gauge" in
  Metrics.set before 7.5;
  let doc = Json.of_string (Json.to_string (Metrics.snapshot ())) in
  let gauges = Option.get (Json.member "gauges" doc) in
  Alcotest.(check bool) "snapshot carries the gauge" true
    (Json.member "test_obs.reset_gauge" gauges = Some (Json.Float 7.5));
  Metrics.reset ();
  Alcotest.(check (float 1e-12)) "old handle sees the zeroed cell" 0.0
    (Metrics.gauge_value before);
  let after = Metrics.gauge "test_obs.reset_gauge" in
  Metrics.set after 3.0;
  Alcotest.(check (float 1e-12)) "old and new handles share one cell" 3.0
    (Metrics.gauge_value before);
  Metrics.set before 4.5;
  let doc = Json.of_string (Json.to_string (Metrics.snapshot ())) in
  let gauges = Option.get (Json.member "gauges" doc) in
  Alcotest.(check bool) "post-reset sets round-trip through snapshot" true
    (Json.member "test_obs.reset_gauge" gauges = Some (Json.Float 4.5))

(* ---------- trace sink ---------- *)

let test_trace_document () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.with_span ~name:"outer" ~cat:"test" (fun () ->
          Trace.instant ~name:"tick" ~cat:"test"
            ~args:[ ("k", Json.Int 7) ] ());
      let doc = Json.of_string (Json.to_string (Trace.to_json ())) in
      let events =
        Option.get (Json.to_list_opt (Option.get (Json.member "traceEvents" doc)))
      in
      Alcotest.(check int) "two events" 2 (List.length events);
      let phases =
        List.filter_map (fun e -> Json.member "ph" e) events |> List.sort compare
      in
      Alcotest.(check bool)
        "one complete span and one instant" true
        (phases = [ Json.String "X"; Json.String "i" ]);
      List.iter
        (fun e ->
          List.iter
            (fun field ->
              if Json.member field e = None then
                Alcotest.failf "event lacks %S" field)
            [ "name"; "cat"; "ts"; "pid"; "tid" ])
        events)

let test_trace_disabled_is_silent () =
  Trace.disable ();
  Trace.instant ~name:"dropped" ~cat:"test" ();
  let r = Trace.with_span ~name:"dropped" ~cat:"test" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check bool)
    "no buffered events" true
    (Json.member "traceEvents" (Trace.to_json ()) = Some (Json.List []))

let trace_events () =
  match Json.member "traceEvents" (Trace.to_json ()) with
  | Some (Json.List events) -> events
  | _ -> Alcotest.fail "trace document lacks traceEvents"

let test_trace_concurrent_emission () =
  (* the domain-safety contract: four domains hammering the sink
     concurrently lose nothing and tear nothing — every event comes back
     whole, exactly once, in timestamp order *)
  let domains = 4 and per_domain = 2000 in
  (* the cap splits evenly across the 64 internal shards while only
     [domains] shards are active here, so size it per shard *)
  Trace.enable ~cap:(64 * 2 * per_domain) ();
  Fun.protect ~finally:Trace.disable (fun () ->
      let emit d =
        for i = 1 to per_domain do
          Trace.instant ~name:"stress" ~cat:"test"
            ~args:[ ("d", Json.Int d); ("i", Json.Int i) ]
            ()
        done
      in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (fun () -> emit (d + 1)))
      in
      emit 0;
      List.iter Domain.join spawned;
      let events = trace_events () in
      Alcotest.(check int)
        "no event lost" (domains * per_domain)
        (List.length events);
      (* each (d, i) pair exactly once, and always whole: a torn event
         would surface as a missing or mismatched arg *)
      let seen = Hashtbl.create (domains * per_domain) in
      List.iter
        (fun e ->
          let args = Option.get (Json.member "args" e) in
          match (Json.member "d" args, Json.member "i" args) with
          | Some (Json.Int d), Some (Json.Int i) ->
            if Hashtbl.mem seen (d, i) then
              Alcotest.failf "event (%d,%d) duplicated" d i;
            Hashtbl.add seen (d, i) ()
          | _ -> Alcotest.fail "torn event: args incomplete")
        events;
      Alcotest.(check int)
        "every (domain, seq) pair present" (domains * per_domain)
        (Hashtbl.length seen);
      let ts e =
        match Json.member "ts" e with
        | Some (Json.Float t) -> t
        | Some (Json.Int t) -> float_of_int t
        | _ -> Alcotest.fail "event lacks ts"
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> ts a <= ts b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "merged shards are time-sorted" true
        (sorted events))

let test_trace_cap_drops_and_counts () =
  (* a capped sink drops excess events instead of growing without bound,
     and owns up to it through the metrics registry *)
  Metrics.reset ();
  Trace.enable ~cap:64 ();
  Fun.protect ~finally:Trace.disable (fun () ->
      for i = 1 to 500 do
        Trace.instant ~name:"flood" ~cat:"test" ~args:[ ("i", Json.Int i) ] ()
      done;
      let kept = List.length (trace_events ()) in
      let dropped =
        Option.value (Metrics.find_counter "trace.dropped_events") ~default:0
      in
      Alcotest.(check bool)
        (Printf.sprintf "kept %d <= cap" kept)
        true (kept <= 64);
      Alcotest.(check int) "kept + dropped = emitted" 500 (kept + dropped))

let test_trace_context_scoping () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Alcotest.(check bool) "ambient context starts empty" true
        (Trace.current_context () = []);
      let rid = ("request", Json.String "s1.r1") in
      let sid = ("session", Json.String "s1") in
      Trace.with_context [ sid ] (fun () ->
          Trace.with_context [ rid ] (fun () ->
              Alcotest.(check bool) "scopes nest, outermost first" true
                (Trace.current_context () = [ sid; rid ]);
              Trace.instant ~name:"tagged" ~cat:"test"
                ~args:[ ("own", Json.Int 1) ]
                ()));
      Alcotest.(check bool) "context restored" true
        (Trace.current_context () = []);
      (try
         Trace.with_context [ rid ] (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "restored after a raise" true
        (Trace.current_context () = []);
      Trace.instant ~name:"untagged" ~cat:"test" ();
      let find name =
        List.find
          (fun e -> Json.member "name" e = Some (Json.String name))
          (trace_events ())
      in
      let args = Option.get (Json.member "args" (find "tagged")) in
      Alcotest.(check bool) "event carries its own arg" true
        (Json.member "own" args = Some (Json.Int 1));
      Alcotest.(check bool) "event carries the session context" true
        (Json.member "session" args = Some (Json.String "s1"));
      Alcotest.(check bool) "event carries the request context" true
        (Json.member "request" args = Some (Json.String "s1.r1"));
      Alcotest.(check bool) "later event is untagged" true
        (Json.member "args" (find "untagged") = None))

let test_trace_context_crosses_domains () =
  (* the Server/Parallel idiom: capture before spawn, reinstall inside *)
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.with_context
        [ ("request", Json.String "s9.r9") ]
        (fun () ->
          let ctx = Trace.current_context () in
          Domain.join
            (Domain.spawn (fun () ->
                 Alcotest.(check bool) "child domain starts clean" true
                   (Trace.current_context () = []);
                 Trace.with_context ctx (fun () ->
                     Trace.instant ~name:"child" ~cat:"test" ()))));
      match trace_events () with
      | [ e ] ->
        let args = Option.get (Json.member "args" e) in
        Alcotest.(check bool) "child event carries the request id" true
          (Json.member "request" args = Some (Json.String "s9.r9"))
      | events -> Alcotest.failf "expected 1 event, got %d" (List.length events))

(* ---------- Prometheus exposition ---------- *)

let test_prometheus_sanitize () =
  Alcotest.(check string) "dots to underscores" "server_latency_ms_load"
    (Prometheus.sanitize "server.latency_ms.load");
  Alcotest.(check string) "legal chars kept" "a_b:c_9"
    (Prometheus.sanitize "a_b:c_9");
  Alcotest.(check string) "leading digit illegal" "_lives"
    (Prometheus.sanitize "9lives")

let render_lines () =
  String.split_on_char '\n' (Prometheus.render ())

let assert_line expected =
  if not (List.mem expected (render_lines ())) then
    Alcotest.failf "render lacks the line %S" expected

let test_prometheus_render_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram "test_prom.h" ~bounds:[| 1.0; 2.0; 5.0 |] in
  (* on-bound observations count into their own bucket (le is <=), and
     the overflow observation appears only in +Inf *)
  List.iter (Metrics.observe h) [ 1.0; 1.0; 2.0; 3.0; 99.0 ];
  assert_line "# TYPE test_prom_h histogram";
  assert_line "test_prom_h_bucket{le=\"1\"} 2";
  assert_line "test_prom_h_bucket{le=\"2\"} 3";
  assert_line "test_prom_h_bucket{le=\"5\"} 4";
  assert_line "test_prom_h_bucket{le=\"+Inf\"} 5";
  assert_line "test_prom_h_sum 106";
  assert_line "test_prom_h_count 5"

let test_prometheus_render_empty_histogram () =
  Metrics.reset ();
  let (_ : Metrics.histogram) =
    Metrics.histogram "test_prom.empty" ~bounds:[| 0.5 |]
  in
  assert_line "test_prom_empty_bucket{le=\"0.5\"} 0";
  assert_line "test_prom_empty_bucket{le=\"+Inf\"} 0";
  assert_line "test_prom_empty_sum 0";
  assert_line "test_prom_empty_count 0"

let test_prometheus_render_scalars () =
  Metrics.reset ();
  let c = Metrics.counter "test_prom.hits" in
  Metrics.add c 41;
  let g = Metrics.gauge "test_prom.temp" in
  Metrics.set g 1.25;
  assert_line "# TYPE test_prom_hits counter";
  assert_line "test_prom_hits 41";
  assert_line "# TYPE test_prom_temp gauge";
  assert_line "test_prom_temp 1.25"

(* A live daemon ([qwm_sim --serve --prom]) that has served a request,
   scraped over a raw socket: the payload carries this test's counter,
   the daemon's request counter, its start time, the served verb's
   latency observation and the latency histograms' [+Inf] buckets. *)
let test_prometheus_scrape_http () =
  Metrics.reset ();
  let c = Metrics.counter "test_prom.scraped" in
  Metrics.incr c;
  let sock = Filename.temp_file "tqwm-test-prom" ".sock" in
  Sys.remove sock;
  let before = Unix.gettimeofday () in
  let daemon = Server.start ~tech:Tech.cmosp35 (Server_protocol.Unix_sock sock) in
  let after = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> Server.stop daemon) @@ fun () ->
  let client = Server_client.connect (Server.address daemon) in
  Fun.protect ~finally:(fun () -> Server_client.close client) (fun () ->
      ignore (Server_client.health client));
  let server =
    Prometheus.serve (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  Fun.protect
    ~finally:(fun () -> Prometheus.stop server)
    (fun () ->
      let fetch path =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Prometheus.bound server);
            let req =
              Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path
            in
            ignore (Unix.write_substring fd req 0 (String.length req));
            let buf = Buffer.create 4096 in
            let chunk = Bytes.create 4096 in
            let rec drain () =
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n > 0 then begin
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
              end
            in
            drain ();
            Buffer.contents buf)
      in
      let body = fetch "/metrics" in
      Alcotest.(check bool) "200 on /metrics" true
        (String.starts_with ~prefix:"HTTP/1.1 200 OK" body);
      let contains needle haystack =
        let nl = String.length needle and hl = String.length haystack in
        let rec go i = i + nl <= hl
          && (String.sub haystack i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "payload carries the counter" true
        (contains "test_prom_scraped 1" body);
      let sample name =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ n; v ] when n = name -> float_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' body)
      in
      let at_least_one name =
        match sample name with
        | Some n when n >= 1.0 -> ()
        | Some n -> Alcotest.failf "%s reads %g after a served request" name n
        | None -> Alcotest.failf "the scrape lacks %s" name
      in
      at_least_one "server_requests";
      (* each served verb's latency is observed *)
      at_least_one "server_latency_ms_health_count";
      (* the gauge holds the start time, and the exposition reads back
         as that very float, fraction of a second included *)
      let start = Metrics.find_gauge "server.start_time_seconds" in
      (match (sample "server_start_time_seconds", start) with
      | Some v, Some s when v = s && s >= before && s <= after -> ()
      | Some v, Some s ->
        Alcotest.failf
          "server_start_time_seconds scraped %.17g, gauge %.17g, start in [%.17g, %.17g]"
          v s before after
      | None, _ -> Alcotest.fail "the scrape lacks server_start_time_seconds"
      | Some _, None -> Alcotest.fail "server.start_time_seconds is not registered");
      Alcotest.(check bool) "payload carries +Inf histogram buckets" true
        (contains "le=\"+Inf\"" body);
      Alcotest.(check bool) "404 elsewhere" true
        (String.starts_with ~prefix:"HTTP/1.1 404" (fetch "/nope")))

(* ---------- structured JSONL log ---------- *)

let test_log_concurrent_lines_whole () =
  let path = Filename.temp_file "tqwm-log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let log = Log.open_file path in
      Alcotest.(check string) "path" path (Log.path log);
      let domains = 4 and per_domain = 250 in
      let write d =
        for i = 1 to per_domain do
          Log.write log
            [
              ("d", Json.Int d);
              ("i", Json.Int i);
              ("pad", Json.String (String.make 64 'x'));
            ]
        done
      in
      let spawned =
        List.init (domains - 1) (fun d ->
            Domain.spawn (fun () -> write (d + 1)))
      in
      write 0;
      List.iter Domain.join spawned;
      Log.close log;
      let ic = open_in path in
      let seen = Hashtbl.create (domains * per_domain) in
      (try
         while true do
           let line = input_line ic in
           match Json.of_string line with
           | Json.Obj fields ->
             (match
                (List.assoc_opt "d" fields, List.assoc_opt "i" fields)
              with
             | Some (Json.Int d), Some (Json.Int i) ->
               Hashtbl.add seen (d, i) ()
             | _ -> Alcotest.failf "malformed record: %s" line)
           | _ -> Alcotest.failf "line is not an object: %s" line
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int)
        "every record present, none torn" (domains * per_domain)
        (Hashtbl.length seen))

(* ---------- allocation accounting ---------- *)

let test_alloc_delta_tracks_allocation () =
  (* [since] must see a known allocation even when it is far smaller than
     the young generation — the reason Alloc reads [Gc.minor_words] (the
     allocation pointer) instead of [quick_stat]'s lazily-refreshed
     counter, which only updates at minor collections. *)
  (* many small arrays, not one big one: arrays past Max_young_wosize
     (256 words) are allocated directly on the major heap and would never
     touch the minor counter *)
  let rounds = 1_000 and len = 8 in
  let acc = ref 0.0 in
  let s0 = Alloc.sample () in
  for i = 1 to rounds do
    let a = Sys.opaque_identity (Array.make len (float_of_int i)) in
    acc := !acc +. a.(0)
  done;
  let d = Alloc.since s0 in
  ignore (Sys.opaque_identity !acc);
  (* at least (len + header) words per round; the loose ceiling still
     catches double counting *)
  let floor = float_of_int (rounds * (len + 1)) in
  if d.Alloc.minor_words < floor then
    Alcotest.failf "delta %.0f words missed %.0f words of minor allocation"
      d.Alloc.minor_words floor;
  if d.Alloc.minor_words > 6.0 *. floor then
    Alcotest.failf "delta %.0f words for %.0f words of minor allocation"
      d.Alloc.minor_words floor;
  Alcotest.(check bool) "counters monotone" true
    (d.Alloc.promoted_words >= 0.0 && d.Alloc.major_words >= 0.0
    && d.Alloc.minor_collections >= 0
    && d.Alloc.major_collections >= 0)

(* An array of more than 256 words is allocated straight into the major
   heap. [since] and [words_since] must count it at once: [Gc.quick_stat]'s
   [major_words] would not move until the next major slice. *)
let test_alloc_sees_direct_major_allocation () =
  let words = 10_000 in
  let s0 = Alloc.sample () in
  let a = Sys.opaque_identity (Array.make words 0) in
  let d = Alloc.since s0 in
  ignore (Sys.opaque_identity a);
  if d.Alloc.major_words < float_of_int words then
    Alcotest.failf "since: %.0f major words for a %d-word array" d.Alloc.major_words words;
  let w0 = Alloc.words () in
  let b = Sys.opaque_identity (Array.make words 0) in
  let dw = Alloc.words_since w0 in
  ignore (Sys.opaque_identity b);
  if dw.Alloc.major < float_of_int words then
    Alcotest.failf "words_since: %.0f major words for a %d-word array" dw.Alloc.major words

let test_alloc_json_shape () =
  let keys doc =
    match doc with
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "expected an object"
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in to_json") true
        (List.mem k (keys (Alloc.to_json (Alloc.sample ())))))
    [ "minor_words"; "promoted_words"; "major_words"; "minor_collections";
      "major_collections" ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in quick_stat_json") true
        (List.mem k (keys (Alloc.quick_stat_json ()))))
    [ "minor_words"; "heap_words"; "top_heap_words"; "compactions" ]

(* ---------- Newton stalled flag ---------- *)

let test_newton_stalled () =
  (* residual pinned high while the proposed step is microscopic: the
     solver must take the step-stall exit and flag it *)
  let stuck =
    Newton.solve
      {
        Newton.residual = (fun _ -> Vec.of_list [ 1.0 ]);
        solve_linearized = (fun _ _ -> Vec.of_list [ 1e-20 ]);
      }
      (Vec.of_list [ 0.0 ])
  in
  Alcotest.(check bool) "stalled" true stuck.Newton.stalled;
  Alcotest.(check bool) "not converged" false stuck.Newton.converged;
  (* a healthy linear solve converges without the flag *)
  let ok =
    Newton.solve
      {
        Newton.residual = (fun x -> Vec.of_list [ x.{0} -. 2.0 ]);
        solve_linearized = (fun x f -> Vec.of_list [ f.{0} /. 1.0 ] |> fun d -> ignore x; d);
      }
      (Vec.of_list [ 0.0 ])
  in
  Alcotest.(check bool) "converged" true ok.Newton.converged;
  Alcotest.(check bool) "not stalled" false ok.Newton.stalled

(* ---------- sequential vs parallel counter equality ---------- *)

let solver_counters () =
  List.filter_map
    (fun name -> Option.map (fun v -> (name, v)) (Metrics.find_counter name))
    [
      "qwm.solves";
      "qwm.regions";
      "qwm.turn_ons";
      "qwm.newton_iterations";
      "qwm.linear_solves";
      "qwm.bisections";
      "qwm.failures";
      "qwm.residuals";
      "qwm.line_search_halvings";
      "qwm.discarded_newton";
      "qwm.estimator_runs";
      "qwm.estimator_steps";
      "qwm.estimator_misses";
      "qwm.device_calls.residual";
      "qwm.device_calls.jacobian";
      "qwm.device_calls.estimator";
      "qwm.device_calls.other";
      "sta.stages_timed";
      "stage_cache.hits";
      "stage_cache.misses";
    ]

let run_and_snapshot ~domains graph =
  Metrics.reset ();
  let cache = Stage_cache.create () in
  let (_ : Tqwm_sta.Arrival.analysis) =
    Parallel.propagate ~model:(Lazy.force table) ~cache ~domains graph
  in
  solver_counters ()

let test_counters_seq_eq_par () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  ignore (Timing_graph.freeze graph);
  let seq = run_and_snapshot ~domains:1 graph in
  let par = run_and_snapshot ~domains:4 graph in
  List.iter2
    (fun (name, s) (name', p) ->
      Alcotest.(check string) "same counter" name name';
      if s <> p then
        Alcotest.failf "%s: sequential %d vs 4-domain %d" name s p)
    seq par;
  (* the comparison must not be vacuous *)
  List.iter
    (fun name ->
      match List.assoc_opt name seq with
      | Some v when v > 0 -> ()
      | Some v -> Alcotest.failf "%s unexpectedly %d" name v
      | None -> Alcotest.failf "%s not registered" name)
    [
      "qwm.regions";
      "qwm.newton_iterations";
      "qwm.residuals";
      "qwm.estimator_runs";
      "qwm.device_calls.residual";
      "qwm.device_calls.jacobian";
      "qwm.device_calls.estimator";
      "sta.stages_timed";
      "stage_cache.misses";
    ];
  (* single-flight cache: one miss per distinct stage in both modes *)
  Alcotest.(check (option int))
    "hits + misses = stages"
    (Some (Timing_graph.num_stages graph))
    (match (List.assoc_opt "stage_cache.hits" seq, List.assoc_opt "stage_cache.misses" seq) with
    | Some h, Some m -> Some (h + m)
    | _ -> None)

(* ---------- ledger ---------- *)

let test_ledger_rejects_schemaless () =
  let reject record =
    Alcotest.check_raises "schema-less record rejected"
      (Invalid_argument "Ledger.append: record lacks a \"schema\" string field")
      (fun () ->
        ignore (Tqwm_obs.Ledger.append ~path:"/nonexistent/never-written.json" record))
  in
  reject (Json.Obj [ ("speedup", Json.Float 2.0) ]);
  reject (Json.Obj [ ("schema", Json.Int 2) ]);
  reject (Json.List [ Json.String "tqwm-bench-parallel/2" ]);
  (* a versioned record is accepted and stamped *)
  let path = Filename.temp_file "tqwm-ledger" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n =
        Tqwm_obs.Ledger.append ~path
          (Json.Obj [ ("schema", Json.String "tqwm-test/1") ])
      in
      Alcotest.(check int) "one record" 1 n;
      match Tqwm_obs.Ledger.last path with
      | Some (Json.Obj fields) ->
        Alcotest.(check bool) "stamped with date and commit" true
          (List.mem_assoc "date" fields && List.mem_assoc "commit" fields)
      | Some _ | None -> Alcotest.fail "record not readable back")

(* a history that does not parse (here a stray merge-conflict marker)
   stops readers and writers alike: [append] raises before writing, so
   the records already in the file survive *)
let test_ledger_keeps_unparsable_history () =
  let path = Filename.temp_file "tqwm-ledger" ".json" in
  let corrupted = "<<<<<<< HEAD\n[{\"schema\": \"tqwm-test/1\"}]\n" in
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s accepted an unparsable history" what
    | exception Failure msg ->
      Alcotest.(check bool) (what ^ " names the file") true
        (String.starts_with ~prefix:("Ledger.read: " ^ path) msg)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc corrupted);
      refuses "append" (fun () ->
          ignore
            (Tqwm_obs.Ledger.append ~path
               (Json.Obj [ ("schema", Json.String "tqwm-test/1") ])));
      Alcotest.(check string) "bytes kept" corrupted
        (In_channel.with_open_bin path In_channel.input_all);
      refuses "last" (fun () -> ignore (Tqwm_obs.Ledger.last path)))

let () =
  Alcotest.run "tqwm_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip and errors" `Quick test_json_roundtrip;
          Alcotest.test_case "slices parse as their text alone" `Quick test_json_slices;
          Alcotest.test_case "max-size flat array on a worker domain" `Quick
            test_json_flat_array_on_a_domain;
          Alcotest.test_case "scalars match the reference printer" `Quick
            test_scalars_match_reference;
          QCheck_alcotest.to_alcotest prop_float_matches_reference;
          QCheck_alcotest.to_alcotest prop_in_place_matches_of_string;
          Alcotest.test_case "report documents match the reference printer" `Slow
            test_report_documents_match_reference;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "append rejects schema-less records" `Quick
            test_ledger_rejects_schemaless;
          Alcotest.test_case "unparsable history is never overwritten" `Quick
            test_ledger_keeps_unparsable_history;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter registry" `Quick test_counter_registry;
          Alcotest.test_case "histogram boundaries" `Quick test_histogram_boundaries;
          Alcotest.test_case "snapshot parses" `Quick test_metrics_snapshot_parses;
          Alcotest.test_case "reset keeps handles registered" `Quick
            test_reset_keeps_handles;
          Alcotest.test_case "gauge registry" `Quick test_gauge_registry;
          Alcotest.test_case "gauge snapshot and reset contract" `Quick
            test_gauge_snapshot_and_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "document shape" `Quick test_trace_document;
          Alcotest.test_case "disabled is silent" `Quick test_trace_disabled_is_silent;
          Alcotest.test_case "concurrent emission loses nothing" `Quick
            test_trace_concurrent_emission;
          Alcotest.test_case "cap drops and counts" `Quick
            test_trace_cap_drops_and_counts;
          Alcotest.test_case "context scoping" `Quick test_trace_context_scoping;
          Alcotest.test_case "context crosses domains" `Quick
            test_trace_context_crosses_domains;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "name sanitization" `Quick test_prometheus_sanitize;
          Alcotest.test_case "histogram exposition" `Quick
            test_prometheus_render_histogram;
          Alcotest.test_case "empty histogram exposition" `Quick
            test_prometheus_render_empty_histogram;
          Alcotest.test_case "counter and gauge exposition" `Quick
            test_prometheus_render_scalars;
          Alcotest.test_case "http scrape" `Quick test_prometheus_scrape_http;
        ] );
      ( "log",
        [
          Alcotest.test_case "concurrent lines stay whole" `Quick
            test_log_concurrent_lines_whole;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "delta tracks a sub-minor-heap allocation" `Quick
            test_alloc_delta_tracks_allocation;
          Alcotest.test_case "json shape" `Quick test_alloc_json_shape;
          Alcotest.test_case "delta sees a direct major allocation" `Quick
            test_alloc_sees_direct_major_allocation;
        ] );
      ( "newton",
        [ Alcotest.test_case "stalled flag" `Quick test_newton_stalled ] );
      ( "end-to-end",
        [
          Alcotest.test_case "sequential vs parallel counters" `Slow
            test_counters_seq_eq_par;
        ] );
    ]
