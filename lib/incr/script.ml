open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Path_enum = Tqwm_sta.Path_enum
module Report = Tqwm_sta.Report
module Json = Tqwm_obs.Json
module Trace = Tqwm_obs.Trace

exception Script_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Script_error { line; message })) fmt

type mode = Incremental | Scratch

let ps = 1e12

let int_arg line what token =
  match int_of_string_opt token with
  | Some v -> v
  | None -> fail line "%s: expected an integer, got %S" what token

let float_arg line what token =
  match float_of_string_opt token with
  | Some v -> v
  | None -> fail line "%s: expected a number, got %S" what token

let catalog_scenario tech line name =
  match Catalog.scenario tech name with
  | scenario -> scenario
  | exception Not_found ->
    fail line "unknown circuit %S; examples: %s" name (String.concat ", " Catalog.examples)

let build_graph tech line = function
  | [ "chain"; n ] -> Workloads.chain ~n:(int_arg line "chain" n) tech
  | [ "diamond" ] -> Workloads.diamond tech
  | [ "decoder"; fanout; depth ] | [ "decoder"; fanout; depth; _ ] as args ->
    let levels =
      match args with [ _; _; _; l ] -> int_arg line "decoder levels" l | _ -> 2
    in
    Workloads.decoder_tree
      ~fanout:(int_arg line "decoder fanout" fanout)
      ~depth:(int_arg line "decoder depth" depth)
      ~levels tech
  | [ "stacks"; width; depth ] | [ "stacks"; width; depth; _ ] as args ->
    let seed = match args with [ _; _; _; s ] -> int_arg line "stacks seed" s | _ -> 0 in
    Workloads.random_stacks
      ~width:(int_arg line "stacks width" width)
      ~depth:(int_arg line "stacks depth" depth)
      ~seed tech
  | args ->
    fail line
      "graph: expected chain N | diamond | decoder FANOUT DEPTH [LEVELS] | stacks WIDTH \
       DEPTH [SEED], got %S"
      (String.concat " " args)

let tokenize raw =
  let raw =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  String.split_on_char ' ' (String.trim raw)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let graph_of_spec ~tech spec =
  match build_graph tech 0 (tokenize spec) with
  | g -> g
  | exception Script_error { message; _ } -> invalid_arg message

(* The timing document of a session's current state: the same
   [tqwm-report/1] JSON [qwm_sim --report-timing --json] writes, built
   from the session's own analysis, cache and retimings so the per-stage
   attributions replay the solves the session actually performed. With
   no [clock_period], [Arrival.zero_slack_clock] sets the clock — the
   same rule the [timing] script command applies. *)
let timing_json ?clock_period ?(k = 1) session =
  if k < 1 then invalid_arg "Script.timing_json: k must be >= 1";
  let cp =
    match clock_period with
    | Some cp -> cp
    | None -> Arrival.zero_slack_clock (Session.analysis session)
  in
  let paths = Session.k_worst ~clock_period:cp session ~k in
  let explained = List.map (Session.explain session) paths in
  let required = Session.required session ~clock_period:cp in
  Report.timing_to_json (Session.graph session)
    (Session.analysis session)
    required explained

(* One interpreter = one session plus the report bookkeeping ([clock],
   WNS/TNS deltas, report counter) that makes an edit script read as a
   sequence of timing moves. [run] feeds a whole script through one
   interpreter; a server session feeds one line per request through a
   long-lived one — the same code path, so the documents agree byte for
   byte. *)
module Interp = struct
  type t = {
    tech : Tqwm_device.Tech.t;
    model : Tqwm_device.Device_model.t;
    cache : Stage_cache.t;
    domains : int;
    epsilon : float;
    mode : mode;
    out : Format.formatter;
    mutable session : Session.t option;
    mutable reports : int;
    (* set by the [clock] command; while set, every report also prints
       WNS/TNS and their deltas against the previous report *)
    mutable clock : float option;
    mutable last_health : (float * float) option;
    mutable fed : int;  (** lines fed so far, for default line numbering *)
  }

  let create ~tech ~model ?cache ?(domains = 1) ?(epsilon = 0.0) ?(mode = Incremental)
      ?(out = Format.std_formatter) ?session () =
    let cache = match cache with Some c -> c | None -> Stage_cache.create () in
    {
      tech;
      model;
      cache;
      domains;
      epsilon;
      mode;
      out;
      session;
      reports = 0;
      clock = None;
      last_health = None;
      fed = 0;
    }

  let has_session t = t.session <> None

  (* the session is created by the first command: [graph] seeds it with a
     workload, anything else starts from an empty graph *)
  let session t =
    match t.session with
    | Some s -> s
    | None ->
      let s =
        Session.create ~model:t.model ~cache:t.cache ~domains:t.domains
          ~epsilon:t.epsilon (Timing_graph.create ())
      in
      t.session <- Some s;
      s

  let clock_period t = t.clock

  let current_analysis t s =
    match t.mode with
    | Incremental -> Session.analysis s
    | Scratch -> Session.scratch_analysis s

  let edit t line s e =
    match Session.apply s e with
    | added ->
      (match added with
      | Some id -> Format.fprintf t.out "stage %d: %s@." id (Edit.describe e)
      | None -> Format.fprintf t.out "edit: %s@." (Edit.describe e))
    | exception Invalid_argument message -> fail line "%s" message

  let command t line tokens =
    let out = t.out in
    match tokens with
    | [] -> ()
    | "graph" :: spec ->
      if t.session <> None then fail line "graph must be the first command";
      (* the builders reject a non-positive size with [Invalid_argument],
         which is an error at this line like any other bad argument *)
      let graph =
        try build_graph t.tech line spec
        with Invalid_argument message -> fail line "%s" message
      in
      t.session <-
        Some
          (Session.create ~model:t.model ~cache:t.cache ~domains:t.domains
             ~epsilon:t.epsilon graph);
      Format.fprintf out "graph: %d stages, %d connections@."
        (Timing_graph.num_stages graph)
        (Timing_graph.num_connections graph)
    | [ "stage"; name ] ->
      let s = session t in
      edit t line s (Edit.Add_stage (catalog_scenario t.tech line name))
    | [ "connect"; f; tt; input ] ->
      edit t line (session t)
        (Edit.Connect
           {
             from_stage = int_arg line "connect" f;
             to_stage = int_arg line "connect" tt;
             input;
           })
    | [ "disconnect"; f; tt; input ] ->
      edit t line (session t)
        (Edit.Disconnect
           {
             from_stage = int_arg line "disconnect" f;
             to_stage = int_arg line "disconnect" tt;
             input;
           })
    | [ "remove"; id ] ->
      edit t line (session t) (Edit.Remove_stage (int_arg line "remove" id))
    | [ "resize"; id; e; scale ] ->
      edit t line (session t)
        (Edit.Resize_device
           {
             stage = int_arg line "resize" id;
             edge = int_arg line "resize" e;
             scale = float_arg line "resize" scale;
           })
    | [ "load"; id; farads ] ->
      edit t line (session t)
        (Edit.Set_load
           { stage = int_arg line "load" id; load = float_arg line "load" farads })
    | [ "swap"; id; name ] ->
      edit t line (session t)
        (Edit.Swap_scenario
           {
             stage = int_arg line "swap" id;
             scenario = catalog_scenario t.tech line name;
           })
    | [ "retime"; id; arrival_ps; slew_ps ] ->
      edit t line (session t)
        (Edit.Retime_input
           {
             stage = int_arg line "retime" id;
             arrival = float_arg line "retime" arrival_ps *. 1e-12;
             slew = float_arg line "retime" slew_ps *. 1e-12;
           })
    | [ "report" ] ->
      let s = session t in
      let analysis = current_analysis t s in
      t.reports <- t.reports + 1;
      let stats = Session.stats s in
      if Array.length analysis.Arrival.timings <= 16 then
        Report.print out (Session.graph s) analysis;
      Format.fprintf out
        "report %d: worst arrival %.2f ps (%d stages; re-evaluated %d, cumulative %d \
         reeval / %d cutoff over %d edits)@."
        t.reports
        (analysis.Arrival.worst_arrival *. ps)
        (Array.length analysis.Arrival.timings)
        stats.Session.last_reeval stats.Session.stages_reeval stats.Session.cutoff_hits
        stats.Session.edits;
      (match t.clock with
      | None -> ()
      | Some cp ->
        let r =
          match Arrival.required (Session.graph s) analysis ~clock_period:cp with
          | r -> r
          | exception Invalid_argument message -> fail line "%s" message
        in
        (match t.last_health with
        | None ->
          Format.fprintf out "  slack: WNS %.2f ps  TNS %.2f ps@."
            (r.Arrival.wns *. ps) (r.Arrival.tns *. ps)
        | Some (wns, tns) ->
          Format.fprintf out
            "  slack: WNS %.2f ps (%+.2f)  TNS %.2f ps (%+.2f)@."
            (r.Arrival.wns *. ps)
            ((r.Arrival.wns -. wns) *. ps)
            (r.Arrival.tns *. ps)
            ((r.Arrival.tns -. tns) *. ps));
        t.last_health <- Some (r.Arrival.wns, r.Arrival.tns))
    | [ "clock"; period_ps ] ->
      let cp = float_arg line "clock" period_ps *. 1e-12 in
      if not (Float.is_finite cp) || cp <= 0.0 then
        fail line "clock: period must be finite and > 0";
      t.clock <- Some cp;
      t.last_health <- None;
      Format.fprintf out "clock: period %.2f ps@." (cp *. ps)
    | [ "timing" ] | [ "timing"; _ ] ->
      let k =
        match tokens with [ _; k ] -> int_arg line "timing" k | _ -> 1
      in
      if k < 1 then fail line "timing: K must be >= 1";
      let s = session t in
      (* always over the session's incremental analysis: the explain
         replay then peeks the solves this session actually cached *)
      let cp =
        match t.clock with
        | Some cp -> cp
        | None -> Arrival.zero_slack_clock (Session.analysis s)
      in
      (match Session.k_worst ~clock_period:cp s ~k with
      | exception Invalid_argument message -> fail line "%s" message
      | paths ->
        let explained = List.map (Session.explain s) paths in
        let required = Session.required s ~clock_period:cp in
        Report.print_timing out (Session.graph s) required explained)
    | [ "query"; f; tt ] ->
      let s = session t in
      let from_stage = int_arg line "query" f and to_stage = int_arg line "query" tt in
      (match Session.query s ~from_stage ~to_stage with
      | exception Invalid_argument message -> fail line "%s" message
      | None -> Format.fprintf out "query %d -> %d: no path@." from_stage to_stage
      | Some q ->
        Format.fprintf out "query %d -> %d: arrival %.2f ps via %s@." from_stage to_stage
          (q.Session.arrival *. ps)
          (String.concat " -> " (List.map string_of_int q.Session.stages)))
    | token :: _ -> fail line "unknown command %S" token

  let feed t ?line raw =
    t.fed <- t.fed + 1;
    let line = match line with Some l -> l | None -> t.fed in
    let tokens = tokenize raw in
    (* a stage the analysis cannot time fails the line that asked for the
       analysis; the session stays usable *)
    let run () =
      try command t line tokens
      with Arrival.Analysis_failure message -> fail line "%s" message
    in
    if not (Trace.enabled ()) then run ()
    else
      let verb = match tokens with [] -> "" | v :: _ -> v in
      Trace.with_span ~name:"script.command" ~cat:"script"
        ~args:[ ("command", Json.String verb); ("line", Json.Int line) ]
        run

  let document t =
    let s = session t in
    let analysis = current_analysis t s in
    let stats = Session.stats s in
    (* only scripts that set a clock get the timing block, so documents of
       clock-less scripts (the equivalence corpus) are byte-identical to
       what they were before slack reporting existed *)
    let timing_fields =
      match t.clock with
      | None -> []
      | Some cp ->
        let r = Arrival.required (Session.graph s) analysis ~clock_period:cp in
        [
          ( "timing",
            Json.Obj
              [
                ("clock_period_ps", Json.Float (cp *. ps));
                ("wns_ps", Json.Float (r.Arrival.wns *. ps));
                ("tns_ps", Json.Float (r.Arrival.tns *. ps));
                ("worst_slack_ps", Json.Float (r.Arrival.req_worst_slack *. ps));
              ] );
        ]
    in
    Json.Obj
      ([
         ("schema", Json.String "tqwm-incr-report/1");
         ("mode", Json.String (match t.mode with Incremental -> "incremental" | Scratch -> "scratch"));
         ("analysis", Report.to_json (Session.graph s) analysis);
       ]
      @ timing_fields
      @ [
          ( "stats",
            Json.Obj
              [
                ("edits", Json.Int stats.Session.edits);
                ("recomputes", Json.Int stats.Session.recomputes);
                ("stages_reeval", Json.Int stats.Session.stages_reeval);
                ("cutoff_hits", Json.Int stats.Session.cutoff_hits);
              ] );
        ])
end

type outcome = { session : Session.t; clock_period : float option; json : Json.t }

let run ~tech ~model ?(domains = 1) ?(epsilon = 0.0) ?(mode = Incremental)
    ?(out = Format.std_formatter) text =
  let interp = Interp.create ~tech ~model ~domains ~epsilon ~mode ~out () in
  let lines = String.split_on_char '\n' text in
  List.iteri (fun idx raw -> Interp.feed interp ~line:(idx + 1) raw) lines;
  let json =
    (* the closing document times what the last edits left dirty: a
       failure there belongs to the script's last line *)
    try Interp.document interp
    with Arrival.Analysis_failure message ->
      let last = List.length lines - if String.ends_with ~suffix:"\n" text then 1 else 0 in
      fail last "%s" message
  in
  {
    session = Interp.session interp;
    clock_period = Interp.clock_period interp;
    json;
  }

let run_file ~tech ~model ?domains ?epsilon ?mode ?out path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  run ~tech ~model ?domains ?epsilon ?mode ?out text
