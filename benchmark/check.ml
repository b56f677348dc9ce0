(* Smoke check of the benchmark, run by [dune runtest]:

     check.exe MAIN_EXE BENCHMARK_JSON

   Every workload named in BENCHMARK.json runs at a small scale, once
   untraced and once traced, each in its own process. Every run must
   exit 0 with its correctness checks passed, and its last line must
   hold every end-to-end (untraced) or per-layer (traced) metric
   BENCHMARK.json names, with the same unit; end-to-end values must be
   positive. *)

module Json = Tqwm_obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let field key json =
  match Json.member key json with
  | Some v -> v
  | None -> failwith ("missing key " ^ key)

let list json = match Json.to_list_opt json with Some l -> l | None -> failwith "not a list"

let string = function Json.String s -> s | _ -> failwith "not a string"

let number = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

(* Run one workload; its exit status and its last line of output. *)
let run main_exe workload ~trace =
  let args =
    [| main_exe; "--workload"; workload; "--seed"; "7"; "--seconds"; "0.1"; "--scale"; "0.01";
       "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in main_exe args in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  (status, List.nth lines (List.length lines - 1))

let () =
  let main_exe = Sys.argv.(1) and spec = Json.of_string (read_file Sys.argv.(2)) in
  let metrics key =
    List.map (fun m -> (string (field "name" m), string (field "unit" m))) (list (field key spec))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      let workload = string (field "name" w) in
      List.iter
        (fun trace ->
          let label = Printf.sprintf "%s%s" workload (if trace then " (traced)" else "") in
          match run main_exe workload ~trace with
          | exception e -> problem "%s: %s" label (Printexc.to_string e)
          | status, last ->
            if status <> Unix.WEXITED 0 then problem "%s: nonzero exit" label;
            let result = Json.of_string last in
            if field "correct" result <> Json.Bool true then problem "%s: not correct" label;
            if field "failed" result <> Json.Int 0 then problem "%s: failed operations" label;
            let printed = field "metrics" result in
            List.iter
              (fun (name, unit) ->
                match Json.member name printed with
                | None -> problem "%s: %s not printed" label name
                | Some m ->
                  if string (field "unit" m) <> unit then problem "%s: %s unit" label name;
                  (match number (field "value" m) with
                  | None -> problem "%s: %s is not a number" label name
                  | Some v when (not trace) && v <= 0.0 -> problem "%s: %s is %g" label name v
                  | Some _ -> ()))
              (metrics (if trace then "per_layer" else "end_to_end")))
        [ false; true ])
    (list (field "workloads" spec));
  match !problems with
  | [] -> print_endline "benchmark smoke check: every workload ok"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1
