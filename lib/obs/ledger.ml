let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let stamp = function
  | Json.Obj fields ->
    let fields =
      List.filter (fun (k, _) -> k <> "date" && k <> "commit") fields
    in
    Json.Obj
      (("date", Json.String (timestamp ()))
      :: ("commit", Json.String (Vcs.commit ()))
      :: fields)
  | other -> other

let read path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (* an empty file (a fresh [Filename.temp_file]) holds no records *)
    if String.trim text = "" then []
    else
      match Json.of_string text with
      | Json.List records -> records
      | single -> [ single ]
      | exception Json.Parse_error msg ->
        (* never read an unparsable history as empty: [append] would then
           replace every record in it with the one being appended *)
        failwith (Printf.sprintf "Ledger.read: %s is not JSON: %s" path msg)

let last path =
  match List.rev (read path) with [] -> None | newest :: _ -> Some newest

(* Every ledger consumer dispatches on the record's "schema" field
   (Baseline.load, the test suite's shape checks); a record
   without one is unidentifiable forever, so it is rejected at the
   source instead of poisoning the committed history. *)
let has_schema = function
  | Json.Obj fields ->
    (match List.assoc_opt "schema" fields with
    | Some (Json.String _) -> true
    | Some _ | None -> false)
  | _ -> false

let append ~path record =
  if not (has_schema record) then
    invalid_arg "Ledger.append: record lacks a \"schema\" string field";
  let history = read path @ [ stamp record ] in
  Json.write_file path (Json.List history);
  List.length history
