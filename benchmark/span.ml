(* Spans recorded by the benchmark around its calls into the libraries'
   public functions: name, start, end and parent, with every span of one
   operation sharing that operation's id. They are kept in memory and
   written out as one Chrome trace when the benchmark ends. The
   libraries' own tracing stays off. *)

module Json = Tqwm_obs.Json

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a top-level span *)
  lane : int;
  start : float;
  stop : float;
}

(* One recorder per calling domain: a recorder is not shared. *)
type t = { lane : int; mutable spans : span list; mutable stack : int list; mutable op : int }

let next_id = Atomic.make 0

let next_op = Atomic.make 0

let registry = Mutex.create ()

let recorders = ref []

let create ~lane =
  let t = { lane; spans = []; stack = []; op = -1 } in
  Mutex.protect registry (fun () -> recorders := t :: !recorders);
  t

(* Every recorder created so far. *)
let all () = Mutex.protect registry (fun () -> !recorders)

let with_span t name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Timer.now () in
  let finish () =
    let stop = Timer.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; op = t.op; parent; lane = t.lane; start; stop } :: t.spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* A top-level span opening a new operation id. *)
let op t name f =
  t.op <- Atomic.fetch_and_add next_op 1;
  with_span t name f

(* Span helpers that cost nothing when the run is untraced. *)
let wrap t name f = match t with None -> f () | Some t -> with_span t name f

let wrap_op t name f = match t with None -> f () | Some t -> op t name f

let durations ts name =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun s -> if String.equal s.name name then Some (s.stop -. s.start) else None)
        t.spans)
    ts

let total ts name = List.fold_left ( +. ) 0.0 (durations ts name)

let count ts name = List.length (durations ts name)

let to_chrome ts =
  let spans = List.concat_map (fun t -> t.spans) ts in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = Json.Float ((x -. t0) *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "benchmark");
        ("ph", Json.String "X");
        ("ts", us s.start);
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.lane);
        ( "args",
          Json.Obj [ ("id", Json.Int s.id); ("op", Json.Int s.op); ("parent", Json.Int s.parent) ]
        );
      ]
  in
  let ordered = List.sort (fun a b -> Float.compare a.start b.start) spans in
  Json.Obj [ ("traceEvents", Json.List (List.map event ordered)) ]
