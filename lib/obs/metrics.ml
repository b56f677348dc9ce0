type counter = { name : string; value : int Atomic.t }

type histogram = {
  hname : string;
  bounds : float array;  (** strictly increasing upper bounds *)
  counts : int Atomic.t array;  (** length = Array.length bounds + 1 (overflow) *)
  sum : float Atomic.t;
}

type gauge = { gname : string; gvalue : float Atomic.t }

type metric = Counter of counter | Histogram of histogram | Gauge of gauge

(* The registry is global: instruments are declared once at module
   initialization and shared by every engine instance, so sequential and
   parallel runs of the same work bump the same cells and their totals
   can be compared directly. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let kind = function
  | Counter _ -> "a counter"
  | Histogram _ -> "a histogram"
  | Gauge _ -> "a gauge"

let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> c
      | Some ((Histogram _ | Gauge _) as m) ->
        invalid_arg (Printf.sprintf "Metrics.counter: %s is %s" name (kind m))
      | None ->
        let c = { name; value = Atomic.make 0 } in
        Hashtbl.add registry name (Counter c);
        c)

let histogram name ~bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Metrics.histogram: bounds not strictly increasing")
    bounds;
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Histogram h) -> h
      | Some ((Counter _ | Gauge _) as m) ->
        invalid_arg (Printf.sprintf "Metrics.histogram: %s is %s" name (kind m))
      | None ->
        let h =
          {
            hname = name;
            bounds = Array.copy bounds;
            counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            sum = Atomic.make 0.0;
          }
        in
        Hashtbl.add registry name (Histogram h);
        h)

let gauge name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> g
      | Some ((Counter _ | Histogram _) as m) ->
        invalid_arg (Printf.sprintf "Metrics.gauge: %s is %s" name (kind m))
      | None ->
        let g = { gname = name; gvalue = Atomic.make 0.0 } in
        Hashtbl.add registry name (Gauge g);
        g)

let set g v = Atomic.set g.gvalue v

let gauge_value g = Atomic.get g.gvalue

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.value n)

let incr c = ignore (Atomic.fetch_and_add c.value 1)

let value c = Atomic.get c.value

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

(* bucket i counts observations v with bounds.(i-1) < v <= bounds.(i);
   the final bucket counts v > bounds.(last) *)
let bucket_index h v =
  let n = Array.length h.bounds in
  let rec find i = if i >= n || v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  ignore (Atomic.fetch_and_add h.counts.(bucket_index h v) 1);
  atomic_add_float h.sum v

(* The values are bucketed into a local tally first, so the shared cells
   see one add per non-empty bucket and one sum update, and no float is
   boxed per value. *)
let observe_indexed h ~scale values ids =
  let nbounds = Array.length h.bounds in
  let tally = Array.make (nbounds + 1) 0 in
  let sum = ref 0.0 in
  for k = 0 to Array.length ids - 1 do
    let v = scale *. values.(ids.(k)) in
    let b = ref 0 in
    while !b < nbounds && not (v <= h.bounds.(!b)) do
      b := !b + 1
    done;
    tally.(!b) <- tally.(!b) + 1;
    sum := !sum +. v
  done;
  for b = 0 to nbounds do
    if tally.(b) > 0 then ignore (Atomic.fetch_and_add h.counts.(b) tally.(b))
  done;
  if Array.length ids > 0 then atomic_add_float h.sum !sum

let histogram_counts h = Array.map Atomic.get h.counts

let histogram_total h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts

let sorted_metrics () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters_alist () =
  List.filter_map
    (function name, Counter c -> Some (name, value c) | _, (Histogram _ | Gauge _) -> None)
    (sorted_metrics ())

let find_counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some (value c)
      | Some (Histogram _ | Gauge _) | None -> None)

let find_gauge name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Gauge g) -> Some (gauge_value g)
      | Some (Counter _ | Histogram _) | None -> None)

type exported =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of { bounds : float array; counts : int array; sum : float }

let export () =
  List.map
    (fun (name, m) ->
      match m with
      | Counter c -> (name, Counter_value (value c))
      | Gauge g -> (name, Gauge_value (gauge_value g))
      | Histogram h ->
        ( name,
          Histogram_value
            {
              bounds = Array.copy h.bounds;
              counts = histogram_counts h;
              sum = Atomic.get h.sum;
            } ))
    (sorted_metrics ())

let snapshot () =
  let metrics = sorted_metrics () in
  let counters =
    List.filter_map
      (function
        | name, Counter c -> Some (name, Json.Int (value c))
        | _, (Histogram _ | Gauge _) -> None)
      metrics
  in
  let gauges =
    List.filter_map
      (function
        | name, Gauge g -> Some (name, Json.Float (gauge_value g))
        | _, (Counter _ | Histogram _) -> None)
      metrics
  in
  let histograms =
    List.filter_map
      (function
        | _, (Counter _ | Gauge _) -> None
        | name, Histogram h ->
          Some
            ( name,
              Json.Obj
                [
                  ("bounds", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)));
                  ( "counts",
                    Json.List
                      (Array.to_list
                         (Array.map (fun c -> Json.Int (Atomic.get c)) h.counts)) );
                  ("total", Json.Int (histogram_total h));
                  ("sum", Json.Float (Atomic.get h.sum));
                ] ))
      metrics
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let reset () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.value 0
          | Gauge g -> Atomic.set g.gvalue 0.0
          | Histogram h ->
            Array.iter (fun c -> Atomic.set c 0) h.counts;
            Atomic.set h.sum 0.0)
        registry)
