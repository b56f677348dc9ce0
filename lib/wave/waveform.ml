module Quad = Tqwm_num.Quad
module Vec = Tqwm_num.Vec

type t = { times : float array; values : float array }

let of_samples pts =
  let n = Array.length pts in
  if n = 0 then invalid_arg "Waveform.of_samples: empty";
  let times = Array.map fst pts and values = Array.map snd pts in
  for i = 1 to n - 1 do
    if times.(i) <= times.(i - 1) then
      invalid_arg "Waveform.of_samples: times must be strictly increasing"
  done;
  { times; values }

let samples w = Array.map2 (fun t v -> (t, v)) w.times w.values

let start_time w = w.times.(0)

let end_time w = w.times.(Array.length w.times - 1)

(* index of the last sample with time <= t, or -1 *)
let locate w t =
  let n = Array.length w.times in
  if t < w.times.(0) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if w.times.(mid) <= t then lo := mid else hi := mid
    done;
    if w.times.(!hi) <= t then !hi else !lo
  end

let value_at w t =
  let n = Array.length w.times in
  let i = locate w t in
  if i < 0 then w.values.(0)
  else if i >= n - 1 then w.values.(n - 1)
  else begin
    let t0 = w.times.(i) and t1 = w.times.(i + 1) in
    let frac = (t -. t0) /. (t1 -. t0) in
    w.values.(i) +. (frac *. (w.values.(i + 1) -. w.values.(i)))
  end

let map_values f w = { w with values = Array.map f w.values }

let crossings w ~level =
  let acc = ref [] in
  for i = 0 to Array.length w.times - 2 do
    let v0 = w.values.(i) -. level and v1 = w.values.(i + 1) -. level in
    if (v0 < 0.0 && v1 >= 0.0) || (v0 >= 0.0 && v1 < 0.0) then begin
      let frac = if v1 = v0 then 0.0 else -.v0 /. (v1 -. v0) in
      let t = w.times.(i) +. (frac *. (w.times.(i + 1) -. w.times.(i))) in
      let dir = if v1 > v0 then `Rising else `Falling in
      acc := (t, dir) :: !acc
    end
  done;
  List.rev !acc

let first_crossing w ~level ~direction =
  let matches (_, dir) =
    match direction with
    | `Any -> true
    | (`Rising | `Falling) as d -> d = dir
  in
  crossings w ~level |> List.find_opt matches |> Option.map fst

type piece = { t0 : float; dt : float; v0 : float; dv : float; ddv : float }

(* Structure-of-arrays storage: five parallel float64 columns, usually
   zero-copy views into one contiguous slab packed by the producer.  Piece
   [i] lives at index [i] of every column; all evaluators below read the
   columns directly so no piece record is materialised on the hot path. *)
type quadratic = {
  len : int;
  t0c : Vec.t;
  dtc : Vec.t;
  v0c : Vec.t;
  dvc : Vec.t;
  ddvc : Vec.t;
}

(* value of piece [i] at absolute time [t]: v0 + dv*x + ddv/2*x^2 *)
let[@inline] col_value q i t =
  let x = t -. q.t0c.{i} in
  q.v0c.{i} +. (q.dvc.{i} *. x) +. (0.5 *. q.ddvc.{i} *. x *. x)

let validate ctx q =
  for i = 0 to q.len - 1 do
    if q.dtc.{i} <= 0.0 then invalid_arg (ctx ^ ": non-positive dt");
    if i > 0 then begin
      if Float.abs (q.t0c.{i - 1} +. q.dtc.{i - 1} -. q.t0c.{i}) > 1e-15 then
        invalid_arg (ctx ^ ": non-contiguous pieces")
    end
  done

let of_columns ~t0 ~dt ~v0 ~dv ~ddv =
  let len = Vec.dim t0 in
  if len = 0 then invalid_arg "Waveform.quadratic_of_pieces: empty";
  if Vec.dim dt <> len || Vec.dim v0 <> len || Vec.dim dv <> len
     || Vec.dim ddv <> len
  then invalid_arg "Waveform.of_columns: column length mismatch";
  let q = { len; t0c = t0; dtc = dt; v0c = v0; dvc = dv; ddvc = ddv } in
  validate "Waveform.quadratic_of_pieces" q;
  q

let quadratic_of_pieces pieces =
  if pieces = [] then invalid_arg "Waveform.quadratic_of_pieces: empty";
  let len = List.length pieces in
  let slab = Vec.create (len * 5) in
  List.iteri
    (fun i p ->
      slab.{i} <- p.t0;
      slab.{len + i} <- p.dt;
      slab.{(2 * len) + i} <- p.v0;
      slab.{(3 * len) + i} <- p.dv;
      slab.{(4 * len) + i} <- p.ddv)
    pieces;
  of_columns
    ~t0:(Vec.view slab ~pos:0 ~len)
    ~dt:(Vec.view slab ~pos:len ~len)
    ~v0:(Vec.view slab ~pos:(2 * len) ~len)
    ~dv:(Vec.view slab ~pos:(3 * len) ~len)
    ~ddv:(Vec.view slab ~pos:(4 * len) ~len)

let quadratic_pieces q =
  List.init q.len (fun i ->
      {
        t0 = q.t0c.{i};
        dt = q.dtc.{i};
        v0 = q.v0c.{i};
        dv = q.dvc.{i};
        ddv = q.ddvc.{i};
      })

let quadratic_value_at q t =
  let n = q.len in
  if t <= q.t0c.{0} then q.v0c.{0}
  else begin
    let last_end = q.t0c.{n - 1} +. q.dtc.{n - 1} in
    if t >= last_end then col_value q (n - 1) last_end
    else begin
      (* pieces are few (one per region); linear scan is fine *)
      let rec find i =
        if t <= q.t0c.{i} +. q.dtc.{i} || i = n - 1 then col_value q i t
        else find (i + 1)
      in
      find 0
    end
  end

let quadratic_end_value q =
  let n = q.len in
  col_value q (n - 1) (q.t0c.{n - 1} +. q.dtc.{n - 1})

let quadratic_first_crossing q ~level ~direction =
  let piece_crossing i =
    (* roots of v0 + dv x + ddv/2 x^2 = level within [0, dt] *)
    let t0 = q.t0c.{i} and dt = q.dtc.{i} and dv = q.dvc.{i} and ddv = q.ddvc.{i} in
    let roots = Quad.roots ~a:(0.5 *. ddv) ~b:dv ~c:(q.v0c.{i} -. level) in
    let ok x =
      if x < -1e-18 || x > dt +. 1e-18 then None
      else begin
        let slope = dv +. (ddv *. x) in
        let dir_ok =
          match direction with
          | `Any -> true
          | `Rising -> slope > 0.0
          | `Falling -> slope < 0.0
        in
        if dir_ok then Some (t0 +. Float.max x 0.0) else None
      end
    in
    List.filter_map ok roots |> function [] -> None | t :: _ -> Some t
  in
  let rec scan i =
    if i >= q.len then None
    else match piece_crossing i with Some t -> Some t | None -> scan (i + 1)
  in
  scan 0

let sample_quadratic q ~dt =
  if dt <= 0.0 then invalid_arg "Waveform.sample_quadratic: dt <= 0";
  let t_start = q.t0c.{0} in
  let t_end = q.t0c.{q.len - 1} +. q.dtc.{q.len - 1} in
  let steps = int_of_float (Float.ceil ((t_end -. t_start) /. dt)) in
  let pts =
    Array.init (steps + 1) (fun i ->
        let t = Float.min (t_start +. (float_of_int i *. dt)) t_end in
        (t, quadratic_value_at q t))
  in
  (* guard against a duplicated final sample when the span divides evenly *)
  let n = Array.length pts in
  let pts =
    if n >= 2 && fst pts.(n - 1) <= fst pts.(n - 2) then Array.sub pts 0 (n - 1) else pts
  in
  of_samples pts

(* Packed-block form: one waveform occupies [5 * len] consecutive floats
   of a shared slab, columns in t0/dt/v0/dv/ddv order.  The STA timing
   arena's level digests hash a level's outputs in this layout, stage
   after stage. *)
let packed_size q = 5 * q.len

let blit_packed q dst ~pos =
  let n = q.len in
  for i = 0 to n - 1 do
    dst.{pos + i} <- q.t0c.{i};
    dst.{pos + n + i} <- q.dtc.{i};
    dst.{pos + (2 * n) + i} <- q.v0c.{i};
    dst.{pos + (3 * n) + i} <- q.dvc.{i};
    dst.{pos + (4 * n) + i} <- q.ddvc.{i}
  done
