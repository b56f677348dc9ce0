(* Clock, operation timings and process memory for the benchmark. *)

(* Monotonic wall clock in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile, [p] in [0, 1]; 0 on no values. *)
let percentile values p =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median values = percentile values 0.5

(* Mean of the slowest tenth of [values], rounded up to whole values; 0
   on no values. Unlike a high percentile it moves smoothly when the
   share of slow operations changes — a share that sits near 10 % on
   sta-repeat, where about one run in ten takes an extra major GC
   cycle. *)
let slowest_tenth_mean values =
  let sorted = Array.copy values in
  Array.sort (fun a b -> Float.compare b a) sorted;
  let k = (Array.length sorted + 9) / 10 in
  if k = 0 then 0.0 else Array.fold_left ( +. ) 0.0 (Array.sub sorted 0 k) /. float_of_int k

(* A growable buffer of floats. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let to_array t = Array.sub t.data 0 t.len

  let clear t = t.len <- 0
end

(* The operations of a measured loop, summarized window by window. The
   loop's time is cut into equal windows; the operations that finish in
   one window give its throughput — their count over the time since the
   previous window's last operation finished — its median latency and
   the mean latency of its slowest tenth. A window is summarized as soon
   as it closes, so memory does not grow with the number of operations
   (memory is a metric). Operations must be recorded in the order they
   finish. *)
module Windows = struct
  type summary = { rate : float; p50 : float; slow10 : float }

  type t = {
    start : float;
    width : float;
    mutable window : int;
    latencies : Samples.t;  (** of the open window *)
    mutable last_finish : float;  (** of the open window *)
    mutable closed_at : float;  (** last finish of the previous window *)
    mutable summaries : summary list;
    mutable count : int;
  }

  let windows = 20

  let create ~start ~seconds =
    {
      start;
      width = seconds /. float_of_int windows;
      window = 0;
      latencies = Samples.create ();
      last_finish = start;
      closed_at = start;
      summaries = [];
      count = 0;
    }

  let close t =
    if Samples.length t.latencies > 0 then begin
      let l = Samples.to_array t.latencies in
      t.summaries <-
        {
          rate = float_of_int (Array.length l) /. (t.last_finish -. t.closed_at);
          p50 = percentile l 0.5;
          slow10 = slowest_tenth_mean l;
        }
        :: t.summaries;
      t.closed_at <- t.last_finish;
      Samples.clear t.latencies
    end

  let record t ~start ~stop =
    let w = int_of_float ((stop -. t.start) /. t.width) in
    if w <> t.window then begin
      close t;
      t.window <- w
    end;
    Samples.add t.latencies (stop -. start);
    t.last_finish <- stop;
    t.count <- t.count + 1

  let count t = t.count

  let summaries t =
    close t;
    Array.of_list t.summaries
end

(* Peak resident set size in MiB, from [VmHWM] in /proc/self/status: the
   numeric slabs are Bigarrays outside the OCaml heap, so heap statistics
   would miss them. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
          kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Call [op] with a running index until [seconds] have elapsed, timing
   every call: the calls and the seconds the loop ran. *)
let run_for ~seconds op =
  let start = now () in
  let ops = Windows.create ~start ~seconds in
  let deadline = start +. seconds in
  let i = ref 0 and t = ref start in
  while !t < deadline do
    op !i;
    let stop = now () in
    Windows.record ops ~start:!t ~stop;
    t := stop;
    incr i
  done;
  (ops, !t -. start)

(* Run [setup] [repeats] times, passing every result but the last to
   [teardown]; the last result and the median set-up time. *)
let repeat_setup ~repeats ~setup ~teardown =
  let times = Array.make repeats 0.0 in
  let rec go i =
    let state, dt = time setup in
    times.(i) <- dt;
    if i + 1 < repeats then begin
      teardown state;
      go (i + 1)
    end
    else state
  in
  let state = go 0 in
  (state, median times)
