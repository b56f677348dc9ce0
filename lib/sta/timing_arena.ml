module Vec = Tqwm_num.Vec
module Waveform = Tqwm_wave.Waveform

type timing = {
  id : Timing_graph.stage_id;
  arrival_in : float;
  delay : float;
  slew : float;
  arrival_out : float;
  critical_fanin : Timing_graph.stage_id option;
}

type t = {
  (* one slot per stage, written only by the domain that solved it *)
  mutable timings : timing option array;
  mutable outputs : Waveform.quadratic option array;
}

let create n = { timings = Array.make n None; outputs = Array.make n None }

let length t = Array.length t.timings

let resize t n =
  let grow a = Array.append a (Array.make (n - Array.length a) None) in
  if n > length t then begin
    t.timings <- grow t.timings;
    t.outputs <- grow t.outputs
  end

let copy t = { timings = Array.copy t.timings; outputs = Array.copy t.outputs }

let store t id timing output =
  t.timings.(id) <- Some timing;
  t.outputs.(id) <- Some output

let timing t id = t.timings.(id)

let output t id = t.outputs.(id)

(* Each stored output in packed order (t0/dt/v0/dv/ddv columns), the
   level's stages back to back: the bytes a contiguous per-level slab of
   the outputs would hold, hashed as raw float64 bits. *)
let level_digest t (frozen : Timing_graph.frozen) k =
  let levels = frozen.Timing_graph.levels in
  if k < 0 || k >= Array.length levels then
    invalid_arg "Timing_arena.level_digest: unknown level";
  let outputs = List.filter_map (fun id -> t.outputs.(id)) (Array.to_list levels.(k)) in
  let n = List.fold_left (fun n q -> n + Waveform.packed_size q) 0 outputs in
  let slab = Vec.create n in
  ignore
    (List.fold_left
       (fun pos q ->
         Waveform.blit_packed q slab ~pos;
         pos + Waveform.packed_size q)
       0 outputs);
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.bits_of_float slab.{i})
  done;
  Digest.bytes b
