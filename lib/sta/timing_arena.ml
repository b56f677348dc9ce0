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

(* One sealed level: every stage's output waveform as a packed block in
   one slab, [bounds.(i) .. bounds.(i+1)] the float range of the level's
   i-th stage (5 floats per piece). *)
type pack = { slab : Vec.t; bounds : int array }

type t = {
  (* one slot per stage, written only by the domain that solved it *)
  mutable timings : timing option array;
  mutable outputs : Waveform.quadratic option array;
  mutable packs : pack array option;
}

let create n = { timings = Array.make n None; outputs = Array.make n None; packs = None }

let length t = Array.length t.timings

let resize t n =
  let grow a = Array.append a (Array.make (n - Array.length a) None) in
  if n > length t then begin
    t.timings <- grow t.timings;
    t.outputs <- grow t.outputs
  end

let copy t = { t with timings = Array.copy t.timings; outputs = Array.copy t.outputs }

let store t id timing output =
  t.timings.(id) <- Some timing;
  t.outputs.(id) <- Some output

let timing t id = t.timings.(id)

let seal t (frozen : Timing_graph.frozen) =
  let pack_level stages =
    let w = Array.length stages in
    let bounds = Array.make (w + 1) 0 in
    for i = 0 to w - 1 do
      let sz =
        match t.outputs.(stages.(i)) with
        | Some q -> Waveform.packed_size q
        | None -> 0
      in
      bounds.(i + 1) <- bounds.(i) + sz
    done;
    let slab = Vec.create bounds.(w) in
    Array.iteri
      (fun i id ->
        match t.outputs.(id) with
        | Some q -> Waveform.blit_packed q slab ~pos:bounds.(i)
        | None -> ())
      stages;
    (* repoint each stage at its packed zero-copy view, so later reads
       touch the contiguous level slab instead of scattered report
       slabs *)
    Array.iteri
      (fun i id ->
        let len = (bounds.(i + 1) - bounds.(i)) / 5 in
        if len > 0 then
          t.outputs.(id) <- Some (Waveform.of_packed slab ~pos:bounds.(i) ~len))
      stages;
    { slab; bounds }
  in
  t.packs <- Some (Array.map pack_level frozen.Timing_graph.levels)

let output t id = t.outputs.(id)

let level_digest t k =
  let packs =
    match t.packs with
    | Some p -> p
    | None -> invalid_arg "Timing_arena: not sealed"
  in
  if k < 0 || k >= Array.length packs then
    invalid_arg "Timing_arena.level_digest: unknown level";
  let p = packs.(k) in
  let n = p.bounds.(Array.length p.bounds - 1) in
  let b = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.bits_of_float p.slab.{i})
  done;
  Digest.bytes b
