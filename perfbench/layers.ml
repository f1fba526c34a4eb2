(* Per-layer timing for traced runs.

   Every call the benchmark makes into a layer is wrapped in [time].  A
   stack of open calls lets each layer's self time exclude the timed
   calls nested inside it (a protocol handler that sends through the
   wire hook, which in turn encodes and frames), so the self times of
   all layers plus the time no timed call covers add up to the traced
   wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
}

let registry : layer list ref = ref []

let make name =
  let l = { name; calls = 0; total_ns = 0; self_ns = 0 } in
  registry := l :: !registry;
  l

(* [covered.(d)]: nanoseconds spent in timed calls opened directly at
   depth [d]; depth 0 is outside every timed call. *)
let max_depth = 64
let covered = Array.make (max_depth + 1) 0
let depth = ref 0

let time l f =
  let d = !depth in
  if d >= max_depth then failwith "Layers.time: nesting too deep";
  covered.(d + 1) <- 0;
  depth := d + 1;
  let t0 = now_ns () in
  let finish () =
    let dt = now_ns () - t0 in
    depth := d;
    l.calls <- l.calls + 1;
    l.total_ns <- l.total_ns + dt;
    l.self_ns <- l.self_ns + dt - covered.(d + 1);
    covered.(d) <- covered.(d) + dt
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let reset () =
  List.iter
    (fun l ->
      l.calls <- 0;
      l.total_ns <- 0;
      l.self_ns <- 0)
    !registry;
  depth := 0;
  covered.(0) <- 0

(* Wall time of the traced window that no timed call covers. *)
let unattributed_ns ~wall_ns = wall_ns - covered.(0)

(* Each layer's self time as a share of the traced wall time, plus the
   unattributed remainder; the shares sum to 1. *)
let self_shares ~wall_ns =
  let share ns = float ns /. float wall_ns in
  List.filter_map
    (fun l -> if l.calls = 0 then None else Some (l.name, share l.self_ns))
    (List.rev !registry)
  @ [ ("unattributed", share (wall_ns - covered.(0))) ]

let self_sum_ns () = List.fold_left (fun acc l -> acc + l.self_ns) 0 !registry
let per_call_ns l = if l.calls = 0 then 0.0 else float l.total_ns /. float l.calls
let seconds ns = float ns /. 1e9
