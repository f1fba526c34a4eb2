module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Rng = Sim.Rng
module Harness = Raftpax_kvstore.Harness

type ctx = {
  engine : Engine.t;
  net : Net.t;
  cluster : Harness.wired;
  rng : Rng.t;
  trace : Trace.t;
  down : bool array;
  mutable partition_active : bool;
  mutable chaos_active : bool;
  mutable skew_active : bool;
  mutable faults : int;
  mutable partition_gen : int;  (** heal-window generation counters *)
  mutable chaos_gen : int;
  mutable skew_gen : int;
}

let make_ctx engine net cluster ~rng ~trace =
  {
    engine;
    net;
    cluster;
    rng;
    trace;
    down = Array.make (Net.size net) false;
    partition_active = false;
    chaos_active = false;
    skew_active = false;
    faults = 0;
    partition_gen = 0;
    chaos_gen = 0;
    skew_gen = 0;
  }

type action = {
  name : string;
  weight : int;
  ready : ctx -> bool;
  fire : ctx -> unit;
}

let fault ctx desc =
  ctx.faults <- ctx.faults + 1;
  Trace.record ctx.trace ~now:(Engine.now ctx.engine) ("FAULT " ^ desc)

let note ctx desc =
  Trace.record ctx.trace ~now:(Engine.now ctx.engine) desc

let down_count ctx =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 ctx.down

(* Crashed replicas stay a strict minority so a majority can keep (or
   regain) progress. *)
let max_down ctx = (Net.size ctx.net - 1) / 2

let up_nodes ctx =
  List.filter
    (fun i -> not ctx.down.(i))
    (List.init (Net.size ctx.net) Fun.id)

let pick_list rng xs = List.nth xs (Rng.int rng (List.length xs))

let crash_node ctx node =
  ctx.down.(node) <- true;
  ctx.cluster.Harness.crash ~node;
  fault ctx (Printf.sprintf "crash node=%d" node)

let restart_node ctx node =
  ctx.down.(node) <- false;
  ctx.cluster.Harness.restart ~node;
  fault ctx (Printf.sprintf "restart node=%d" node)

let crash_random =
  {
    name = "crash";
    weight = 3;
    ready = (fun ctx -> down_count ctx < max_down ctx);
    fire = (fun ctx -> crash_node ctx (pick_list ctx.rng (up_nodes ctx)));
  }

let restart_random =
  {
    name = "restart";
    weight = 3;
    ready = (fun ctx -> down_count ctx > 0);
    fire =
      (fun ctx ->
        let downs =
          List.filter
            (fun i -> ctx.down.(i))
            (List.init (Net.size ctx.net) Fun.id)
        in
        restart_node ctx (pick_list ctx.rng downs));
  }

let crash_leader =
  {
    name = "crash-leader";
    weight = 2;
    ready =
      (fun ctx ->
        down_count ctx < max_down ctx
        &&
        match ctx.cluster.Harness.leader_hint () with
        | Some l -> not ctx.down.(l)
        | None -> false);
    fire =
      (fun ctx ->
        match ctx.cluster.Harness.leader_hint () with
        | Some l when not ctx.down.(l) -> crash_node ctx l
        | _ -> ());
  }

(* Fault windows heal themselves [2s, 6s) later.  Per-run generation
   counters (in ctx, so replays start from zero) guard against a stale
   scheduled heal closing a window that {!heal} already closed and a
   later action reopened. *)
let window_us rng = 2_000_000 + Rng.int rng 4_000_000

let close_partition ctx gen () =
  if ctx.partition_active && ctx.partition_gen = gen then begin
    Net.set_partition ctx.net None;
    ctx.partition_active <- false;
    note ctx "HEAL partition"
  end

let open_partition ctx desc cut =
  ctx.partition_gen <- ctx.partition_gen + 1;
  Net.set_partition ctx.net (Some cut);
  ctx.partition_active <- true;
  let span = window_us ctx.rng in
  fault ctx (Printf.sprintf "%s for %dus" desc span);
  Engine.schedule ~kind:Engine.Exact ctx.engine ~delay:span
    (close_partition ctx ctx.partition_gen)

let partition_symmetric =
  {
    name = "partition-sym";
    weight = 2;
    ready = (fun ctx -> not ctx.partition_active);
    fire =
      (fun ctx ->
        let n = Net.size ctx.net in
        (* a random minority side *)
        let side_size = 1 + Rng.int ctx.rng (max 1 ((n - 1) / 2)) in
        let order = Array.init n Fun.id in
        Rng.shuffle ctx.rng order;
        let side = Array.sub order 0 side_size in
        let in_side i = Array.exists (fun j -> j = i) side in
        let desc =
          Printf.sprintf "partition-sym side=[%s]"
            (String.concat ","
               (List.map string_of_int (Array.to_list side |> List.sort Int.compare)))
        in
        open_partition ctx desc (fun a b -> in_side a <> in_side b));
  }

let partition_asymmetric =
  {
    name = "partition-asym";
    weight = 2;
    ready = (fun ctx -> not ctx.partition_active);
    fire =
      (fun ctx ->
        let node = Rng.int ctx.rng (Net.size ctx.net) in
        open_partition ctx
          (Printf.sprintf "partition-asym mute=%d" node)
          (fun a b -> a = node && b <> node));
  }

let message_chaos =
  {
    name = "message-chaos";
    weight = 2;
    ready = (fun ctx -> not ctx.chaos_active);
    fire =
      (fun ctx ->
        let chaos =
          {
            Net.delay_us = 5_000 + Rng.int ctx.rng 150_000;
            dup_probability = 0.05 +. (0.2 *. Rng.float ctx.rng 1.0);
            drop_probability = 0.1 *. Rng.float ctx.rng 1.0;
            (* FIFO-violating reorder only against protocols that don't
               assume FIFO channels (see {!Harness.wired.fifo_required}). *)
            reorder =
              Rng.bool ctx.rng 0.5
              && not ctx.cluster.Harness.fifo_required;
          }
        in
        ctx.chaos_gen <- ctx.chaos_gen + 1;
        let gen = ctx.chaos_gen in
        Net.set_chaos ctx.net (Some chaos);
        ctx.chaos_active <- true;
        let span = window_us ctx.rng in
        fault ctx
          (Printf.sprintf
             "message-chaos delay<%dus dup=%.2f drop=%.2f reorder=%b for %dus"
             chaos.Net.delay_us chaos.Net.dup_probability
             chaos.Net.drop_probability chaos.Net.reorder span);
        Engine.schedule ~kind:Engine.Exact ctx.engine ~delay:span (fun () ->
            if ctx.chaos_active && ctx.chaos_gen = gen then begin
              Net.set_chaos ctx.net None;
              ctx.chaos_active <- false;
              note ctx "HEAL message-chaos"
            end));
  }

let clock_skew =
  {
    name = "clock-skew";
    weight = 1;
    ready = (fun ctx -> not ctx.skew_active);
    fire =
      (fun ctx ->
        (* A dedicated stream keeps the warp deterministic regardless of
           how many timers fire inside the window. *)
        let skew_rng = Rng.split ctx.rng in
        Engine.set_timer_skew ctx.engine
          (Some (fun d -> d * (700 + Rng.int skew_rng 900) / 1000));
        ctx.skew_gen <- ctx.skew_gen + 1;
        let gen = ctx.skew_gen in
        ctx.skew_active <- true;
        let span = window_us ctx.rng in
        fault ctx (Printf.sprintf "clock-skew 0.7x-1.6x for %dus" span);
        Engine.schedule ~kind:Engine.Exact ctx.engine ~delay:span (fun () ->
            if ctx.skew_active && ctx.skew_gen = gen then begin
              Engine.set_timer_skew ctx.engine None;
              ctx.skew_active <- false;
              note ctx "HEAL clock-skew"
            end));
  }

let default =
  [
    crash_random;
    restart_random;
    crash_leader;
    partition_symmetric;
    partition_asymmetric;
    message_chaos;
    clock_skew;
  ]

let crashes_only = [ crash_random; restart_random; crash_leader ]

let step ctx actions =
  let ready = List.filter (fun a -> a.ready ctx) actions in
  match ready with
  | [] -> ()
  | _ ->
      let total = List.fold_left (fun acc a -> acc + a.weight) 0 ready in
      let roll = Rng.int ctx.rng total in
      let rec pick acc = function
        | [] -> assert false
        | [ a ] -> a
        | a :: rest -> if roll < acc + a.weight then a else pick (acc + a.weight) rest
      in
      (pick 0 ready).fire ctx

let heal ctx =
  if ctx.partition_active then begin
    Net.set_partition ctx.net None;
    ctx.partition_active <- false
  end;
  if ctx.chaos_active then begin
    Net.set_chaos ctx.net None;
    ctx.chaos_active <- false
  end;
  if ctx.skew_active then begin
    Engine.set_timer_skew ctx.engine None;
    ctx.skew_active <- false
  end;
  for node = 0 to Net.size ctx.net - 1 do
    if ctx.down.(node) then begin
      ctx.down.(node) <- false;
      ctx.cluster.Harness.restart ~node
    end
  done;
  note ctx "HEAL all"
