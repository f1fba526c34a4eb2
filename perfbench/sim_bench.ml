(* Drivers for the two simulated workloads: [lease-reads] and
   [sharded-writes].  Both are closed loop with virtual clients inside
   this single-threaded process; every number on the simulated clock
   repeats exactly for a given seed. *)

open Sim_runs

let setup_reps = 101
let min_timed_reps = 3

let time_s = Report.time_s
let gate = Report.gate

(* Median wall time of [setup_reps] set-ups. *)
let setup_s setup =
  Report.median (List.init setup_reps (fun _ -> snd (time_s setup)))

(* Run the fixed work until [seconds] have passed (at least
   [min_timed_reps] times); every repetition must reproduce the first
   one's [digest].  Returns the first result, the peak heap after it
   (a fixed amount of work, so it does not depend on the repetition
   count), the per-repetition wall times, and whether all repetitions
   agreed. *)
let timed_reps ~seconds ~digest run =
  let t_start = Layers.now_ns () in
  let first, dt = time_s run in
  let heap = Report.peak_heap_mb () in
  let d0 = digest first in
  let rec go times agreed =
    let elapsed = Layers.seconds (Layers.now_ns () - t_start) in
    if List.length times >= min_timed_reps && elapsed >= float seconds then
      (List.rev times, agreed)
    else
      let r, dt = time_s run in
      go (dt :: times) (agreed && String.equal (digest r) d0)
  in
  let times, agreed = go [ dt ] true in
  (first, heap, times, agreed)

let ms us = float us /. 1000.0

let pooled_percentiles stats =
  let all = Stats.merge stats in
  (ms (Stats.percentile_us all 0.50), ms (Stats.percentile_us all 0.99))

let fidelity what a b =
  if String.equal a b then true
  else begin
    prerr_endline ("perfbench: traced " ^ what ^ " differs from the untraced run");
    prerr_endline ("--- untraced\n" ^ a ^ "--- traced\n" ^ b);
    false
  end

let clients_info spec =
  [
    ("loop", Report.json_string "closed");
    ("clients", string_of_int (spec.Workload.clients_per_region * regions));
    ("sim_duration_s", string_of_int duration_s);
  ]

(* A run's results, reduced to what the metrics and gates read; both
   sim workloads map their result type onto it. *)
type summary = {
  digest : string;  (** canonical rendering, telemetry included *)
  core_digest : string;  (** the same without the telemetry registries *)
  ops : int;
  retries : int;
  violations : int;
  throughput : float;  (** completed ops per simulated second *)
  read_stats : Stats.t list;
  write_stats : Stats.t list;
  tels : Telemetry.t list;  (** one registry per group, when enabled *)
  leaders : int list;  (** each group's leader replica *)
}

(* What only the traced rebuild knows. *)
type extra = { messages : int; bytes : int; sim_events : int; reads_checked : int }

let elections s = List.fold_left (fun acc t -> acc + counter_sum t "elections") 0 s.tels

let gates s =
  gate "no lin-check violation in any group" (s.violations = 0)
  && gate "no retry in a steady run" (s.retries = 0)
  && gate "no election in a steady run" (elections s = 0)

let count stats = List.fold_left (fun acc st -> acc + Stats.count st) 0 stats

let layer_values s x (t : Report.traced) ~ref_wall_s =
  let wall_ns = t.Report.wall_ns in
  let fops = float (max 1 s.ops) in
  let sum name = List.fold_left (fun acc t -> acc + counter_sum t name) 0 s.tels in
  let max_q name q =
    List.fold_left
      (fun acc t ->
        List.fold_left (fun acc node -> max acc (hist_q t name ~node q)) acc
          (List.init regions Fun.id))
      0 s.tels
  in
  let flushes, flushed =
    List.fold_left
      (fun (c, n) t ->
        let c', n' = hist_count_sum t "batch_flush_cmds" in
        (c + c', n + n'))
      (0, 0) s.tels
  in
  let leader_util =
    List.fold_left2
      (fun acc t leader ->
        Float.max acc
          (float (Metrics.counter_value t.Telemetry.metrics "cpu_busy_us" ~node:leader)
          /. float (duration_s * 1_000_000)))
      0.0 s.tels s.leaders
  in
  let pct stats p = ms (Stats.percentile_us (Stats.merge stats) p) in
  let pc = Layers.per_call_ns in
  let wall_s = Layers.seconds wall_ns in
  [
    ("engine.events_per_op", float x.sim_events /. fops);
    ( "engine.events_per_s",
      Report.ratio (float x.sim_events) (Layers.seconds l_engine.Layers.total_ns) );
    ("engine.self_s", Layers.seconds l_engine.Layers.self_ns);
    ("net.msgs_per_op", float x.messages /. fops);
    ("net.bytes_per_op", float x.bytes /. fops);
    ("net.send_ns", pc l_net_send);
    ("net.uplink_wait_p99_ms", ms (max_q "net_queue_us" 0.99));
    ("cpu.leader_util", leader_util);
    ("cpu.queue_wait_p99_ms", ms (max_q "cpu_queue_us" 0.99));
    ("consensus.submit_ns", pc l_submit);
    ("consensus.deliver_ns", pc l_deliver);
    (* Unbatched runtimes never observe the histogram: one op per flush. *)
    ("consensus.ops_per_flush", if flushes = 0 then 1.0 else float flushed /. float flushes);
    ( "consensus.local_read_ratio",
      Report.ratio (float (sum "local_reads")) (float (count s.read_stats)) );
    ("consensus.lease_waits_per_op", float (sum "lease_waits") /. fops);
    ("consensus.retransmits_per_op", float (sum "retransmits") /. fops);
    ("consensus.elections", float (elections s));
    ("workload.next_op_ns", pc l_next_op);
    ("lin_check.s", Layers.seconds l_lin_check.Layers.total_ns);
    ("lin_check.reads_checked", float x.reads_checked);
    ("wire.encode_ns", pc l_encode);
    ("wire.decode_ns", pc l_decode);
    ("wire.bytes_per_msg", Report.ratio (float codec.bytes) (float codec.msgs));
    ("framing.frame_ns", Report.ratio (float l_framing.Layers.total_ns) (float codec.msgs));
    ("client.read_p50_ms", pct s.read_stats 0.50);
    ("client.read_p99_ms", pct s.read_stats 0.99);
    ("client.write_p50_ms", pct s.write_stats 0.50);
    ("client.write_p99_ms", pct s.write_stats 0.99);
    ("client.failed_ratio", float s.retries /. float (s.ops + s.retries));
    ("gc.minor_words_per_op", t.Report.minor_words /. fops);
    ("gc.major_collections", float t.Report.major_collections);
    ("trace.wall_s", wall_s);
    ("trace.unattributed_s", Layers.seconds (Layers.unattributed_ns ~wall_ns));
    ("trace.overhead_ratio", wall_s /. ref_wall_s);
  ]

(* [run ~telemetry] is the black-box run; [traced_run] the rebuild with
   telemetry on. *)
let run_workload ~setup ~run ~traced_run ~info ~seconds ~trace : Outcome.t =
  let outcome ?(extra_info = []) s ~correct values =
    {
      Outcome.correct;
      attempted = s.ops + s.retries;
      failed = s.retries + s.violations;
      values;
      info = info @ (("sim_ops", string_of_int s.ops) :: extra_info);
    }
  in
  if not trace then begin
    let setup = setup_s setup in
    let first, heap, times, agreed =
      timed_reps ~seconds ~digest:(fun s -> s.digest) (fun () -> run ~telemetry:false)
    in
    (* A telemetry-on run for the gates that need counters (elections);
       apart from its registries it must match the telemetry-off runs. *)
    let reference = run ~telemetry:true in
    let p50, p99 = pooled_percentiles (first.read_stats @ first.write_stats) in
    outcome first
      ~correct:
        (gates reference
        && gate "repetitions reproduce each other" agreed
        && fidelity "telemetry-off run" reference.core_digest first.core_digest)
      [
        ("setup_s", setup);
        ("run_s", Report.median times);
        ("ops_per_s", first.throughput);
        ("p50_ms", p50);
        ("p99_ms", p99);
        ("peak_heap_mb", heap);
      ]
  end
  else begin
    let reference, ref_wall_s = time_s (fun () -> run ~telemetry:true) in
    let (s, x), t = Report.traced traced_run in
    outcome s
      ~extra_info:[ Report.self_shares ~wall_ns:t.Report.wall_ns ]
      ~correct:
        (gates reference && gates s && fidelity "run" reference.digest s.digest && t.Report.sums)
      (layer_values s x t ~ref_wall_s)
  end

(* ---- lease-reads ---- *)

let harness_summary ~leader (r : Harness.result) =
  let read_stats = [ r.Harness.read_leader; r.Harness.read_follower ] in
  let write_stats = [ r.Harness.write_leader; r.Harness.write_follower ] in
  {
    digest = harness_digest r;
    core_digest = harness_digest { r with Harness.telemetry = None };
    ops = count (read_stats @ write_stats);
    retries = r.Harness.retries;
    violations = r.Harness.consistency_violations;
    throughput = r.Harness.throughput_ops;
    read_stats;
    write_stats;
    tels = Option.to_list r.Harness.telemetry;
    leaders = [ leader ];
  }

let lease_reads ~seed =
  let leader = Topology.site_index (lease_cfg ~seed ~telemetry:false).Harness.leader_site in
  run_workload
    ~setup:(fun () -> setup_lease ~seed)
    ~run:(fun ~telemetry -> harness_summary ~leader (Harness.run (lease_cfg ~seed ~telemetry)))
    ~traced_run:(fun () ->
      let r, reads_checked = traced_harness (lease_cfg ~seed ~telemetry:true) in
      ( harness_summary ~leader r,
        {
          messages = r.Harness.messages;
          bytes = Array.fold_left ( + ) 0 r.Harness.bytes_by_node;
          sim_events = r.Harness.sim_events;
          reads_checked;
        } ))
    ~info:(clients_info Workload.default)

(* ---- sharded-writes ---- *)

let shard_summary cfg (r : Shard.result) =
  let groups = Array.to_list r.Shard.groups in
  let stripped =
    { r with Shard.groups = Array.map (fun g -> { g with Shard.g_telemetry = None }) r.Shard.groups }
  in
  {
    digest = shard_digest cfg r;
    core_digest = shard_digest cfg stripped;
    ops = List.fold_left (fun acc g -> acc + g.Shard.g_ops) 0 groups;
    retries = r.Shard.retries;
    violations = r.Shard.violations;
    throughput = r.Shard.throughput_ops;
    read_stats = List.map (fun g -> g.Shard.g_read) groups;
    write_stats = List.map (fun g -> g.Shard.g_write) groups;
    tels = List.filter_map (fun g -> g.Shard.g_telemetry) groups;
    leaders = List.map (fun g -> Topology.site_index g.Shard.g_leader_site) groups;
  }

let sharded_writes ~seed =
  (* The snapshot's configuration line does not show the telemetry flag,
     so one config renders both kinds of run. *)
  let cfg = shard_cfg ~seed ~telemetry:true in
  run_workload
    ~setup:(fun () -> setup_shard ~seed)
    ~run:(fun ~telemetry -> shard_summary cfg (Shard.run (shard_cfg ~seed ~telemetry)))
    ~traced_run:(fun () ->
      let r, sim_events, nets = traced_shard cfg in
      let bytes net = List.fold_left ( + ) 0 (List.init regions (Net.bytes_sent net)) in
      ( shard_summary cfg r,
        {
          messages = r.Shard.messages;
          bytes = Array.fold_left (fun acc net -> acc + bytes net) 0 nets;
          sim_events;
          reads_checked = r.Shard.reads_checked;
        } ))
    ~info:(clients_info shard_spec @ [ ("groups", string_of_int cfg.Shard.shards) ])
