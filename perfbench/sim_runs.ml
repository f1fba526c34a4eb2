(* The two simulated workloads.

   Untraced, the benchmark calls [Harness.run] / [Shard.run] as a black
   box.  Traced, it rebuilds the same run from the harness's public
   parts ([Harness.make_wired], [Workload], [Lin_check], [Engine], [Net])
   with a wire hook that sends every cross-replica message through
   [Wire] encode, [Framing] and decode before [Net.send], and times each
   call.  The rebuilt run must reproduce the black-box run byte for
   byte, which both validates the trace and proves the codec lossless
   on real protocol traffic. *)

module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module Types = Raftpax_consensus.Types
module Harness = Raftpax_kvstore.Harness
module Workload = Raftpax_kvstore.Workload
module Lin_check = Raftpax_kvstore.Lin_check
module Shard = Raftpax_kvstore.Shard
module Telemetry = Raftpax_telemetry.Telemetry
module Metrics = Raftpax_telemetry.Metrics
module Wire = Raftpax_netcore.Wire
module Framing = Raftpax_netcore.Framing

(* ---- workload definitions ---- *)

let duration_s = 20
let warmup_s = 2
let cooldown_s = 2

(* lease-reads: the paper's Fig. 9 workload on one Raft*-PQL group. *)
let lease_cfg ~seed ~telemetry =
  Harness.config ~duration_s ~warmup_s ~cooldown_s ~seed:(Int64.of_int seed)
    ~telemetry Harness.Raft_pql Workload.default

(* sharded-writes: three groups cycling the three runtime families,
   write-heavy 4 KB values, batching on. *)
let shard_spec = { Workload.default with read_fraction = 0.1; value_size = 4096 }
let shard_protocols = [ Harness.Raft_star; Harness.Mencius; Harness.Multipaxos ]

let shard_cfg ~seed ~telemetry =
  Shard.config ~protocols:shard_protocols ~placement:Shard.Nearest_majority
    ~duration_s ~warmup_s ~cooldown_s ~seed:(Int64.of_int seed) ~telemetry
    ~batch_size:16 ~batch_delay_us:2_000 ~shards:3 shard_spec

let regions = List.length Topology.sites
let wan_nodes () = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites

(* ---- set-up: everything before the first client operation ---- *)

let setup_lease ~seed =
  let cfg = lease_cfg ~seed ~telemetry:false in
  let engine = Engine.create ~seed:cfg.Harness.seed () in
  let net = Net.create engine ~nodes:(wan_nodes ()) in
  let leader = Topology.site_index cfg.Harness.leader_site in
  ignore (Harness.make_instance cfg.Harness.protocol net ~leader);
  ignore (Workload.create ~seed:cfg.Harness.seed ~regions cfg.Harness.workload)

let setup_shard ~seed =
  let cfg = shard_cfg ~seed ~telemetry:false in
  let engine = Engine.create ~seed:cfg.Shard.seed () in
  let sites = Shard.leader_sites cfg.Shard.placement ~shards:cfg.Shard.shards in
  for g = 0 to cfg.Shard.shards - 1 do
    let net = Net.create engine ~nodes:(wan_nodes ()) in
    ignore
      (Harness.make_instance ~batch_size:cfg.Shard.batch_size
         ~batch_delay_us:cfg.Shard.batch_delay_us (Shard.group_protocol cfg g)
         net ~leader:(Topology.site_index sites.(g)))
  done;
  ignore (Workload.create ~seed:cfg.Shard.seed ~regions cfg.Shard.workload)

(* ---- telemetry readings (after any snapshot comparison: fetching a
   histogram registers it) ---- *)

let counter_sum (tel : Telemetry.t) name =
  let m = tel.Telemetry.metrics in
  let s = ref 0 in
  for node = 0 to regions - 1 do
    s := !s + Metrics.counter_value m name ~node
  done;
  !s

let hist_q (tel : Telemetry.t) name ~node q =
  Metrics.quantile (Metrics.histogram tel.Telemetry.metrics name ~node) q

let hist_count_sum (tel : Telemetry.t) name =
  let m = tel.Telemetry.metrics in
  let c = ref 0 and s = ref 0 in
  for node = 0 to regions - 1 do
    let h = Metrics.histogram m name ~node in
    c := !c + Metrics.hist_count h;
    s := !s + Metrics.hist_sum h
  done;
  (!c, !s)

(* ---- canonical digests for the fidelity check ---- *)

let stats_digest name st =
  Printf.sprintf "%s n=%d p0=%d p50=%d p90=%d p99=%d p999=%d p100=%d mean=%.6f\n"
    name (Stats.count st) (Stats.min_us st) (Stats.percentile_us st 0.50)
    (Stats.percentile_us st 0.90) (Stats.percentile_us st 0.99)
    (Stats.percentile_us st 0.999) (Stats.max_us st) (Stats.mean_us st)

let harness_digest (r : Harness.result) =
  String.concat ""
    [
      Printf.sprintf "tput=%.6f retries=%d violations=%d messages=%d events=%d bytes=%s\n"
        r.Harness.throughput_ops r.Harness.retries r.Harness.consistency_violations
        r.Harness.messages r.Harness.sim_events
        (String.concat "," (Array.to_list (Array.map string_of_int r.Harness.bytes_by_node)));
      stats_digest "read_leader" r.Harness.read_leader;
      stats_digest "read_follower" r.Harness.read_follower;
      stats_digest "write_leader" r.Harness.write_leader;
      stats_digest "write_follower" r.Harness.write_follower;
      (match r.Harness.telemetry with
      | Some tel -> Telemetry.snapshot_string tel
      | None -> "no telemetry\n");
    ]

let shard_digest cfg (r : Shard.result) =
  String.concat ""
    (Shard.snapshot_string cfg r
    :: List.concat_map
         (fun (g : Shard.group_result) ->
           [ stats_digest "read" g.Shard.g_read; stats_digest "write" g.Shard.g_write ])
         (Array.to_list r.Shard.groups))

(* ---- the traced rebuild ---- *)

let l_engine = Layers.make "engine"
let l_submit = Layers.make "consensus.submit"
let l_deliver = Layers.make "consensus.deliver"
let l_next_op = Layers.make "workload.next_op"
let l_encode = Layers.make "wire.encode"
let l_decode = Layers.make "wire.decode"
let l_framing = Layers.make "framing"
let l_net_send = Layers.make "net.send"
let l_lin_check = Layers.make "lin_check"
let l_setup = Layers.make "setup"

type codec_tally = { mutable msgs : int; mutable bytes : int }

let codec = { msgs = 0; bytes = 0 }

(* The wire hook: every cross-replica message goes through the real
   codec and framing, then onto the simulated network with the size the
   runtime declared, and is injected at the destination with
   [w_deliver] — exactly what the runtime's own send does. *)
let wire_hook net (w : Harness.wired) =
  let reasm = Framing.reassembler () in
  fun ~src ~dst ~size msg ->
    let payload =
      Layers.time l_encode (fun () -> Wire.encode_frame (Wire.Peer_msg { src; dst; msg }))
    in
    let framed = Layers.time l_framing (fun () -> Framing.encode payload) in
    codec.msgs <- codec.msgs + 1;
    codec.bytes <- codec.bytes + String.length framed;
    let decoded =
      match Layers.time l_framing (fun () -> Framing.feed reasm framed) with
      | Ok [ p ] -> (
          match Layers.time l_decode (fun () -> Wire.decode_frame p) with
          | Ok (Wire.Peer_msg { src = s; dst = d; msg }) when s = src && d = dst -> msg
          | Ok _ -> failwith "wire hook: decoded a different frame"
          | Error _ -> failwith "wire hook: frame failed to decode")
      | Ok _ -> failwith "wire hook: framing did not return exactly one frame"
      | Error _ -> failwith "wire hook: framing rejected the frame"
    in
    Layers.time l_net_send (fun () ->
        Net.send net ~src ~dst ~size (fun () ->
            Layers.time l_deliver (fun () -> w.Harness.w_deliver ~node:dst decoded)))

let make_traced ?telemetry ?batch_size ?batch_delay_us protocol net ~leader =
  let w =
    Layers.time l_setup (fun () ->
        Harness.make_wired ?telemetry ?batch_size ?batch_delay_us protocol net ~leader)
  in
  w.Harness.w_set_wire (Some (wire_hook net w));
  w

let retry_timeout_us = 20_000_000

type client = {
  region : int;
  mutable cur_op : Types.op;
  mutable started_us : int;
  mutable gen : int;
  mutable waiting : bool;
  mutable wd_pending : bool;
}

(* [Harness.run] rebuilt call for call (same engine, RNG draws and event
   order), with the calls into each layer timed. *)
let traced_harness (cfg : Harness.config) =
  let engine = Engine.create ~seed:cfg.Harness.seed () in
  let net = Net.create engine ~nodes:(wan_nodes ()) in
  let leader = Topology.site_index cfg.Harness.leader_site in
  let tel = Telemetry.create ~tracing:false ~n:regions () in
  Net.set_metrics net tel.Telemetry.metrics;
  let w =
    make_traced ~telemetry:tel ~batch_size:cfg.Harness.batch_size
      ~batch_delay_us:cfg.Harness.batch_delay_us cfg.Harness.protocol net ~leader
  in
  let inst = w.Harness.w_instance in
  let wl = Workload.create ~seed:cfg.Harness.seed ~regions cfg.Harness.workload in
  let read_leader = Stats.create ()
  and read_follower = Stats.create ()
  and write_leader = Stats.create ()
  and write_follower = Stats.create () in
  let retries = ref 0 in
  let events = ref [] in
  let end_us = cfg.Harness.duration_s * 1_000_000 in
  let rec client_loop c () =
    if Engine.now engine < end_us then begin
      let op = Layers.time l_next_op (fun () -> Workload.next_op wl ~region:c.region) in
      attempt c op
    end
  and arm_watchdog c =
    c.wd_pending <- true;
    let delay = c.started_us + retry_timeout_us - Engine.now engine in
    Engine.schedule engine ~delay (fun () -> watchdog_fire c)
  and watchdog_fire c =
    c.wd_pending <- false;
    if c.waiting then
      if Engine.now engine >= c.started_us + retry_timeout_us then begin
        c.waiting <- false;
        incr retries;
        if Engine.now engine < end_us then attempt c c.cur_op
      end
      else arm_watchdog c
  and attempt c op =
    c.cur_op <- op;
    c.started_us <- Engine.now engine;
    c.gen <- c.gen + 1;
    c.waiting <- true;
    if not c.wd_pending then arm_watchdog c;
    let gen = c.gen in
    let started = c.started_us in
    ignore
      (Layers.time l_submit (fun () ->
           inst.Harness.submit ~node:c.region op (fun reply ->
               if c.waiting && c.gen = gen then begin
                 c.waiting <- false;
                 let now = Engine.now engine in
                 let latency = now - started in
                 let at_leader = c.region = leader in
                 (match op with
                 | Types.Get { key } ->
                     Stats.record
                       (if at_leader then read_leader else read_follower)
                       ~latency_us:latency ~at_us:now;
                     events :=
                       Lin_check.Read { key; started_us = started; returned = reply.Types.value }
                       :: !events
                 | Types.Put { write_id; key; _ } ->
                     Stats.record
                       (if at_leader then write_leader else write_follower)
                       ~latency_us:latency ~at_us:now;
                     events := Lin_check.Write_complete { write_id; key; at_us = now } :: !events);
                 client_loop c ()
               end)))
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.Harness.workload.Workload.clients_per_region do
      let c =
        {
          region;
          cur_op = Types.Get { key = 0 };
          started_us = 0;
          gen = 0;
          waiting = false;
          wd_pending = false;
        }
      in
      let jitter = Sim.Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop c)
    done
  done;
  Layers.time l_engine (fun () -> Engine.run engine ~until:end_us);
  let sim_events = Engine.events_executed engine in
  let committed_order = inst.Harness.committed_ops ~node:leader in
  let check =
    Layers.time l_lin_check (fun () -> Lin_check.check ~committed_order !events)
  in
  let violations = if committed_order = [] then 0 else List.length check.Lin_check.violations in
  let from_us = cfg.Harness.warmup_s * 1_000_000 in
  let until_us = (cfg.Harness.duration_s - cfg.Harness.cooldown_s) * 1_000_000 in
  let all = Stats.merge [ read_leader; read_follower; write_leader; write_follower ] in
  let r =
    {
      Harness.throughput_ops = Stats.throughput_ops all ~from_us ~until_us;
      read_leader;
      read_follower;
      write_leader;
      write_follower;
      retries = !retries;
      consistency_violations = violations;
      messages = Net.sent_count net;
      bytes_by_node = Array.init regions (fun n -> Net.bytes_sent net n);
      telemetry = Some tel;
      requests = [];
      sim_events;
      minor_words = 0.0;
    }
  in
  (r, check.Lin_check.reads_checked)

type group_run = {
  inst : Harness.instance;
  net : Net.t;
  tel : Telemetry.t;
  leader : int;
  leader_site : Topology.site;
  protocol : Harness.protocol;
  read_stats : Stats.t;
  write_stats : Stats.t;
  mutable ops : int;
  mutable g_retries : int;
}

(* [Shard.run] rebuilt the same way; every group's network gets its own
   wire hook. *)
let traced_shard (cfg : Shard.config) =
  let engine = Engine.create ~seed:cfg.Shard.seed () in
  let sites = Shard.leader_sites cfg.Shard.placement ~shards:cfg.Shard.shards in
  let mk g =
    let net = Net.create engine ~nodes:(wan_nodes ()) in
    let tel = Telemetry.create ~n:regions () in
    Net.set_metrics net tel.Telemetry.metrics;
    let leader = Topology.site_index sites.(g) in
    let w =
      make_traced ~telemetry:tel ~batch_size:cfg.Shard.batch_size
        ~batch_delay_us:cfg.Shard.batch_delay_us (Shard.group_protocol cfg g) net ~leader
    in
    {
      inst = w.Harness.w_instance;
      net;
      tel;
      leader;
      leader_site = sites.(g);
      protocol = Shard.group_protocol cfg g;
      read_stats = Stats.create ();
      write_stats = Stats.create ();
      ops = 0;
      g_retries = 0;
    }
  in
  let rec build g = if g = cfg.Shard.shards then [] else mk g :: build (g + 1) in
  let groups = Array.of_list (build 0) in
  let group_of_key key = Workload.group_of_key ~shards:cfg.Shard.shards key in
  let wl = Workload.create ~seed:cfg.Shard.seed ~regions cfg.Shard.workload in
  let events = ref [] in
  let end_us = cfg.Shard.duration_s * 1_000_000 in
  let rec client_loop region () =
    if Engine.now engine < end_us then begin
      let op = Layers.time l_next_op (fun () -> Workload.next_op wl ~region) in
      attempt region op
    end
  and attempt region op =
    let g = groups.(group_of_key (Types.key_of op)) in
    let started = Engine.now engine in
    let finished = ref false in
    let timeout =
      Engine.schedule_cancellable engine ~delay:retry_timeout_us (fun () ->
          if not !finished then begin
            finished := true;
            g.g_retries <- g.g_retries + 1;
            if Engine.now engine < end_us then attempt region op
          end)
    in
    ignore
      (Layers.time l_submit (fun () ->
           g.inst.Harness.submit ~node:region op (fun reply ->
               if not !finished then begin
                 finished := true;
                 Engine.cancel timeout;
                 let now = Engine.now engine in
                 let latency = now - started in
                 g.ops <- g.ops + 1;
                 (match op with
                 | Types.Get { key } ->
                     Stats.record g.read_stats ~latency_us:latency ~at_us:now;
                     events :=
                       Lin_check.Read { key; started_us = started; returned = reply.Types.value }
                       :: !events
                 | Types.Put { write_id; key; _ } ->
                     Stats.record g.write_stats ~latency_us:latency ~at_us:now;
                     events := Lin_check.Write_complete { write_id; key; at_us = now } :: !events);
                 client_loop region ()
               end)))
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.Shard.workload.Workload.clients_per_region do
      let jitter = Sim.Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop region)
    done
  done;
  Layers.time l_engine (fun () -> Engine.run engine ~until:end_us);
  let sim_events = Engine.events_executed engine in
  let committed_orders =
    Array.map (fun g -> g.inst.Harness.committed_ops ~node:g.leader) groups
  in
  let checks =
    Layers.time l_lin_check (fun () ->
        Lin_check.check_sharded ~committed_orders ~group_of_key (List.rev !events))
  in
  let from_us = cfg.Shard.warmup_s * 1_000_000 in
  let until_us = (cfg.Shard.duration_s - cfg.Shard.cooldown_s) * 1_000_000 in
  let group_results =
    Array.mapi
      (fun i g ->
        let stats = Stats.merge [ g.read_stats; g.write_stats ] in
        {
          Shard.g_protocol = g.protocol;
          g_leader_site = g.leader_site;
          g_ops = g.ops;
          g_throughput_ops = Stats.throughput_ops stats ~from_us ~until_us;
          g_read = g.read_stats;
          g_write = g.write_stats;
          g_retries = g.g_retries;
          g_reads_checked = checks.(i).Lin_check.reads_checked;
          g_violations = List.length checks.(i).Lin_check.violations;
          g_committed = List.length committed_orders.(i);
          g_messages = Net.sent_count g.net;
          g_telemetry = Some g.tel;
        })
      groups
  in
  let all =
    Stats.merge
      (Array.to_list groups |> List.concat_map (fun g -> [ g.read_stats; g.write_stats ]))
  in
  let sum f = Array.fold_left (fun acc g -> acc + f g) 0 group_results in
  let r =
    {
      Shard.throughput_ops = Stats.throughput_ops all ~from_us ~until_us;
      retries = sum (fun g -> g.Shard.g_retries);
      reads_checked = sum (fun g -> g.Shard.g_reads_checked);
      violations = sum (fun g -> g.Shard.g_violations);
      messages = sum (fun g -> g.Shard.g_messages);
      groups = group_results;
    }
  in
  let nets = Array.map (fun g -> g.net) groups in
  (r, sim_events, nets)
