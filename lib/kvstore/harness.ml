module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Stats = Sim.Stats
module C = Raftpax_consensus
module Types = C.Types
module Telemetry = Raftpax_telemetry.Telemetry
module Wire = Raftpax_netcore.Wire

type protocol =
  | Raft
  | Raft_star
  | Raft_ll
      [@lint.allow
        "scenario-parity"
        "leader-lease local reads under the nemesis clock-skew adversary \
         need lease-aware linearizability accounting first; tracked on the \
         ROADMAP as the Raft-LL lease scope"]
  | Raft_pql
  | Mencius
  | Multipaxos

(* The one spelling table: the display name, then the CLI spellings
   (canonical first). *)
let spellings =
  [
    (Raft, "Raft", [ "raft" ]);
    (Raft_star, "Raft*", [ "raft-star" ]);
    (Raft_ll, "Raft*-LL", [ "raft-ll" ]);
    (Raft_pql, "Raft*-PQL", [ "raft-pql"; "pql" ]);
    (Mencius, "Raft*-Mencius", [ "mencius" ]);
    (Multipaxos, "MultiPaxos", [ "multipaxos" ]);
  ]

let all_protocols = List.map (fun (p, _, _) -> p) spellings
let chaos_protocols = [ Raft; Raft_star; Raft_pql; Mencius; Multipaxos ]
let spelling p = List.find (fun (q, _, _) -> q = p) spellings
let protocol_name p = match spelling p with _, name, _ -> name
let cli_name p = match spelling p with _, _, cli -> List.hd cli

let protocol_of_name s =
  let s = String.lowercase_ascii s in
  List.find_map
    (fun (p, name, cli) ->
      if s = String.lowercase_ascii name || List.mem s cli then Some p
      else None)
    spellings

type config = {
  protocol : protocol;
  leader_site : Topology.site;
  workload : Workload.spec;
  duration_s : int;
  warmup_s : int;
  cooldown_s : int;
  seed : int64;
  telemetry : bool;
  tracing : bool;
  batch_size : int;
  batch_delay_us : int;
}

let config ?(leader_site = Topology.Oregon) ?(duration_s = 10) ?(warmup_s = 2)
    ?(cooldown_s = 2) ?(seed = 1L) ?(telemetry = false) ?(tracing = false)
    ?(batch_size = 1) ?(batch_delay_us = 0) protocol workload =
  {
    protocol;
    leader_site;
    workload;
    duration_s;
    warmup_s;
    cooldown_s;
    seed;
    telemetry;
    tracing;
    batch_size;
    batch_delay_us;
  }

type request = {
  trace : int;
  region : int;
  is_read : bool;
  started_us : int;
  latency_us : int;
}

type result = {
  throughput_ops : float;
  read_leader : Stats.t;
  read_follower : Stats.t;
  write_leader : Stats.t;
  write_follower : Stats.t;
  retries : int;
  consistency_violations : int;
  messages : int;
  bytes_by_node : int array;
  telemetry : Telemetry.t option;
  requests : request list;
  sim_events : int;
  minor_words : float;
}

(* A protocol instance reduced to what the clients need.  [submit] returns
   the command id — the span trace id when tracing is on. *)
type instance = {
  submit : node:int -> Types.op -> (Types.reply -> unit) -> int;
  committed_ops : node:int -> Types.op list;
}

(* A running replica set: the client-facing [instance], the network
   shell's transport hooks and the nemesis / model-checker controls. *)
type wired = {
  w_instance : instance;
  w_set_wire :
    (src:int -> dst:int -> size:int -> Wire.protocol_msg -> unit) option ->
    unit;
  w_deliver : node:int -> Wire.protocol_msg -> unit;
  w_set_cmd_ids : base:int -> stride:int -> unit;
  fifo_required : bool;
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
  digest : node:int -> string;
  dump : node:int -> string;
  state : rename:(int -> int) -> node:int -> string;
  mono : node:int -> int array;
  invariant : unit -> string option;
  raft_peek : (node:int -> C.Raft.peek) option;
}

(* The one generic constructor: configure, create and start any
   {!C.Replica.S} runtime and reduce it to [wired].  [wrap] / [unwrap]
   move its messages in and out of the {!Wire.protocol_msg} envelope. *)
let of_replica (type c m t)
    (module R : C.Replica.S
      with type config = c
       and type msg = m
       and type t = t) ?peek ~wrap ~unwrap ?telemetry ~batched ?override
    ~leader (cfg : c) net =
  let o =
    match override with
    | Some o -> o
    | None -> { C.Replica.params = R.params cfg; mutant = false }
  in
  let t =
    R.create ?telemetry ~leader
      (R.override { o with params = batched o.C.Replica.params } cfg)
      net
  in
  R.start t;
  {
    w_instance =
      {
        submit = (fun ~node op k -> R.submit_id t ~node op k);
        committed_ops = (fun ~node -> R.committed_ops t ~node);
      };
    w_set_wire =
      (fun hook ->
        R.set_wire t
          (Option.map
             (fun f ~src ~dst ~size m -> f ~src ~dst ~size (wrap m))
             hook));
    w_deliver = (fun ~node m -> Option.iter (R.deliver t ~node) (unwrap m));
    w_set_cmd_ids = (fun ~base ~stride -> R.set_cmd_ids t ~base ~stride);
    fifo_required = R.fifo_required;
    crash = (fun ~node -> R.crash t ~node);
    restart = (fun ~node -> R.restart t ~node);
    leader_hint = (fun () -> R.leader_hint t);
    digest = (fun ~node -> R.digest t ~node);
    dump = (fun ~node -> R.dump t ~node);
    state = (fun ~rename ~node -> R.dump_state ~rename t ~node);
    mono = (fun ~node -> R.mono_view t ~node);
    invariant = (fun () -> R.invariant_violation t);
    raft_peek = Option.map (fun peek ~node -> peek t ~node) peek;
  }

(* The protocol registry: the only place a constructor picks a runtime. *)
let make_wired ?telemetry ?(batch_size = 1) ?(batch_delay_us = 0) ?override
    protocol net ~leader =
  (* batch_size = 1 leaves the params untouched, so the default configs
     reach the runtimes byte-for-byte as before batching existed. *)
  let batched (p : Types.params) =
    if batch_size <= 1 then p else { p with batch_size; batch_delay_us }
  in
  let raft cfg =
    of_replica (module C.Raft) ~peek:C.Raft.peek
      ~wrap:(fun m -> Wire.Raft_msg m)
      ~unwrap:(function Wire.Raft_msg m -> Some m | _ -> None)
      ?telemetry ~batched ?override ~leader cfg net
  in
  match protocol with
  | Raft -> raft (C.Raft.raft ())
  | Raft_star -> raft (C.Raft.raft_star ())
  | Raft_ll -> raft (C.Raft.raft_ll ())
  | Raft_pql -> raft (C.Raft.raft_pql ())
  | Mencius ->
      of_replica (module C.Mencius)
        ~wrap:(fun m -> Wire.Mencius_msg m)
        ~unwrap:(function Wire.Mencius_msg m -> Some m | _ -> None)
        ?telemetry ~batched ?override ~leader C.Mencius.default_config net
  | Multipaxos ->
      of_replica (module C.Multipaxos)
        ~wrap:(fun m -> Wire.Multipaxos_msg m)
        ~unwrap:(function Wire.Multipaxos_msg m -> Some m | _ -> None)
        ?telemetry ~batched ?override ~leader C.Multipaxos.default_config net

let make_instance ?telemetry ?batch_size ?batch_delay_us protocol net ~leader =
  (make_wired ?telemetry ?batch_size ?batch_delay_us protocol net ~leader)
    .w_instance

let retry_timeout_us = 20_000_000

(* Closed-loop client state.  [gen] counts attempts so a completion
   arriving after the watchdog abandoned the attempt is ignored. *)
type client = {
  region : int;
  mutable cur_op : Types.op;
  mutable started_us : int;
  mutable gen : int;
  mutable waiting : bool;
  mutable wd_pending : bool;  (* a watchdog event is in the heap *)
  mutable trace : int;  (* command id of the current attempt *)
}

let run cfg =
  let engine = Engine.create ~seed:cfg.seed () in
  let nodes =
    List.mapi (fun i site -> { Net.id = i; site }) Topology.sites
  in
  let net = Net.create engine ~nodes in
  let regions = List.length Topology.sites in
  let leader = Topology.site_index cfg.leader_site in
  let tel =
    if cfg.telemetry || cfg.tracing then
      Some (Telemetry.create ~tracing:cfg.tracing ~n:regions ())
    else None
  in
  (match tel with
  | Some tel -> Net.set_metrics net tel.Telemetry.metrics
  | None -> ());
  let inst =
    make_instance ?telemetry:tel ~batch_size:cfg.batch_size
      ~batch_delay_us:cfg.batch_delay_us cfg.protocol net ~leader
  in
  let wl = Workload.create ~seed:cfg.seed ~regions cfg.workload in
  let read_leader = Stats.create ()
  and read_follower = Stats.create ()
  and write_leader = Stats.create ()
  and write_follower = Stats.create () in
  let retries = ref 0 in
  let events = ref [] in
  let requests = ref [] in
  let end_us = cfg.duration_s * 1_000_000 in
  (* Closed-loop clients: one outstanding op each, retry on timeout.

     The retry deadline is enforced by a single lazily re-armed watchdog
     per client rather than a cancellable timer per op: a per-op timer
     leaves one dead 20 s entry in the event heap per completed op, which
     grows the heap to the run's total op count and slows every heap
     operation.  The watchdog is armed at the current op's deadline; if
     the op at hand is younger when it fires, it re-arms at that op's
     exact deadline, so a stuck op still retries at precisely
     [started + retry_timeout_us] while a healthy client schedules only
     one event per 20 s of virtual time. *)
  let rec client_loop c () =
    if Engine.now engine < end_us then begin
      let op = Workload.next_op wl ~region:c.region in
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
        (* Abandon the outstanding attempt (its late completion is
           ignored via the generation counter) and retry the same op. *)
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
    let trace =
      inst.submit ~node:c.region op (fun reply ->
        if c.waiting && c.gen = gen then begin
          c.waiting <- false;
          let now = Engine.now engine in
          let latency = now - started in
          let at_leader = c.region = leader in
          if cfg.tracing then
            requests :=
              {
                trace = c.trace;
                region = c.region;
                is_read = (match op with Types.Get _ -> true | _ -> false);
                started_us = started;
                latency_us = latency;
              }
              :: !requests;
          (match op with
          | Types.Get { key } ->
              Stats.record
                (if at_leader then read_leader else read_follower)
                ~latency_us:latency ~at_us:now;
              events :=
                Lin_check.Read
                  { key; started_us = started; returned = reply.Types.value }
                :: !events
          | Types.Put { write_id; key; _ } ->
              Stats.record
                (if at_leader then write_leader else write_follower)
                ~latency_us:latency ~at_us:now;
              events :=
                Lin_check.Write_complete { write_id; key; at_us = now }
                :: !events);
          client_loop c ()
        end)
    in
    (* The completion callback only fires from scheduled events, after
       [submit] has returned the command id into the client record. *)
    c.trace <- trace
  in
  for region = 0 to regions - 1 do
    for _ = 1 to cfg.workload.Workload.clients_per_region do
      let c =
        {
          region;
          cur_op = Types.Get { key = 0 };
          started_us = 0;
          gen = 0;
          waiting = false;
          wd_pending = false;
          trace = -1;
        }
      in
      (* Stagger client start to avoid a synchronized burst. *)
      let jitter = Sim.Rng.int (Engine.rng engine) 100_000 in
      Engine.schedule engine ~delay:jitter (client_loop c)
    done
  done;
  let minor_before = Gc.minor_words () in
  Engine.run engine ~until:end_us;
  let minor_words = Gc.minor_words () -. minor_before in
  let sim_events = Engine.events_executed engine in
  (* ---- consistency check against the committed order ---- *)
  let committed_order = inst.committed_ops ~node:leader in
  let violations =
    if committed_order = [] then 0
    else (Lin_check.check ~committed_order !events).Lin_check.violations |> List.length
  in
  let from_us = cfg.warmup_s * 1_000_000 in
  let until_us = (cfg.duration_s - cfg.cooldown_s) * 1_000_000 in
  let all =
    Stats.merge [ read_leader; read_follower; write_leader; write_follower ]
  in
  {
    throughput_ops = Stats.throughput_ops all ~from_us ~until_us;
    read_leader;
    read_follower;
    write_leader;
    write_follower;
    retries = !retries;
    consistency_violations = violations;
    messages = Net.sent_count net;
    bytes_by_node = Array.init regions (fun n -> Net.bytes_sent net n);
    telemetry = tel;
    requests = List.rev !requests;
    sim_events;
    minor_words;
  }

let median_throughput ?(trials = 3) cfg =
  let xs =
    List.init trials (fun i ->
        (run { cfg with seed = Int64.add cfg.seed (Int64.of_int i) })
          .throughput_ops)
    |> List.sort Float.compare
  in
  List.nth xs (trials / 2)

let peak_throughput ?(clients = [ 50; 200; 800; 2000 ]) cfg =
  List.fold_left
    (fun best c ->
      let cfg =
        {
          cfg with
          workload = { cfg.workload with Workload.clients_per_region = c };
        }
      in
      max best (median_throughput ~trials:1 cfg))
    0.0 clients
