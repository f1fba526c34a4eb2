(** Experiment harness reproducing the paper's Section-5 methodology:
    closed-loop clients per region, a measurement window with warm-up and
    cool-down trimmed, medians over several seeded trials.

    It also owns the one protocol type, its spelling table and the
    registry ({!make_wired}) through which every layer builds a
    runtime. *)

(** {1 Protocols} *)

type protocol =
  | Raft  (** vanilla Raft, log reads *)
  | Raft_star
  | Raft_ll  (** leader-lease reads *)
  | Raft_pql  (** quorum-lease reads *)
  | Mencius
  | Multipaxos

val all_protocols : protocol list

val chaos_protocols : protocol list
(** The protocols the nemesis chaos matrix covers: all but [Raft_ll]
    (see the constructor's annotation in the implementation). *)

val protocol_name : protocol -> string
(** Display name: ["Raft"], ["Raft*"], ["Raft*-LL"], ["Raft*-PQL"],
    ["Raft*-Mencius"], ["MultiPaxos"]. *)

val cli_name : protocol -> string
(** Canonical command-line spelling: ["raft"], ["raft-star"], ... *)

val protocol_of_name : string -> protocol option
(** Case-insensitive; accepts the {!protocol_name} and {!cli_name}
    spellings (and the legacy ["pql"]), so every name a tool prints
    parses back. *)

type config = {
  protocol : protocol;
  leader_site : Raftpax_sim.Topology.site;
      (** placement of the (initial) leader; ignored by Mencius *)
  workload : Workload.spec;
  duration_s : int;
  warmup_s : int;
  cooldown_s : int;
  seed : int64;
  telemetry : bool;  (** attach metric probes (counters / histograms) *)
  tracing : bool;
      (** additionally capture per-request span traces and the
          per-request latency records (implies telemetry) *)
  batch_size : int;
      (** leader-side command batching (see {!Raftpax_consensus.Types.params});
          1 (the default) reproduces the unbatched runtimes byte-for-byte *)
  batch_delay_us : int;  (** batching flush timer; meaningless at size 1 *)
}

val config :
  ?leader_site:Raftpax_sim.Topology.site ->
  ?duration_s:int ->
  ?warmup_s:int ->
  ?cooldown_s:int ->
  ?seed:int64 ->
  ?telemetry:bool ->
  ?tracing:bool ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  protocol ->
  Workload.spec ->
  config
(** Defaults: leader in Oregon, 10 s run with 2 s warm-up/cool-down
    (scaled down from the paper's 50 s / 10 s to keep simulation time
    reasonable; the steady-state estimates are unaffected), seed 1,
    telemetry and tracing off. *)

type request = {
  trace : int;  (** span trace id — the protocol command id *)
  region : int;  (** submitting client's region / replica *)
  is_read : bool;
  started_us : int;
  latency_us : int;
}

type result = {
  throughput_ops : float;  (** completed ops/s in the window *)
  read_leader : Raftpax_sim.Stats.t;  (** reads by leader-region clients *)
  read_follower : Raftpax_sim.Stats.t;
  write_leader : Raftpax_sim.Stats.t;
  write_follower : Raftpax_sim.Stats.t;
  retries : int;
  consistency_violations : int;
      (** reads that returned a value older than the latest write committed
          before the read began, or a never-written value *)
  messages : int;  (** total protocol messages on the wire *)
  bytes_by_node : int array;  (** egress bytes per replica *)
  telemetry : Raftpax_telemetry.Telemetry.t option;
      (** the run's metric registry and tracer, when enabled *)
  requests : request list;
      (** completed requests in completion order (tracing runs only) *)
  sim_events : int;
      (** engine events executed by the run — BENCH_engine's events/sec
          numerator (wall time is the caller's to measure) *)
  minor_words : float;
      (** minor-heap words allocated across the simulation loop
          ({!Gc.minor_words} delta; excludes the post-run lin check) *)
}

(** {1 Replica sets}

    Every runtime implements {!Raftpax_consensus.Replica.S};
    {!make_wired} is the one registry that maps a {!protocol} to its
    runtime and default config and reduces the running instance to
    {!wired}, the record the sharded harness, the network shell, the
    nemesis and the model checker all drive. *)

type instance = {
  submit :
    node:int ->
    Raftpax_consensus.Types.op ->
    (Raftpax_consensus.Types.reply -> unit) ->
    int;
      (** submit at a replica's colocated entry point; returns the
          command id (the span trace id) *)
  committed_ops : node:int -> Raftpax_consensus.Types.op list;
      (** the replica's committed command order — the lin-check oracle;
          all replicas' lists are prefixes of one another *)
}
(** What a serving layer needs; the sharded harness ({!Shard}) builds
    one per consensus group. *)

type wired = {
  w_instance : instance;
  w_set_wire :
    (src:int ->
    dst:int ->
    size:int ->
    Raftpax_netcore.Wire.protocol_msg ->
    unit)
    option ->
    unit;
      (** intercept every cross-replica message before the simulated
          {!Raftpax_sim.Net} sees it, wrapped in the protocol-agnostic
          envelope; the network shell carries the encoded bytes *)
  w_deliver : node:int -> Raftpax_netcore.Wire.protocol_msg -> unit;
      (** inject a received message; one of the wrong protocol is
          silently dropped *)
  w_set_cmd_ids : base:int -> stride:int -> unit;
      (** partition the command-id space across processes (process [i]
          of [n]: [base:i stride:n]) so leader-side dedup by id stays
          sound *)
  fifo_required : bool;
      (** the protocol assumes FIFO channels (Mencius), so a nemesis
          must not reorder messages against it *)
  crash : node:int -> unit;
  restart : node:int -> unit;
  leader_hint : unit -> int option;
      (** preferred submission target ([None] for Mencius — submit
          anywhere) *)
  digest : node:int -> string;
      (** compact state summary; a change is a state transition worth
          tracing *)
  dump : node:int -> string;
      (** full ordering view, appended to a failing nemesis trace *)
  state : rename:(int -> int) -> node:int -> string;
      (** the runtime's [dump_state] — the model checker's fingerprint
          input; [rename] maps node ids for its symmetry reduction *)
  mono : node:int -> int array;
      (** the runtime's [mono_view]: components that never decrease *)
  invariant : unit -> string option;
      (** the runtime's cluster-wide safety invariants; [None] = all
          hold *)
  raft_peek : (node:int -> Raftpax_consensus.Raft.peek) option;
      (** structured refinement snapshot — Raft-family protocols only *)
}
(** A running replica set: one full runtime of every replica.  The
    network shell hosts one per process but keeps only the local replica
    live, carrying messages over TCP through the [w_] hooks. *)

val make_wired :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  ?override:Raftpax_consensus.Replica.override ->
  protocol ->
  Raftpax_sim.Net.t ->
  leader:int ->
  wired
(** Create and start the protocol's runtime over [net] with replica
    [leader] bootstrapped as leader (ignored by Mencius).
    [?telemetry] is forwarded to the runtime's [create]; [?override]
    replaces the default config's params and arms its test-only
    mutation (the model checker's hook); [?batch_size] /
    [?batch_delay_us] (defaults 1 / 0) then arm leader-side batching on
    the resulting params — size 1 leaves them untouched. *)

val make_instance :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  protocol ->
  Raftpax_sim.Net.t ->
  leader:int ->
  instance
(** [(make_wired ...).w_instance]. *)

val run : config -> result

val median_throughput : ?trials:int -> config -> float
(** Re-runs with distinct seeds and reports the median throughput (the
    paper reports the median of 5 trials). *)

val peak_throughput : ?clients:int list -> config -> float
(** Sweeps the client count and returns the best median throughput —
    "peak throughput" in Fig. 9c / 10a. *)
