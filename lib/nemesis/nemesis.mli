(** The nemesis runner: one deterministic fault-injection run.

    A run is a pure function of [(protocol, workload, seed)]:

    + build a cluster of the protocol on the simulated WAN;
    + drive a closed-loop client workload (each client owns a private key
      and also contends on a shared hot key; reads and writes; retries
      with a fresh write id on timeout);
    + fire one fault per second from the schedule's weighted bag;
    + heal everything, let the cluster converge, probe liveness;
    + check safety: committed prefixes across replicas must be prefixes
      of one another, every acknowledged write must survive in the
      longest committed order, and every read must pass the
      {!Raftpax_kvstore.Lin_check} linearizability oracle.

    Everything observable is recorded in a {!Trace.t}; re-running the
    same config must reproduce it byte-identically (see
    {!Trace.fingerprint}), which makes any failure replayable from its
    seed alone. *)

type config = {
  protocol : Raftpax_kvstore.Harness.protocol;
  seed : int;
  chaos_steps : int;  (** one fault per simulated second *)
  clients : int;
  read_pct : int;  (** percentage of client ops that are reads *)
  hot_pct : int;  (** percentage of ops on the shared contended key *)
  capture_messages : bool;  (** record every message send in the trace *)
  debug_invariants : bool;
      (** run the runtime's cluster-wide invariant library (the
          replica record's [invariant]) at every state poll — the model
          checker's safety oracles doubling as a continuous sanitizer;
          a violation is traced as an [INVARIANT] line and fails the
          run *)
  actions : Schedule.action list;
  batch_size : int;
      (** leader-side command batching on the cluster's protocol config;
          1 (the default) reproduces the unbatched runtimes
          byte-for-byte *)
  batch_delay_us : int;  (** batching flush timer; meaningless at size 1 *)
}

val config :
  ?chaos_steps:int ->
  ?clients:int ->
  ?read_pct:int ->
  ?hot_pct:int ->
  ?capture_messages:bool ->
  ?debug_invariants:bool ->
  ?actions:Schedule.action list ->
  ?batch_size:int ->
  ?batch_delay_us:int ->
  Raftpax_kvstore.Harness.protocol ->
  seed:int ->
  config
(** Defaults: 30 chaos steps, 4 clients, 50% reads, 30% hot-key ops,
    message capture on, invariant sanitizer on, {!Schedule.default}
    actions, batching off (size 1). *)

type report = {
  cfg : config;
  ok : bool;
  failures : string list;  (** human-readable reasons, empty iff [ok] *)
  trace : Trace.t;
  ops_completed : int;
  reads_checked : int;
  violations : Raftpax_kvstore.Lin_check.violation list;
  faults_injected : int;
  liveness_ok : bool;  (** a post-heal write committed *)
  prefixes_agree : bool;
  lost_writes : int;  (** acknowledged writes missing from the order *)
  telemetry : Raftpax_telemetry.Telemetry.t;
      (** the run's live metric registry and span tracer; its snapshot is
          also appended to the trace as [METRIC] lines, so it is covered
          by the fingerprint determinism oracle *)
}

val run : config -> report

val pp_report : Format.formatter -> report -> unit
(** One summary line; on failure also the reasons and the trace tail. *)
