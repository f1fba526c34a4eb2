(** The replica interface: what every consensus runtime exposes to the
    layers above it.

    Raft (with its Raft*, Raft*-LL and Raft*-PQL variants), Raft*-Mencius
    and MultiPaxos each implement {!S}; the compiler checks all three
    where the protocol registry ([Raftpax_kvstore.Harness.make_wired])
    packs them.  Everything a consumer needs — the simulated harness, the
    sharded harness, the network shell, the nemesis and the model
    checker — goes through this one signature, so the per-protocol
    differences live in the runtimes and in one registry, not in copies
    of the wiring.

    The entries follow the paper's Section-4 correspondence: a Raft term
    and a Paxos ballot both surface as [mono_view] components and in
    [digest]; the Raft log prefix up to the commit index and the Paxos
    chosen-instance prefix both surface as [committed_ops]; and the
    runtimes' safety properties (Log Matching / State-Machine Safety on
    one side, chosen-value agreement on the other) both surface as
    [invariant_violation]. *)

(** The knobs a caller may override on any protocol's default config:
    the model checker uses them to pin deterministic timeouts, arm
    batching and re-arm the test-only mutations. *)
type override = {
  params : Types.params;  (** replaces the config's params *)
  mutant : bool;
      (** arms the runtime's test-only mutation flag (Mencius slot reuse,
          MultiPaxos missing takeover); Raft has none and ignores it *)
}

module type S = sig
  type config

  type msg
  (** Cross-replica messages, carried by the network shell. *)

  type t

  val fifo_required : bool
  (** The protocol assumes FIFO channels (Mencius, per its paper), so a
      nemesis must not reorder messages against it. *)

  val params : config -> Types.params
  val override : override -> config -> config

  val create :
    ?telemetry:Raftpax_telemetry.Telemetry.t ->
    ?leader:int ->
    config ->
    Raftpax_sim.Net.t ->
    t
  (** [?leader] bootstraps with that replica already elected; Mencius,
      which has no distinguished leader, ignores it. *)

  val start : t -> unit

  val submit_id : t -> node:int -> Types.op -> (Types.reply -> unit) -> int
  (** Submit at a replica's colocated entry point; returns the command
      id (the span trace id). *)

  val set_wire :
    t -> (src:int -> dst:int -> size:int -> msg -> unit) option -> unit

  val deliver : t -> node:int -> msg -> unit
  val set_cmd_ids : t -> base:int -> stride:int -> unit
  val crash : t -> node:int -> unit
  val restart : t -> node:int -> unit

  val leader_hint : t -> int option
  (** Preferred submission target; [None] for multi-leader protocols. *)

  val committed_ops : t -> node:int -> Types.op list
  (** The replica's committed prefix, in commit order — the
      linearizability oracle's input. *)

  val digest : t -> node:int -> string
  (** Compact state summary; a change is a transition worth tracing. *)

  val dump : t -> node:int -> string
  (** Full ordering view (log or slot contents) for diagnosing a
      divergence. *)

  val dump_state : ?rename:(int -> int) -> t -> node:int -> string
  val mono_view : t -> node:int -> int array
  val invariant_violation : t -> string option
end
