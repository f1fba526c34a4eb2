(** Runtime implementation of Raft*-Mencius: the round-robin composition of
    coordinated instances whose spec-level core is
    {!Raftpax_core.Opt_mencius}.

    Every replica is the {e default leader} of the instances congruent to
    its id modulo the cluster size, so a client always submits to its local
    replica and never pays a forwarding round-trip.  A replica that
    observes the instance space advancing past its own unused slots
    {e skips} them (broadcasting no-ops that peers may treat as decided
    immediately — the coordinated-Paxos property checked at spec level).

    Execution follows Mencius' split between commit and execute:
    - an op on a {e contended} key replies only when the log is committed
      sequentially up to its slot (it must order against every earlier
      conflicting op);
    - a {e commutative} op (its key touched by no concurrent op) replies
      once its own slot commits and the contents of all earlier slots are
      known (append or skip received) — the paper's Raft*-M-0% fast path.

    Contention is keyed: operations on {!hot_key} are treated as
    conflicting, everything else as commutative, which is exactly how the
    paper's workload dials the conflict rate.

    A simplified revocation path handles a crashed replica: the lowest
    live replica no-ops the dead peer's pending slots after
    [revoke_timeout] (standing in for Mencius' recovery-leader Phase-1,
    with a single designated revoker instead of ballots). *)

type config = {
  params : Types.params;
  revoke_timeout_us : int;
  bug_slot_reuse : bool;
      (** test-only mutation (default [false]): skip the decided-slot
          check before proposing into the next own turn, re-introducing
          the slot-reuse-after-revocation bug the fault-injection PR
          fixed.  Exists so the model checker's mutation smoke test can
          prove it detects the bug. *)
}

val default_config : config

(** {1 Wire messages} — exposed for the {!Raftpax_netcore} codec. *)

type msg =
  | MAppend of { from : int; inst : int; cmd : Types.cmd }
  | MAck of { from : int; inst : int }
  | MSkip of { from : int; first : int; upto : int }
      (** [from]'s turns in [[first, upto)] are no-ops *)
  | MCommit of { inst : int }
  | MRevoke of { from : int; inst : int }
  | MRevStatus of { from : int; inst : int; value : Types.cmd option }
  | MSkipForce of { inst : int }
  | MCatchup of { from : int }
  | MState of {
      slots : (int * bool * Types.cmd option * bool) list;
          (** (instance, is_skip, value, committed) for every decided or
              known slot *)
    }
  | MAppendMulti of {
      from : int;
      items : (int * Types.cmd) list;
          (** one flushed batch of the sender's own turns *)
    }
  | MAckMulti of { from : int; insts : int list }
  | MCommitMulti of { insts : int list }
  | Complete of { cmd_id : int; reply : Types.reply }

type t

val create :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?leader:int ->
  config ->
  Raftpax_sim.Net.t ->
  t
(** [?leader] is ignored: every replica leads its own turns.
    [?telemetry] attaches protocol probes (appends, acks, skips,
    revocations, catchups, commits, retransmits) and span marks; a
    revocation of slot [i] traces under the internal id [-(i + 1)] with
    phases [revoke_start] / [revoke_value] / [revoke_skip].  Defaults to
    the disabled instance. *)

val start : t -> unit
val hot_key : int

(** {1 Replica interface} — the remaining {!Replica.S} entries. *)

val fifo_required : bool
(** [true]: the skip protocol is only sound over FIFO channels. *)

val params : config -> Types.params

val override : Replica.override -> config -> config
(** [mutant] sets [bug_slot_reuse]. *)

val leader_hint : t -> int option
(** Always [None]: submit anywhere. *)

val submit : t -> node:int -> Types.op -> (Types.reply -> unit) -> unit

val submit_id : t -> node:int -> Types.op -> (Types.reply -> unit) -> int
(** Like {!submit} but returns the command id (the span trace id). *)

(** {1 Network-shell hooks} — see {!Raft.set_wire}; same contract. *)

val set_wire : t -> (src:int -> dst:int -> size:int -> msg -> unit) option -> unit
val deliver : t -> node:int -> msg -> unit
val set_cmd_ids : t -> base:int -> stride:int -> unit

(** {1 Introspection} *)

val commit_frontier : t -> node:int -> int
(** Slots below this are committed (value or skip) in order. *)

val known_frontier : t -> node:int -> int

val committed_ops : t -> node:int -> Types.op list
(** Operations in the committed prefix, in slot order (skips omitted) —
    the oracle for consistency checking. *)

val applied_value : t -> node:int -> key:int -> int option
val slot_count : t -> node:int -> int
val skipped_count : t -> node:int -> int

val digest : t -> node:int -> string
(** ["commit=C known=K slots=S skips=N"]. *)

val dump : t -> node:int -> string
(** Debug view of the slot space: one token per slot —
    ["V(w<id>)"]/["G"] value, ["S"] skip, ["U"] unknown, ["!"] suffix
    when uncommitted.  For diagnosing divergence in nemesis traces. *)

val crash : t -> node:int -> unit
val restart : t -> node:int -> unit

(** {1 Model-checker hooks} *)

val dump_state : ?rename:(int -> int) -> t -> node:int -> string
(** Canonical rendering of every behaviour-relevant field of one replica,
    for state fingerprinting. *)

val mono_view : t -> node:int -> int array
(** Non-decreasing components: known/commit frontiers, applied prefix,
    own-turn cursor, committed-slot count. *)

val invariant_violation : t -> string option
(** Cluster-wide safety: committed-slot agreement (including
    skip-soundness — no slot committed as both a value and a skip) and
    no command committed at two slots. *)
