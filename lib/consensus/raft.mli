(** Runtime implementation of the Raft protocol family over the simulated
    WAN: vanilla Raft, Raft*, Raft*-LL (leader lease) and Raft*-PQL
    (quorum leases) share this core, selected by {!config}.

    The implementation is event-driven: replicas exchange messages through
    {!Raftpax_sim.Net}, charge CPU through {!Raftpax_sim.Cpu}, and complete
    client operations via callbacks.  A closed-loop client keeps exactly
    one operation outstanding, so saturation shows up as latency rather
    than unbounded queues.

    Protocol features implemented: randomized-timeout leader election
    (with Raft*'s extra-entry adoption under [flavor = Star]), log
    replication with per-follower pipelining and unbounded batching (group
    commit), vanilla conflict-erase vs Raft*'s no-shorten reconciliation
    and ballot rewrite, Raft's 5.4.2 current-term commit restriction,
    follower-to-leader forwarding (the etcd optimization the paper keeps
    on), heartbeats, leader leases, quorum leases with
    all-holder-acknowledged commits and commit-waited local reads. *)

type flavor = Vanilla | Star

type read_mode =
  | Log_read  (** reads replicate through the log (Raft and Raft star) *)
  | Leader_lease  (** only the leader answers reads locally (LL) *)
  | Quorum_lease  (** any lease-holding replica answers locally (PQL) *)

type config = {
  flavor : flavor;
  read_mode : read_mode;
  params : Types.params;
  initial_leader : int option;
      (** [Some l] bootstraps with [l] already elected at term 1 (used by
          the benchmarks to skip the startup election); [None] runs a real
          election. *)
}

val raft : ?leader:int -> unit -> config
val raft_star : ?leader:int -> unit -> config
val raft_ll : ?leader:int -> unit -> config
val raft_pql : ?leader:int -> unit -> config

(** {1 Wire messages}

    Exposed (rather than abstract) so the real-network runtime's codec in
    {!Raftpax_netcore} can serialize them; the simulated harness never
    inspects them. *)

type msg =
  | RequestVote of { term : int; cand : int; last_idx : int; last_term : int }
  | Vote of {
      term : int;
      from : int;
      granted : bool;
      extras : (int * Types.entry * int) list;
          (** Raft*: (index, entry, ballot) beyond the candidate's log *)
    }
  | Append of {
      term : int;
      leader : int;
      prev_idx : int;
      prev_term : int;
      entries : (Types.entry * int) list;  (** entry with its ballot *)
      commit : int;
    }
  | Ack of {
      term : int;
      from : int;
      success : bool;
      match_idx : int;
      holders : (int * int) list;
          (** quorum-lease mode: (holder, deadline) leases granted by the
              acker and still valid *)
    }
  | Forward of Types.cmd
  | Complete of { cmd_id : int; reply : Types.reply }
  | Grant of { from : int; deadline : int; grantor_last : int }
  | GrantConfirm of { from : int; deadline : int }

type t

val create :
  ?telemetry:Raftpax_telemetry.Telemetry.t ->
  ?leader:int ->
  config ->
  Raftpax_sim.Net.t ->
  t
(** [?leader] bootstraps with that replica elected, overriding the
    config's [initial_leader].

    [?telemetry] attaches protocol probes (elections, term changes,
    appends, acks, retransmits, forwards, commits, heartbeats, leases,
    local reads) and — when its tracer is live — per-request span marks.
    Defaults to the disabled instance: every probe update is a no-op on a
    shared dummy cell. *)

val start : t -> unit
(** Arms timers (heartbeats, election timeouts, lease renewal). *)

val submit : t -> node:int -> Types.op -> (Types.reply -> unit) -> unit
(** Submit an operation at a replica's colocated client entry point; the
    callback fires (simulated-time later) when the operation completes. *)

val submit_id : t -> node:int -> Types.op -> (Types.reply -> unit) -> int
(** Like {!submit} but returns the command id — the span trace id, for
    correlating harness-side latency with the tracer's waterfall. *)

(** {1 Network-shell hooks}

    The real-network runtime hosts one [t] per process but keeps only the
    local replica live: [set_wire] intercepts every cross-replica message
    (self-sends still go through the local engine), the transport carries
    it, and the receiving process injects it with [deliver].  The
    runtime's protocol logic is unchanged — same state machine, two
    transports. *)

val set_wire : t -> (src:int -> dst:int -> size:int -> msg -> unit) option -> unit
val deliver : t -> node:int -> msg -> unit
(** Hand a transport-received message to replica [node]'s handler. *)

val set_cmd_ids : t -> base:int -> stride:int -> unit
(** Partition the command-id space across processes (process [i] of [n]
    uses [base:i stride:n]) so ids stay globally unique — the leader
    dedups forwarded commands by id. *)

(** {1 Introspection} *)

val leader_of : t -> int option
(** Current leader if any replica believes it is one. *)

val term_of : t -> node:int -> int
val commit_index : t -> node:int -> int
val log_length : t -> node:int -> int
val applied_value : t -> node:int -> key:int -> int option
(** The write_id the replica's state machine currently holds for a key. *)

val log_entries : t -> node:int -> Types.entry list
val lease_active : t -> node:int -> bool
(** Quorum-lease mode: is the replica entitled to local reads right now? *)

val committed_ops : t -> node:int -> Types.op list
(** Operations in the log prefix up to the commit index, in log order
    (no-ops omitted) — the oracle for consistency checking. *)

(** {1 Replica interface} — the remaining {!Replica.S} entries. *)

val fifo_required : bool
val params : config -> Types.params

val override : Replica.override -> config -> config
(** Replaces the params; Raft has no test-only mutation, so
    [mutant] is ignored. *)

val leader_hint : t -> int option
(** {!leader_of}. *)

val digest : t -> node:int -> string
(** ["term=T commit=C log=L"], plus [" leader"] at the leader. *)

val dump : t -> node:int -> string
(** One token per log entry — ["V(w<id>)"]/["G"] command, ["-"] no-op,
    ["!"] suffix when uncommitted. *)

val crash : t -> node:int -> unit
val restart : t -> node:int -> unit
(** Crash-stop and restart with durable state (term, vote, log) retained —
    models a persisted log. *)

(** {1 Model-checker hooks} *)

val dump_state : ?rename:(int -> int) -> t -> node:int -> string
(** Canonical rendering of every behaviour-relevant field of one replica;
    two replicas with equal dumps are indistinguishable to the protocol.
    Used by {!Raftpax_mcheck} to fingerprint global states. *)

type peek_entry = { pe_term : int; pe_ballot : int; pe_cmd : int option }

type peek = {
  pk_term : int;
  pk_is_leader : bool;
  pk_commit : int;
  pk_log : peek_entry list;
}

val peek : t -> node:int -> peek
(** Structured snapshot of the refinement-relevant core of a replica. *)

val mono_view : t -> node:int -> int array
(** Components that must never decrease along any execution: term and
    commit index, plus (Raft* only, where the log never shortens) log
    length and per-index ballots.  The checker compares successive views
    pointwise over their common prefix. *)

val invariant_violation : t -> string option
(** Evaluates the executable safety invariants over the whole cluster:
    Election Safety, Log Matching, Leader Completeness (against the
    max-term live leader), State-Machine Safety, and the Raft* per-entry
    ballot field bound.  [None] means all hold. *)
