(** Shared types for the runtime protocol implementations. *)

type op =
  | Get of { key : int }
  | Put of { key : int; size : int; write_id : int }
      (** [write_id] is globally unique; the consistency checker uses it to
          validate what reads return. *)

type cmd = {
  id : int;  (** unique per submission; routes the completion callback *)
  op : op;
  origin : int;  (** replica id where the client submitted *)
  submitted_us : int;
}

val op_size : op -> int
(** Payload bytes carried by the operation. *)

val is_read : op -> bool
val key_of : op -> int

type entry = { term : int; cmd : cmd option  (** [None] is a no-op *) }

(** Completion notification delivered back at the origin replica. *)
type reply = { value : int option  (** write_id a Get observed *) }

(** Performance model parameters; see DESIGN.md for the calibration
    rationale (Raft ~41K ops/s leader-bound; Mencius ~55K). *)
type params = {
  pipeline_window : int;
      (** max concurrently in-flight append batches per follower *)
  cpu_leader_op_us : int;  (** leader-side CPU per committed op *)
  cpu_follower_op_us : int;  (** follower-side CPU per replicated op *)
  cpu_read_op_us : int;  (** CPU to serve a read at any replica *)
  cpu_pql_commit_extra_us : int;
      (** extra leader CPU per write under quorum leases (holder
          bookkeeping and notifications) *)
  msg_header_bytes : int;
  reply_bytes : int;
  heartbeat_interval_us : int;
  election_timeout_min_us : int;
  election_timeout_max_us : int;
  lease_duration_us : int;  (** paper: 2 s *)
  lease_renew_us : int;  (** paper: 0.5 s *)
  batch_size : int;
      (** leader-side command batching: accumulate up to this many client
          commands into one replication batch before flushing.  1 makes
          every batch a batch of one, flushed inside the submitting
          event. *)
  batch_delay_us : int;
      (** time bound on the accumulator: a partial batch flushes this
          many µs after its first command.  0 = flush on size only. *)
}

val default_params : params

val entry_bytes : params -> entry -> int
val batch_bytes : params -> entry list -> int

val ids_bytes : 'a list -> int
(** Wire bytes for the instance ids a replicate/ack/commit message lists:
    none for a single instance, whose id the header carries (a batch of
    one costs what a per-instance message would), else 8 per id. *)

(** {1 Canonical renderings}

    Stable, deterministic strings used by the model checker to
    fingerprint messages and states.  [submitted_us] is excluded on
    purpose (it only feeds latency accounting). *)

val render_op : op -> string

val render_cmd : ?rename:(int -> int) -> cmd -> string
(** [rename] maps node ids (here: the command's origin) to their
    canonical images, for the model checker's symmetry reduction;
    it defaults to the identity. *)

val render_cmd_opt : ?rename:(int -> int) -> cmd option -> string
val render_entry : ?rename:(int -> int) -> entry -> string
