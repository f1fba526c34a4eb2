(** The model checker's transition system over the {e real} protocol
    runtimes.

    A world is one concrete execution held under checker control: the
    engine is in manual mode (timers are pending {e choices}, not a
    clock), the net is in capture mode (every send lands in a per-link
    FIFO whose head delivery is a choice), and a closed-loop client
    submits the scenario's commands one reply at a time.

    Because runtime state is mutable and closure-captured, a state is
    identified with the choice schedule that reaches it: exploring a
    successor rebuilds a fresh world and replays the prefix, which the
    deterministic simulator makes exact. *)

module Harness = Raftpax_kvstore.Harness

(** One atomic transition of the global system. *)
type choice =
  | Deliver of int * int
      (** run the (src, dst) link's FIFO head; if the destination is down
          the message is consumed and lost (the drop transition) *)
  | Fire of int * string * int
      (** fire the [k]-th pending timer named (node, label), advancing
          the virtual clock to its deadline *)
  | Crash of int
  | Restart of int

val render_choice : choice -> string
(** ["d:0>1"], ["t:0:watchdog:0"], ["c:2"], ["r:2"]. *)

val render_schedule : choice list -> string
val parse_choice : string -> choice option

val parse_schedule : string -> choice list
(** Inverse of {!render_schedule}; raises [Invalid_argument] on a bad
    token. *)

type t

(** A checking scenario: the protocol instance, its workload, the fault
    budgets bounding exploration, and an optional scripted policy that
    steers the world into an interesting region before exhaustive
    exploration starts (see {!Scenario}). *)
type scenario = {
  sc_name : string;
  sc_protocol : Harness.protocol;
  sc_ops : Raftpax_consensus.Types.op list;
  sc_targets : int list;  (** submission node of each command, in order *)
  sc_nodes : int;
  sc_timer_budget : int;  (** max timer fires during exploration *)
  sc_crash_budget : int;  (** max crashes during exploration *)
  sc_config : Raftpax_consensus.Replica.override;
      (** params and test-only mutation applied to the protocol's
          default config (node 0 bootstraps as leader) *)
  sc_fire_filter : (node:int -> label:string -> bool) option;
      (** restricts which pending timers exploration may fire (policies
          are exempt).  [None] allows all.  Used to keep election
          cascades out of scopes that are about replication — one
          election fire opens a whole protocol's worth of extra
          interleavings. *)
  sc_policy : (t -> choice option) option;
      (** called repeatedly on a fresh world until it returns [None]; the
          produced choices become the recorded scripted prefix.  Single
          use — construct a fresh scenario per check. *)
  sc_symmetry : int list;
      (** node ids the scenario treats interchangeably: {!fingerprint}
          canonicalizes states under every permutation of these ids, so
          one representative per symmetry orbit is explored.  Sound only
          if the scenario itself cannot tell the listed nodes apart —
          submission targets, fire filters and policies must be invariant
          under the permutations (and the protocol must not bake node
          ids into non-renamable structure, which rules out Mencius slot
          ownership).  [[]] disables the reduction. *)
}

val build : scenario -> t
(** Fresh world at the initial state: cluster started, command 0
    submitted (its client hop is a queued message, so processing it is
    already a choice). *)

val choices : ?timer_budget:int -> ?crash_budget:int -> t -> choice list
(** Enabled choices, in deterministic order (deliveries, then timer
    fires, crashes, restarts).  Budgets are compared against the world's
    consumed counts, so pass the scenario budgets unchanged on every
    call. *)

exception Stuck of string
(** Raised by {!apply} when a choice is not enabled — schedules produced
    by the checker never trigger it; hand-edited ones can. *)

val apply : t -> choice -> unit
(** Run one choice and drain the resulting synchronous cascade (CPU
    completions, captured sends) back to quiescence. *)

val fingerprint : t -> string
(** Canonical digest of the global state: every replica's [dump_state],
    every link queue's message renderings, the pending-timer multiset,
    down flags, the clock and the client's progress counters.  With a
    nonempty [sc_symmetry] the digest is the minimum over the node-id
    permutation group, with every node-id-valued field (including
    MultiPaxos ballots, which encode proposer ids) renamed consistently
    — states equal up to a permutation of the symmetric nodes collapse
    to one visited-set key. *)

val goal_reached : t -> bool
(** Every scenario command acknowledged. *)

val violation : t -> string option
(** First safety failure visible in this state: the client read oracle,
    else the runtime's cluster-wide invariant library, else the
    {!Raftpax_kvstore.Lin_check} audit of the completed operations
    against the longest applied committed prefix. *)

val mono_views : t -> int array array
val mono_regression : before:int array array -> after:int array array -> string option
(** A per-node monotonicity witness (term/commit/frontier counters must
    never decrease): compares the common prefix pointwise. *)

val describe : t -> choice -> string
(** Render what [choice] would do, for counterexample traces.  Must be
    called before {!apply} (it names the queue head about to run). *)

val ncmds : t -> int
val acked : t -> int
val timers_fired : t -> int
val crashes : t -> int
val cluster : t -> Harness.wired
val engine : t -> Raftpax_sim.Engine.t
val net : t -> Raftpax_sim.Net.t
val queue_info : t -> src:int -> dst:int -> string list
(** Renderings of the messages queued on one link, head first. *)
