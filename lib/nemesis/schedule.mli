(** Composable nemesis schedules.

    A schedule is a weighted bag of fault {!action}s.  Each chaos step the
    nemesis draws one ready action from the bag (seeded RNG) and fires it;
    actions that open a fault window (partitions, message chaos, clock
    skew) schedule their own healing, and {!heal} closes everything at the
    end of the chaos phase so the final convergence checks run on a clean
    cluster.

    Invariants the primitives maintain: at most a minority of replicas is
    crashed at once, and at most one partition / chaos window / skew
    window is open at a time — so every schedule keeps eventual liveness
    reachable once healed. *)

type ctx = {
  engine : Raftpax_sim.Engine.t;
  net : Raftpax_sim.Net.t;
  cluster : Raftpax_kvstore.Harness.wired;
  rng : Raftpax_sim.Rng.t;  (** the nemesis' own seeded stream *)
  trace : Trace.t;
  down : bool array;
  mutable partition_active : bool;
  mutable chaos_active : bool;
  mutable skew_active : bool;
  mutable faults : int;  (** faults injected so far *)
  mutable partition_gen : int;
      (** per-run heal-window generation counters; see the implementation *)
  mutable chaos_gen : int;
  mutable skew_gen : int;
}

val make_ctx :
  Raftpax_sim.Engine.t ->
  Raftpax_sim.Net.t ->
  Raftpax_kvstore.Harness.wired ->
  rng:Raftpax_sim.Rng.t ->
  trace:Trace.t ->
  ctx

type action = {
  name : string;
  weight : int;
  ready : ctx -> bool;
  fire : ctx -> unit;
}

val crash_random : action
(** Crash-stop a random up replica (durable state retained). *)

val restart_random : action
(** Restart a random crashed replica. *)

val crash_leader : action
(** Crash whichever replica the protocol currently calls leader. *)

val partition_symmetric : action
(** Cut a random minority side off in both directions for 2–6 s. *)

val partition_asymmetric : action
(** Cut one replica's outbound links only (it still hears the cluster)
    for 2–6 s. *)

val message_chaos : action
(** Open a 2–6 s window of random per-message extra delay, duplication,
    drops, and (half the time) FIFO-violating reordering. *)

val clock_skew : action
(** Warp every protocol timer by a random per-timer factor in
    [0.7×, 1.6×) for 2–6 s (network and harness time stay exact). *)

val default : action list
(** All of the above — the full adversary. *)

val crashes_only : action list
(** Crash/restart churn without network faults. *)

val step : ctx -> action list -> unit
(** Draw one ready action by weight and fire it (no-op if none ready). *)

val heal : ctx -> unit
(** Close every open fault window and restart every crashed replica. *)
