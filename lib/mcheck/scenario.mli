(** The scenario library: small-scope checking configurations over the
    real runtimes.

    Clean scenarios ({!steady}, {!crash}) are explored exhaustively and
    must end with [complete = true], the goal reached and no violation.
    The mutation scenarios re-arm two bugs the fault-injection PR fixed
    (behind test-only config flags) and script the world into the
    triggering region with a policy prefix; the checker must detect the
    mutant — by invariant violation (Mencius slot reuse) or by goal
    unreachability under a complete search (MultiPaxos takeover). *)

val steady : Raftpax_kvstore.Harness.protocol -> Model.scenario
(** Write then read the same key at two replicas; one timer fire, no
    crashes. *)

val crash : Raftpax_kvstore.Harness.protocol -> Model.scenario
(** {!steady} plus one crash anywhere and a second timer fire. *)

val steady_sym : Raftpax_kvstore.Harness.protocol -> Model.scenario
(** {!steady} with both commands at the bootstrap leader and
    [sc_symmetry = [1; 2]]: the followers are interchangeable, so the
    checker explores one representative per follower-swap orbit.  Only
    meaningful for the protocols in {!sym_protocols}. *)

val steady_sym_off : Raftpax_kvstore.Harness.protocol -> Model.scenario
(** The same scope with the reduction disabled — the baseline for
    asserting the quotient shrinks the visited set with identical
    verdicts. *)

val batchify : Model.scenario -> Model.scenario
(** Arm leader-side command batching (batch size 2, 1 us flush delay) on
    a scope: the flush timer and batch accumulators join the choice set
    and fingerprint, and the checker must reach exactly the unbatched
    scope's verdicts — batching is non-mutating (paper Section 4). *)

val steady_batched : Raftpax_kvstore.Harness.protocol -> Model.scenario

val steady_sym_batched : Raftpax_kvstore.Harness.protocol -> Model.scenario
(** {!steady_sym} with batching armed; [batchify] keeps the batched ops
    routed through the bootstrap leader so the follower-swap quotient
    stays sound. *)

val crash_batched : Raftpax_kvstore.Harness.protocol -> Model.scenario

val sym_protocols : Raftpax_kvstore.Harness.protocol list
(** Protocols whose node ids are fully renamable (everything but
    Mencius, whose slot ownership is positional). *)

val mencius_slot_reuse : mutant:bool -> unit -> Model.scenario
(** Slot-reuse-after-revocation: the policy forces a revocation of
    node 2's slot 2 into a committed skip while node 2 still holds an
    unprocessed submission; the mutant then proposes into the decided
    slot.  Detection: committed-slot agreement violation. *)

val mp_takeover : mutant:bool -> unit -> Model.scenario
(** Restarted-leader livelock: the policy crash-restarts the bootstrap
    leader between two commands.  Detection: the all-acked goal becomes
    unreachable with the search still complete. *)

val refinement : unit -> Model.scenario
(** The Raft* runtime scope the {!Refine} checker walks (zero fault
    budgets, bootstrap leader). *)

val clean_protocols : Raftpax_kvstore.Harness.protocol list

val by_name : string -> Model.scenario option
(** CLI lookup: ["steady-<protocol>"], ["steady-sym-<protocol>"],
    ["crash-<protocol>"], their ["-batched"] suffixed variants, the
    mutation scenarios and ["refine-raft-star"].  Scenario values hold
    single-use policy state — look up a fresh one per check. *)

val names : string list
