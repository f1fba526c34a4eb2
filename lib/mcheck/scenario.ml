module C = Raftpax_consensus
module Types = C.Types
module Net = Raftpax_sim.Net
module Harness = Raftpax_kvstore.Harness

let put key write_id = Types.Put { key; size = 8; write_id }
let get key = Types.Get { key }

(* Exploration needs path-independent timer deadlines: the election
   jitter draw advances a per-server RNG on every timer reset, so two
   interleavings reaching the same logical state would carry different
   pending deadlines and never merge in the visited set.  Collapsing the
   jitter window to a point makes the draw always return 0 without
   touching the runtime code. *)
let det_params =
  {
    Types.default_params with
    election_timeout_max_us = Types.default_params.election_timeout_min_us;
  }

let is_raft = function
  | Harness.Raft | Harness.Raft_star | Harness.Raft_ll | Harness.Raft_pql ->
      true
  | Harness.Mencius | Harness.Multipaxos -> false

(* Only Raft draws election jitter, so only Raft scopes need [det_params];
   the others run on their default params. *)
let config_for protocol =
  {
    C.Replica.params =
      (if is_raft protocol then det_params else Types.default_params);
    mutant = false;
  }

(* Steady (crash-free) Raft scopes are about the replication and read
   paths.  Firing an election timer there opens a full election's worth
   of extra interleavings (candidate, votes, possible new leader), and a
   lease fire opens the whole grant/renewal conversation; either
   multiplies the space a hundredfold.  Heartbeat fires stay in — they
   interleave retransmission with replication, which is the interesting
   steady-state timing.  The crash scenarios, which are about leader
   loss, allow every timer; so does nemesis, which covers the lease
   paths with the same invariant library as a sanitizer. *)
let steady_fire_filter protocol =
  if is_raft protocol then Some (fun ~node:_ ~label -> label = "heartbeat")
  else None

let base ?fire_filter ?(symmetry = []) name protocol ~ops ~targets
    ~timer_budget ~crash_budget =
  {
    Model.sc_name = name;
    sc_protocol = protocol;
    sc_ops = ops;
    sc_targets = targets;
    sc_nodes = 3;
    sc_timer_budget = timer_budget;
    sc_crash_budget = crash_budget;
    sc_config = config_for protocol;
    sc_fire_filter = fire_filter;
    sc_policy = None;
    sc_symmetry = symmetry;
  }

(* ---- policy helpers ---- *)

(* First nonempty link in (src, dst) order whose delivery the policy
   allows.  Policies steer by withholding links, never by inventing
   choices the model would not offer. *)
let next_delivery ?(blocked = fun ~src:_ ~dst:_ -> false) w =
  let n = Net.size (Model.net w) in
  let found = ref None in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if
        Model.queue_info w ~src ~dst <> []
        && not (blocked ~src ~dst)
      then found := Some (Model.Deliver (src, dst))
    done
  done;
  !found

let dump_has_token w ~node tok =
  let dump = (Model.cluster w).Harness.dump ~node in
  List.mem tok (String.split_on_char ' ' dump)

(* ---- clean scenarios ---- *)

(* A write then a read of the same key, submitted at two different
   replicas: exercises replication, forwarding, commit, the reply path
   and (under PQL) the lease-grant and commit-waited local read.  One
   timer fire lets heartbeats / watchdogs / lease renewals interleave
   anywhere. *)
let steady protocol =
  let name =
    Printf.sprintf "steady-%s"
      (String.lowercase_ascii (Harness.protocol_name protocol))
  in
  base ?fire_filter:(steady_fire_filter protocol) name protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 1 ] ~timer_budget:1 ~crash_budget:0

(* The symmetry variant routes the whole workload through the bootstrap
   leader, which makes the two followers indistinguishable: nothing in
   the scenario (targets, fire filter, budgets) mentions node 1 or 2
   individually, so states that differ only by swapping the followers'
   roles are one orbit and {!Model.fingerprint} collapses them.  Mencius
   is excluded — its slot ownership ([inst mod n]) bakes node ids into
   slot numbers, so no renaming of follower state can be faithful. *)
let steady_sym protocol =
  let name =
    Printf.sprintf "steady-sym-%s"
      (String.lowercase_ascii (Harness.protocol_name protocol))
  in
  base
    ?fire_filter:(steady_fire_filter protocol)
    ~symmetry:[ 1; 2 ] name protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 0 ] ~timer_budget:1 ~crash_budget:0

(* Same scope with the reduction off, for the test that asserts the
   quotient shrinks the visited set without changing any verdict. *)
let steady_sym_off protocol =
  { (steady_sym protocol) with Model.sc_symmetry = [] }

let sym_protocols =
  [ Harness.Raft; Harness.Raft_star; Harness.Raft_pql; Harness.Multipaxos ]

(* The crash variant adds one crash anywhere plus restarts; with two
   timer fires an election can complete after a leader crash. *)
let crash protocol =
  let name =
    Printf.sprintf "crash-%s"
      (String.lowercase_ascii (Harness.protocol_name protocol))
  in
  base name protocol
    ~ops:[ put 11 1; get 11 ]
    ~targets:[ 0; 1 ] ~timer_budget:2 ~crash_budget:1

(* ---- batched variants ---- *)

(* The same scopes with leader-side command batching armed (batch size 2,
   1 us flush delay): batching is the paper's Section-4 non-mutating
   optimization, so the checker must reach exactly the verdicts of the
   unbatched scope while the flush timer and the batch accumulators join
   the choice set and the state fingerprint.

   Batching only touches the write path, so the batched scopes replace
   the read with a second write — two puts submitted at two replicas —
   and steady scopes narrow the fire filter to the flush timers alone:
   heartbeat/watchdog/lease interleavings are the unbatched scopes' job,
   and admitting them under the larger budget multiplies the space
   without testing anything batching-specific.  The model submits ops
   sequentially (the next only after the previous ack), so every command
   is a lone size-2 batch that ships only when its flush timer fires:
   the timer budget grows by one fire per op.  Crash scopes admit the
   flush timers plus the protocol's failure-recovery timer (Raft's
   election, Mencius'/MultiPaxos' watchdog) so leader loss, recovery and
   batched replication interleave, and carry a single write — the
   crash/restart/recovery choices widen every search layer so much that
   a two-op goal sits beyond any sane state bound; one op still drives a
   crash into an armed accumulator and a flush after recovery.  They are
   bounded hunts, not exhaustive proofs.

   PQL is the exception in the crash scope: its quorum-lease handshake
   puts the write's ack several message rounds deeper than the other
   protocols', beyond what a blind bounded search reaches.  A policy
   prefix commits the batched write deterministically (greedy delivery,
   firing the flush timer when the batch is all that's left), then hands
   the post-commit state to exploration for the crash/recovery hunt. *)
let batchify sc =
  let batch (p : Types.params) = { p with batch_size = 2; batch_delay_us = 1 } in
  let protocol = sc.Model.sc_protocol in
  {
    sc with
    Model.sc_name = sc.Model.sc_name ^ "-batched";
    sc_ops =
      (if sc.Model.sc_crash_budget = 0 then [ put 11 1; put 12 2 ]
       else [ put 11 1 ]);
    sc_targets =
      (* Symmetry scopes route every op through the bootstrap leader:
         a target of 1 would distinguish the followers and break the
         orbit argument that makes the reduction sound. *)
      (if sc.Model.sc_crash_budget > 0 then [ 0 ]
       else if sc.Model.sc_symmetry <> [] then [ 0; 0 ]
       else [ 0; 1 ]);
    sc_timer_budget =
      (sc.Model.sc_timer_budget + if sc.Model.sc_crash_budget = 0 then 2 else 1);
    sc_config =
      { sc.Model.sc_config with params = batch sc.Model.sc_config.params };
    sc_fire_filter =
      (if sc.Model.sc_crash_budget = 0 then
         Some (fun ~node:_ ~label -> label = "flush")
       else
         let recovery = if is_raft protocol then "election" else "watchdog" in
         Some (fun ~node:_ ~label -> label = "flush" || label = recovery));
    sc_policy =
      (if sc.Model.sc_crash_budget > 0 && protocol = Harness.Raft_pql then (
         (* Stop BEFORE the goal: a prefix that already acks the write
            would short-circuit the checker's exploration entirely.
            Drain the lease-establishment traffic, put the batched
            append on the wire, then hand over to the search. *)
         let fired = ref false in
         Some
           (fun w ->
             if !fired then None
             else
               match next_delivery w with
               | Some d -> Some d
               | None ->
                   fired := true;
                   Some (Model.Fire (0, "flush", 0))))
       else sc.Model.sc_policy);
  }

let steady_batched protocol = batchify (steady protocol)
let steady_sym_batched protocol = batchify (steady_sym protocol)
let crash_batched protocol = batchify (crash protocol)

(* ---- mutation smoke scenarios ---- *)

(* Mencius slot reuse after revocation (the PR-1 bug, re-armed by
   [bug_slot_reuse]).  The scripted policy steers into the triggering
   region: node 2's slot 2 gets revoked into a committed skip while
   node 2 still has a command waiting in its inbox.  Route:

   - A@0, B@1 commit normally; C@1 lands in slot 4 but its append to
     node 2 is withheld (the (1,2) link is blocked after the two
     messages B needed), so every commit frontier stalls at slot 2;
   - D's submission at node 2 is withheld entirely (the (2,2) link);
   - node 0's watchdog fires twice: the first arms the stall detector,
     the second starts a revocation of slot 2; nobody saw a value, so
     the majority answer forces slot 2 to a committed skip everywhere.

   Exploration then delivers D's submission: the clean runtime advances
   [next_own] past the decided slot and proposes D at slot 5; the mutant
   proposes D straight into the committed skip, and the committed-slot
   agreement invariant fails within one choice. *)
let mencius_slot_reuse ~mutant () =
  let delivered_12 = ref 0 in
  let fires = ref 0 in
  let blocked ~src ~dst =
    (src = 2 && dst = 2) || (src = 1 && dst = 2 && !delivered_12 >= 2)
  in
  let policy w =
    match next_delivery ~blocked w with
    | Some (Model.Deliver (1, 2) as d) ->
        incr delivered_12;
        Some d
    | Some d -> Some d
    | None ->
        if dump_has_token w ~node:2 "2:S" then None
        else if !fires < 6 then begin
          incr fires;
          Some (Model.Fire (0, "watchdog", 0))
        end
        else None
  in
  {
    (base
       (if mutant then "mencius-slot-reuse" else "mencius-slot-reuse-clean")
       Harness.Mencius
       ~ops:[ put 11 1; put 12 2; put 13 3; put 14 4 ]
       ~targets:[ 0; 1; 1; 2 ] ~timer_budget:1 ~crash_budget:0)
    with
    sc_config = { (config_for Harness.Mencius) with mutant };
    sc_policy = Some policy;
  }

(* MultiPaxos missing takeover from a restarted leader (the PR-1 bug,
   re-armed by [bug_no_takeover_after_restart]).  The policy commits one
   command, then crash-restarts the bootstrap leader, which comes back
   live but demoted — the cluster is leaderless with nobody down.  The
   second command, submitted at node 1, can only commit if node 0's
   watchdog notices the demoted leader and re-runs Phase 1.  The clean
   runtime reaches the all-acked goal; under the mutant the watchdog
   only reacts to a *down* leader, the forward loop collapses into a
   fingerprint cycle, and the goal is unreachable with [complete]
   still true — which is the detection. *)
let mp_takeover ~mutant () =
  let crashed = ref false in
  let policy w =
    if Model.acked w < 1 then next_delivery w
    else
      match next_delivery ~blocked:(fun ~src ~dst -> src = 1 && dst = 1) w with
      | Some d -> Some d
      | None ->
          if not !crashed then begin
            crashed := true;
            Some (Model.Crash 0)
          end
          else if Net.node_down (Model.net w) 0 then Some (Model.Restart 0)
          else None
  in
  {
    (base
       (if mutant then "mp-takeover" else "mp-takeover-clean")
       Harness.Multipaxos
       ~ops:[ put 11 1; put 12 2 ]
       ~targets:[ 0; 1 ] ~timer_budget:2 ~crash_budget:0)
    with
    sc_config = { (config_for Harness.Multipaxos) with mutant };
    sc_policy = Some policy;
  }

(* ---- refinement scope ---- *)

(* The runtime exploration the refinement checker walks: Raft* with the
   bootstrap leader, two writes through both the direct and the
   forwarded path, and zero fault budgets — the scope where every
   runtime transition must project to legal Spec_multipaxos steps (see
   {!Refine} and DESIGN.md for why elections stay out of scope). *)
let refinement () =
  base "refine-raft-star" Harness.Raft_star
    ~ops:[ put 11 1; put 12 2 ]
    ~targets:[ 0; 1 ] ~timer_budget:0 ~crash_budget:0

(* ---- registry ---- *)

let clean_protocols =
  [
    Harness.Raft;
    Harness.Raft_star;
    Harness.Raft_pql;
    Harness.Mencius;
    Harness.Multipaxos;
  ]

(* A protocol spelling, restricted to a scope family's protocols. *)
let among protocols p =
  match Harness.protocol_of_name p with
  | Some proto when List.mem proto protocols -> Some proto
  | _ -> None

let by_name name =
  let rec resolve s =
    match s with
    | "mencius-slot-reuse" -> Some (mencius_slot_reuse ~mutant:true ())
    | "mencius-slot-reuse-clean" -> Some (mencius_slot_reuse ~mutant:false ())
    | "mp-takeover" -> Some (mp_takeover ~mutant:true ())
    | "mp-takeover-clean" -> Some (mp_takeover ~mutant:false ())
    | "refine-raft-star" -> Some (refinement ())
    | s -> (
        let strip prefix =
          if String.length s > String.length prefix
             && String.sub s 0 (String.length prefix) = prefix
          then
            Some (String.sub s (String.length prefix)
                    (String.length s - String.length prefix))
          else None
        in
        let strip_suffix suffix =
          let n = String.length s and m = String.length suffix in
          if n > m && String.sub s (n - m) m = suffix then
            Some (String.sub s 0 (n - m))
          else None
        in
        (* "<steady|crash>-<proto>-batched": resolve the unbatched scope,
           then arm batching on it. *)
        match strip_suffix "-batched" with
        | Some inner
          when Option.is_some (strip "steady-") || Option.is_some (strip "crash-")
          ->
            Option.map batchify (resolve inner)
        | _ -> (
            match strip "steady-sym-" with
            | Some p -> Option.map steady_sym (among sym_protocols p)
            | None -> (
                match strip "steady-" with
                | Some p -> Option.map steady (among clean_protocols p)
                | None -> (
                    match strip "crash-" with
                    | Some p -> Option.map crash (among clean_protocols p)
                    | None -> None))))
  in
  resolve (String.lowercase_ascii name)

let names =
  List.map (fun p -> (steady p).Model.sc_name) clean_protocols
  @ List.map (fun p -> (steady_sym p).Model.sc_name) sym_protocols
  @ List.map (fun p -> (steady_batched p).Model.sc_name) clean_protocols
  @ List.map (fun p -> (steady_sym_batched p).Model.sc_name) sym_protocols
  @ List.map (fun p -> (crash p).Model.sc_name) clean_protocols
  @ List.map (fun p -> (crash_batched p).Model.sc_name) clean_protocols
  @ [
      "mencius-slot-reuse";
      "mencius-slot-reuse-clean";
      "mp-takeover";
      "mp-takeover-clean";
      "refine-raft-star";
    ]
