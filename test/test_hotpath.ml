(* Differential snapshots for the hot-path rewrites.

   The perf work replaced list accumulators rebuilt per message
   (Raft*'s [vote_extras], MultiPaxos's [gathered]) and restructured the
   commit scan and election-timer scheduling.  These tests pin the
   observable outcome — the committed command sequence at every replica
   after a run that forces leader churn with uncommitted entries in
   flight — to golden digests captured before the rewrites: the
   optimized paths must commit byte-identical histories.

   Regenerate goldens (after an *intentional* behavior change only) with

     HOTPATH_PRINT=1 dune exec test/test_hotpath.exe

   and the batched-mode table with

     HOTPATH_PRINT=1 HOTPATH_BATCH=16,2000 dune exec test/test_hotpath.exe
*)

module Sim = Raftpax_sim
module Engine = Sim.Engine
module Net = Sim.Net
module Topology = Sim.Topology
module Types = Raftpax_consensus.Types
module Harness = Raftpax_kvstore.Harness
module Workload = Raftpax_kvstore.Workload

(* FNV-1a, 64-bit.  Stable, dependency-free digest of the canonical
   committed-history string. *)
let fnv1a (s : string) : string =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  Printf.sprintf "%016Lx" !h

(* A closed-loop run that manufactures the accumulator-heavy scenario in
   two acts.

   Act 1 (partition, 1.0s–4.8s) targets Raft*'s [vote_extras].  Extras
   only ship when a voter's log is *longer* than the candidate's while
   the candidate's tip term is *newer*, so we build exactly that shape:
   the bootstrap leader 0 is cut off with follower 1 and fed extra
   writes (a long uncommitted term-1 tail on both), while the majority
   side {2,3,4} elects its own leader and appends a short term-2 tail.
   Side B is then crashed, the partition healed, and side B restarted —
   the next election pits a side-B candidate (short log, newer tip term)
   against voters 0/1 (long log, older tip term), which grant *with*
   extras that the winner folds through [vote_extras].

   Act 2 (crash, 6.8s–10.4s) targets MultiPaxos's [gathered]: crashing
   node 0 — the MultiPaxos leader, since partitions never trigger its
   takeover watchdog — with entries in flight forces a takeover whose
   phase 1 gathers every accepted instance into [gathered].

   Everything is simulated, so the committed history is a deterministic
   function of (protocol, seed). *)
let run_scenario ?(batch_size = 1) ?(batch_delay_us = 0) protocol seed =
  let engine = Engine.create ~seed:(Int64.of_int seed) () in
  let nodes = List.mapi (fun i site -> { Net.id = i; site }) Topology.sites in
  let net = Net.create engine ~nodes in
  let regions = List.length Topology.sites in
  let cluster =
    Harness.make_wired ~batch_size ~batch_delay_us protocol net ~leader:0
  in
  let wl =
    Workload.create ~seed:(Int64.of_int seed) ~regions
      {
        Workload.default with
        Workload.clients_per_region = 2;
        read_fraction = 0.5;
        conflict_rate = 0.2;
        records = 50;
      }
  in
  (* No client-side retry: an op swallowed by a crash just stalls its
     client, which keeps the op stream a pure function of completion
     order. *)
  let rec client_loop region () =
    let op = Workload.next_op wl ~region in
    ignore @@ cluster.Harness.w_instance.submit ~node:region op (fun _reply ->
        if Engine.now engine < 14_000_000 then client_loop region ())
  in
  for region = 0 to regions - 1 do
    for _ = 1 to 2 do
      let jitter = Sim.Rng.int (Engine.rng engine) 50_000 in
      Engine.schedule engine ~delay:jitter (client_loop region)
    done
  done;
  (* Direct injections (distinct key space, above the workload's
     [records]) used to grow the diverged tails on cue. *)
  let inject ~node key =
    ignore @@ cluster.Harness.w_instance.submit ~node
      (Types.Put { key; size = 64; write_id = 9000 + key })
      (fun _reply -> ())
  in
  (* Act 1: partition {0,1} | {2,3,4}. *)
  Engine.run engine ~until:1_000_000;
  let side a = if a <= 1 then 0 else 1 in
  Net.set_partition net (Some (fun a b -> side a <> side b));
  (* Long uncommitted tail on the isolated old leader's side. *)
  for i = 0 to 9 do
    Engine.run engine ~until:(1_100_000 + (50_000 * i));
    inject ~node:0 (60 + i)
  done;
  (* Side B is a quorum of the five, so once its longest-log member's
     timeout fires first it elects and commits a term-2 no-op.  Races
     among the equal-log members fail, so give it several rounds, then
     feed the new leader a short newer-term tail. *)
  Engine.run engine ~until:6_500_000;
  List.iter (fun n -> inject ~node:n (80 + n)) [ 2; 3; 4 ];
  (* Depose side B's leader without naming it: crash the whole side,
     heal, restart.  Everyone comes back a follower and the next
     election solicits the long-log/old-term voters 0 and 1. *)
  Engine.run engine ~until:7_000_000;
  List.iter (fun node -> cluster.Harness.crash ~node) [ 2; 3; 4 ];
  Net.set_partition net None;
  Engine.run engine ~until:7_300_000;
  List.iter (fun node -> cluster.Harness.restart ~node) [ 2; 3; 4 ];
  (* Act 2: crash node 0 with traffic in flight. *)
  Engine.run engine ~until:9_500_000;
  cluster.Harness.crash ~node:0;
  Engine.run engine ~until:13_100_000;
  cluster.Harness.restart ~node:0;
  (* Run past node 0's next 3s watchdog tick: the restarted node comes
     back a non-leader and is lowest-live, so its tick re-runs phase 1 —
     the takeover path that folds survivors' accepted instances through
     [gathered]. *)
  Engine.run engine ~until:16_500_000;
  let buf = Buffer.create 4096 in
  for node = 0 to regions - 1 do
    Buffer.add_string buf (Printf.sprintf "n%d=[" node);
    List.iter
      (fun op ->
        Buffer.add_string buf (Types.render_op op);
        Buffer.add_char buf ';')
      (cluster.Harness.w_instance.committed_ops ~node);
    Buffer.add_string buf "];"
  done;
  fnv1a (Buffer.contents buf)

(* Seeds chosen (by instrumenting the accumulator folds) so the Raft*
   runs actually ship extras in the post-heal election — the longest-log
   side-B member must win its side's election race during the partition
   for the tip terms to diverge.  All three exercise [vote_extras] under
   Raft*; 2 and 12 also do under Raft*-PQL; every seed exercises
   MultiPaxos's [gathered]. *)
let seeds = [ 2; 6; 12 ]

(* The protocols with goldens.  Raft*-LL shares Raft*'s write path and
   differs only in where reads are served. *)
let protocols = Harness.[ Raft; Raft_star; Raft_pql; Mencius; Multipaxos ]

(* Golden digests captured from the pre-rewrite tree (list accumulators,
   per-index commit scan, cancel-and-reschedule election timers).  The
   optimized code must reproduce them byte for byte.

   Exception: the Raft* and Raft*-PQL digests were re-captured after the
   Star acceptor-rule fixes (never-shorten guard, unconditional ballot
   rewrite, verified commit frontier — see raft.ml's Append handler):
   those change Star's committed histories by design.  Vanilla Raft,
   Mencius and MultiPaxos digests still match the seed tree. *)
let goldens =
  [
    ("Raft/seed2", "6ca8586255d66e7f");
    ("Raft/seed6", "62861868be2ab828");
    ("Raft/seed12", "7a2d0d48bbbe9d37");
    ("Raft*/seed2", "32ed2f6419e0abb3");
    ("Raft*/seed6", "ab0aa81d8f2b57f0");
    ("Raft*/seed12", "178da9f557336978");
    ("Raft*-PQL/seed2", "629695b1e7640d64");
    ("Raft*-PQL/seed6", "76b8bd8808478a54");
    ("Raft*-PQL/seed12", "70d71c4df714a5ed");
    ("Raft*-Mencius/seed2", "0dcc9c0ab71c2393");
    ("Raft*-Mencius/seed6", "de6ca8fcdcebe884");
    ("Raft*-Mencius/seed12", "c163b553b4b5e990");
    ("MultiPaxos/seed2", "67809d81b1417866");
    ("MultiPaxos/seed6", "4cff576b9906e673");
    ("MultiPaxos/seed12", "7db9382849121278");
  ]

(* The same scenario with leader-side batching armed (engine-bench
   knobs: size 16, 2 ms flush).  Batched histories legitimately differ
   from unbatched ones — replication interleaves differently — so they
   get their own golden table pinning the batched commit order. *)
let batch_knobs = (16, 2_000)

let batched_goldens =
  [
    ("Raft/seed2", "71ebb2f5484b2176");
    ("Raft/seed6", "8751039ae3af2952");
    ("Raft/seed12", "1c8218caedfa7156");
    ("Raft*/seed2", "6ad8854605a3a608");
    ("Raft*/seed6", "8751039ae3af2952");
    ("Raft*/seed12", "1b43da1c2fee063b");
    ("Raft*-PQL/seed2", "fb0ffd52ac1009c2");
    ("Raft*-PQL/seed6", "2496d20a371f1509");
    ("Raft*-PQL/seed12", "b7195c35bb7f5e49");
    ("Raft*-Mencius/seed2", "0bcc052b7ca66b47");
    ("Raft*-Mencius/seed6", "c9733652de3f240a");
    ("Raft*-Mencius/seed12", "dddeef4d8fe3df81");
    ("MultiPaxos/seed2", "471dd25a761b2f75");
    ("MultiPaxos/seed6", "bfb5c994a1c1a966");
    ("MultiPaxos/seed12", "0b425fd48fc49f48");
  ]

let check_goldens ?batch_size ?batch_delay_us table () =
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let name =
            Printf.sprintf "%s/seed%d" (Harness.protocol_name protocol) seed
          in
          let got = run_scenario ?batch_size ?batch_delay_us protocol seed in
          match List.assoc_opt name table with
          | Some want -> Alcotest.(check string) name want got
          | None -> Alcotest.failf "no golden for %s (got %s)" name got)
        seeds)
    protocols

let test_goldens = check_goldens goldens

let test_batched_goldens =
  check_goldens ~batch_size:(fst batch_knobs) ~batch_delay_us:(snd batch_knobs)
    batched_goldens

(* batch_size = 1 must reproduce the unbatched histories byte-for-byte
   whatever the flush delay says — the accumulator paths are bypassed
   entirely, so the *committed* goldens are the oracle, not a separate
   table. *)
let test_batch1_identity () =
  List.iter
    (fun protocol ->
      let name = Printf.sprintf "%s/seed2" (Harness.protocol_name protocol) in
      let got = run_scenario ~batch_size:1 ~batch_delay_us:2_000 protocol 2 in
      Alcotest.(check string) name (List.assoc name goldens) got)
    protocols

let print_goldens () =
  let seeds =
    match Sys.getenv_opt "HOTPATH_SEEDS" with
    | None -> seeds
    | Some s -> String.split_on_char ',' s |> List.map int_of_string
  in
  let batch_size, batch_delay_us =
    match Sys.getenv_opt "HOTPATH_BATCH" with
    | None -> (1, 0)
    | Some s -> (
        match String.split_on_char ',' s with
        | [ b; d ] -> (int_of_string b, int_of_string d)
        | _ -> failwith "HOTPATH_BATCH=<size>,<delay_us>")
  in
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          Printf.eprintf "RUN %s/seed%d\n%!" (Harness.protocol_name protocol) seed;
          Printf.printf "    (\"%s/seed%d\", \"%s\");\n"
            (Harness.protocol_name protocol)
            seed
            (run_scenario ~batch_size ~batch_delay_us protocol seed))
        seeds)
    protocols

(* Determinism across repeated in-process runs: the digest depends only
   on (protocol, seed), not on allocation history or prior runs. *)
let determinism =
  QCheck.Test.make ~count:8 ~name:"scenario digest is deterministic"
    QCheck.(
      pair (int_range 0 (List.length protocols - 1)) (int_range 1 500))
    (fun (pi, seed) ->
      let protocol = List.nth protocols pi in
      String.equal (run_scenario protocol seed) (run_scenario protocol seed))

let () =
  if Sys.getenv_opt "HOTPATH_PRINT" <> None then print_goldens ()
  else
    Alcotest.run "hotpath"
      [
        ( "differential",
          [
            Alcotest.test_case "golden digests" `Slow test_goldens;
            Alcotest.test_case "batched golden digests" `Slow
              test_batched_goldens;
            Alcotest.test_case "batch=1 reproduces unbatched goldens" `Slow
              test_batch1_identity;
            QCheck_alcotest.to_alcotest determinism;
          ] );
      ]
