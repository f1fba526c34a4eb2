(* End-to-end smoke for the real-network runtime: spawns a genuine
   3-node loopback cluster of server.exe processes, drives it over TCP,
   and gates on byte-identical applied-state snapshots.  Kept small —
   the CI net-smoke job runs the 1000-op version; this pins that the
   machinery works at all under `dune runtest`. *)

module Driver = Raftpax_netshell.Driver
module Harness = Raftpax_kvstore.Harness

let test_loopback_demo () =
  let r =
    Driver.demo ~protocol_name:"raft" ~n:3 ~ops:60 ~clients_per_node:2 ~seed:11
  in
  Alcotest.(check bool) "demo converged with identical snapshots" true
    r.Driver.d_ok;
  Alcotest.(check bool) "completed >= 60" true (r.Driver.d_completed >= 60);
  Alcotest.(check int) "three snapshots" 3 (Array.length r.Driver.d_snapshots)

(* Every protocol's message projection crosses a real socket: the same
   command stream through the network and the simulator must leave
   identical applied state. *)
let test_crosscheck protocol () =
  let r =
    Driver.crosscheck ~protocol_name:(Harness.cli_name protocol) ~n:3 ~ops:30
      ~seed:5
  in
  Alcotest.(check bool)
    (Printf.sprintf "net %s = sim %s" r.Driver.c_net_digest r.Driver.c_sim_digest)
    true r.Driver.c_ok

(* ---- repro CLI contract ---- *)

let repro_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/repro.exe"

let run_capture args =
  let err = Filename.temp_file "repro_test" ".err" in
  let cmd =
    Printf.sprintf "%s %s 2>%s" (Filename.quote repro_exe) args
      (Filename.quote err)
  in
  let code =
    match Sys.command cmd with
    | c -> c
  in
  let ic = open_in_bin err in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove err;
  (code, s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let test_unknown_subcommand () =
  let code, err = run_capture "frobnicate" in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "names the typo" true
    (contains ~sub:"unknown subcommand 'frobnicate'" err);
  (* the usage line must enumerate every real subcommand, including net *)
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("usage lists " ^ sub) true (contains ~sub err))
    [
      "check"; "refine"; "port"; "simulate"; "trace"; "shard"; "nemesis";
      "mcheck"; "topology"; "lint"; "net";
    ]

(* Every entry point parses protocols through one spelling table: a
   name the tools print parses back, and the chaos matrix still refuses
   Raft*-LL. *)
let test_protocol_spellings () =
  let code, err =
    run_capture "simulate 'Raft*-PQL' --duration 1 --clients 1 >/dev/null"
  in
  Alcotest.(check int) ("simulate Raft*-PQL: " ^ err) 0 code;
  let code, err = run_capture "nemesis raft-ll --seeds 1 >/dev/null" in
  Alcotest.(check int) "nemesis raft-ll refused" 2 code;
  Alcotest.(check bool) "names the protocol" true
    (contains ~sub:"unknown protocol \"raft-ll\"" err)

let () =
  Alcotest.run "net_harness"
    [
      ( "loopback",
        [
          Alcotest.test_case "3-node raft demo" `Quick test_loopback_demo;
        ]
        @ List.map
            (fun p ->
              Alcotest.test_case
                (Harness.cli_name p ^ " sim-vs-net crosscheck")
                `Quick (test_crosscheck p))
            Harness.all_protocols );
      ( "cli",
        [
          Alcotest.test_case "unknown subcommand fails loudly" `Quick
            test_unknown_subcommand;
          Alcotest.test_case "one protocol spelling table" `Quick
            test_protocol_spellings;
        ] );
    ]
