(* Replica server for the real-network runtime: hosts one protocol
   runtime over TCP and prints READY once listening.  Spawned by the
   loopback demo/bench driver, or by hand:

     server.exe --me 0 --protocol raft --port 4100 \
       --peers 127.0.0.1:4100,127.0.0.1:4101,127.0.0.1:4102 *)

module Shell = Raftpax_netshell.Shell
module Harness = Raftpax_kvstore.Harness

let () =
  let me = ref 0 in
  let port = ref 0 in
  let peers = ref "" in
  let protocol = ref "raft" in
  let seed = ref 1 in
  let spec =
    [
      ("--me", Arg.Set_int me, "ID  this replica's id");
      ("--port", Arg.Set_int port, "PORT  listen port");
      ( "--peers",
        Arg.Set_string peers,
        "LIST  comma-separated host:port for every replica, in id order" );
      ( "--protocol",
        Arg.Set_string protocol,
        "NAME  "
        ^ String.concat "|" (List.map Harness.cli_name Harness.all_protocols) );
      ("--seed", Arg.Set_int seed, "N  engine seed");
    ]
  in
  let usage =
    "server.exe --me I --protocol NAME --port P --peers H:P,H:P,..."
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let parse_peer s =
    match String.split_on_char ':' s with
    | [ host; p ] -> (host, int_of_string p)
    | _ -> failwith ("bad peer address " ^ s)
  in
  let peers =
    Array.of_list (List.map parse_peer (String.split_on_char ',' !peers))
  in
  match Harness.protocol_of_name !protocol with
  | None ->
      prerr_endline ("server.exe: unknown protocol " ^ !protocol);
      exit 2
  | Some protocol ->
      Shell.run ~me:!me ~protocol ~port:!port ~peers
        ~seed:(Int64.of_int !seed)
