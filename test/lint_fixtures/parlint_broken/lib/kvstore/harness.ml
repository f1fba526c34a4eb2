(* Raft_ll is missing from chaos_protocols and carries no allow —
   scenario-parity must fire on the constructor. *)
type protocol = Raft | Multipaxos | Raft_ll

let chaos_protocols = [ Raft; Multipaxos ]
let protocol_name = function
  | Raft -> "raft"
  | Multipaxos -> "multipaxos"
  | Raft_ll -> "raft-ll"

type config = { batch_size : int }
