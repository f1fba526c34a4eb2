type protocol =
  | Raft
  | Multipaxos
  | Raft_ll
      [@lint.allow "scenario-parity" "no chaos coverage for leases yet"]

let chaos_protocols = [ Raft; Multipaxos ]
let protocol_name = function
  | Raft -> "raft"
  | Multipaxos -> "multipaxos"
  | Raft_ll -> "raft-ll"

type config = { batch_size : int }
