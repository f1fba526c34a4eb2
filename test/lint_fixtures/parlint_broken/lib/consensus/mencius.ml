(* Deliberate fault: MAckMulti is missing from the msg type with no
   allow, while multipaxos has AcceptOkMulti — handler-parity
   missing-member must fire on the ack family. *)
type msg =
  | MAppendMulti of { from : int }
  | MCommitMulti of { insts : int list }

let handle m =
  match m with
  | MAppendMulti _ -> 4
  | MCommitMulti _ -> 5

let make_probes c =
  ignore (c "elections");
  ignore (c "revocations_value");
  ignore (c "appends_sent");
  ignore (c "acks_sent");
  ignore (c "commits");
  ignore (c "skips_announced");
  ignore (c "retransmits");
  ignore (c "forwards");
  ignore (c "batch_flush_cmds")
