type msg =
  | AcceptMulti of { bal : int }
  | AcceptOkMulti of { bal : int }
  | LearnMulti of { insts : int list }

let handle m =
  match m with
  | AcceptMulti _ -> 4
  | AcceptOkMulti _ -> 5
  | LearnMulti _ -> 6

let make_probes c =
  ignore (c "elections");
  ignore (c "leader_wins");
  ignore (c "ballot_changes");
  ignore (c "accepts_sent");
  ignore (c "acks_sent");
  ignore (c "commits");
  ignore (c "retransmits");
  ignore (c "forwards");
  ignore (c "batch_flush_cmds")
