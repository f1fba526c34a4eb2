let gen_raft_msg = [ Raft.Append { term = 1 }; Raft.Ack { from = 0 } ]

let gen_multipaxos_msg =
  [
    Multipaxos.AcceptMulti { bal = 1 };
    Multipaxos.AcceptOkMulti { bal = 1 };
    Multipaxos.LearnMulti { insts = [ 1 ] };
  ]

let gen_mencius_msg =
  [
    Mencius.MAppendMulti { from = 1 };
    Mencius.MAckMulti { from = 1 };
  ]

let golden_table =
  [
    ("raft-append", `M (Raft.Append { term = 1 }), "00");
    ("raft-ack", `M (Raft.Ack { from = 0 }), "01");
    ("mp-accept-multi", `M (Multipaxos.AcceptMulti { bal = 1 }), "05");
    ("mp-accept-ok-multi", `M (Multipaxos.AcceptOkMulti { bal = 1 }), "06");
    ("mp-learn-multi", `M (Multipaxos.LearnMulti { insts = [] }), "07");
    ("mencius-mappend-multi", `M (Mencius.MAppendMulti { from = 1 }), "0b");
    ("mencius-mack-multi", `M (Mencius.MAckMulti { from = 1 }), "0c");
  ]
