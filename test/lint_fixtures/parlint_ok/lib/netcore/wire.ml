let put_raft w m = match m with Append _ -> w 0 | Ack _ -> w 1
let get_raft r = if r = 0 then Append { term = 0 } else Ack { from = 0 }

let put_multipaxos w m =
  match m with
  | AcceptMulti _ -> w 3
  | AcceptOkMulti _ -> w 4
  | LearnMulti _ -> w 5

let get_multipaxos r =
  match r with
  | 3 -> AcceptMulti { bal = 0 }
  | 4 -> AcceptOkMulti { bal = 0 }
  | _ -> LearnMulti { insts = [] }

let put_mencius w m =
  match m with
  | MAppendMulti _ -> w 3
  | MAckMulti _ -> w 4

let get_mencius r =
  match r with
  | 3 -> MAppendMulti { from = 0 }
  | _ -> MAckMulti { from = 0 }
