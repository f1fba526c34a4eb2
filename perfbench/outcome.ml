(* What one workload run hands back to the entry point: the correctness
   gates' verdict, operations attempted and failed, measured values by
   metric name, and extra fields for the run-description line
   (pre-rendered JSON values). *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  info : (string * string) list;
}
