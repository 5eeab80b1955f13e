(** Scratch oracles for the incremental SAT engines.

    {!Mc.Bmc.check} and {!Mc.Induction.check} keep one live solver per
    obligation. These functions ask the same per-depth queries, each on a
    fresh context and solver, so nothing learnt at one depth reaches the
    next; agreement between the two checks clause retention and assumption
    solving. Both run under the engine's span name ([engine/bmc],
    [engine/k-induction]) and return an outcome mapped like the engine
    facade's: [iterations] is the depth or [k] reached, [work_nodes] is 0
    and [perf] is {!Mc.Engine.empty_perf}. A solve stopped by
    [max_conflicts] or by the [deadline] gives [Resource_out]. *)

val bmc :
  ?max_conflicts:int ->
  ?deadline:Mc.Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  depth:int ->
  Mc.Engine.outcome
(** Iterative deepening over [0 .. depth]: a fresh {!Mc.Bmc.create_inc}
    and one {!Mc.Bmc.solve_depth} per depth. *)

val kind :
  ?max_conflicts:int ->
  ?deadline:Mc.Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  max_k:int ->
  Mc.Engine.outcome
(** k-induction for [k = 0 .. max_k]: per [k], a fresh base case (BMC at
    depth [k]) and a fresh step case ({!Mc.Induction.create_step}). *)
