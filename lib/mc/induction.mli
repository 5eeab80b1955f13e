(** k-induction: an unbounded SAT-based proof engine.

    For increasing [k], the base case (no violation within [k] cycles from
    reset — plain BMC) and the inductive step (any [k] consecutive
    property-satisfying states, starting anywhere, can only step to a
    satisfying state) are checked. If both hold, the property is proved for
    all time; if the base case fails, the BMC counterexample is returned. *)

type stats = {
  k : int;  (** the depth at which the result was established *)
  cnf_vars : int;
  cnf_clauses : int;
  decisions : int;  (** summed over every base-case and step-case solve *)
  conflicts : int;
  propagations : int;
  restarts : int;
  reused : int;  (** solves answered by a warm solver *)
}

type result =
  | Proved_by_induction of stats
  | Violation of Trace.t * stats
  | Inconclusive of stats
      (** [max_k] reached with the step case still failing, or the solver
          budget ran out *)

val check :
  ?max_conflicts:int ->
  ?max_k:int ->
  ?deadline:Deadline.t ->
  ?constraint_signal:string ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  result
(** [max_k] defaults to 20. The inductive step is the plain variant (no
    state-uniqueness constraints), which is sound but may stay inconclusive
    on properties that need strengthening. One live base-case unroller
    ({!Bmc.create_inc}) and one live step context ({!create_step}) serve
    the whole run, so iteration [k+1] only encodes the new frame.
    [deadline] is threaded into every base-case and step-case SAT search;
    expiry raises {!Deadline.Expired} between iterations and yields
    {!Inconclusive} from within a search. *)

(** {1 Step context}

    Exposed, like {!Bmc.create_inc}, so the scratch oracle ([Qa.Scratch],
    a fresh context per [k]) can drive the step-case queries directly. *)

type step

val create_step :
  ?constraint_signal:string -> Rtl.Netlist.t -> ok_signal:string -> step

val solve_step :
  ?max_conflicts:int ->
  ?should_stop:(unit -> bool) ->
  step ->
  k:int ->
  [ `Inductive | `Not_inductive | `Unknown ] * Solver.stats
(** The step case of iteration [k]: can [k+1] consecutive
    property-satisfying states from a free start step to a violating one?
    [`Inductive] (UNSAT) together with a clean base case up to [k] proves
    the property. Calls on one context must use non-decreasing [k]; the
    live encoding is extended as needed. Returns the per-call solver
    stats. *)
