(** Engine facade: one entry point per property check, with resource budgets
    and the paper's escalation workflow ({!auto}: try unbounded BDD
    checking; on resource exhaustion fall back to the partitioned POBDD
    engine and then to bounded checking). *)

type strategy =
  | Bdd_forward
  | Bdd_backward
  | Bdd_combined
  | Pobdd  (** partitioned forward reachability *)
  | Bmc
  | Kind  (** SAT-based k-induction (unbounded) *)
  | Ic3  (** IC3/PDR incremental induction (unbounded, {!Ic3}) *)
  | Portfolio of portfolio
      (** a declarative member list: raced on a pool by the campaign
          scheduler, run by {!check_netlist} as a ladder that stops at the
          first conclusive member. The escalation ladder {!auto} is one. *)

and portfolio = { p_name : string; p_members : member list }

and member = { m_strategy : strategy; m_budget : budget }
(** One portfolio entry: an {e atomic} strategy (not a nested [Portfolio])
    with its own resource budget. Its [wall_deadline_s] is not used: every
    member runs under the deadline of the whole check. *)

and budget = {
  bdd_node_limit : int option;
  pobdd_node_limit : int option;  (** usually larger than [bdd_node_limit] *)
  pobdd_split_vars : int;
  bmc_depth : int;
  induction_max_k : int;
  sat_max_conflicts : int;
  ic3_max_frames : int;  (** IC3 frame-sequence bound *)
  wall_deadline_s : float option;
      (** cooperative wall-clock bound for the whole check, across every
          escalation stage; expiry yields [Resource_out "deadline"] *)
  incremental : bool;
      (** keep one live SAT solver per obligation in BMC/k-induction/IC3
          (clause persistence + learnt-clause retention across depths and
          queries). [false] rebuilds each encoding from scratch — the
          differential-testing oracle, exposed as [--no-incremental] *)
}

val strategy_name : strategy -> string
(** Stable lower-case name, usable in CLI output and cache keys.
    Portfolios render as ["portfolio:<name>"]. *)

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name} for the atomic strategies — the one
    strategy-name parser, shared by every CLI entry point. Portfolio names,
    ["auto"] included, are not parsed here (a portfolio is a structured
    value, not a name). Round-trips: [strategy_of_string (strategy_name s) =
    Some s] for every non-portfolio [s]. *)

val default_budget : budget
(** No wall deadline; the node/conflict limits of the seed configuration. *)

val degrade_budget : budget -> budget
(** One rung down the retry ladder: node limits, SAT conflicts and the wall
    deadline halved (never below 1). Used by the campaign when re-running an
    obligation that crashed its worker. *)

val portfolio : name:string -> member list -> portfolio
(** Validated constructor: raises [Invalid_argument] on an empty member
    list or a nested [Portfolio] member. *)

val auto : budget -> strategy
(** The default strategy: the paper's escalation ladder as the portfolio
    ["auto"] with members [bdd-combined], [pobdd] and [bmc], each at the
    given budget. Run by {!check_netlist} it tries each member in turn
    until one is conclusive or the deadline has passed, and reports the
    last member it ran when none concludes. *)

val default_portfolio : budget -> portfolio
(** The standard racing portfolio derived from a base budget:
    [bdd-combined] with a small speculative node cap, [k-induction], [ic3],
    and a full-budget [pobdd] backstop (so every obligation the {!auto}
    ladder decides is still decided). *)

type verdict =
  | Proved
  | Proved_bounded of int  (** BMC only: no violation up to this depth *)
  | Failed of Trace.t
  | Resource_out of string  (** the paper's "time out happens" *)
  | Error of string
      (** the obligation's engine run crashed (raised) and exhausted its
          retries; the message is the final exception. Never produced by
          {!check_netlist} itself — the campaign runtime turns a captured
          worker crash into this verdict so one poisoned obligation cannot
          lose the rest of the campaign. *)

type perf = {
  bdd_peak : int;  (** largest BDD arena across all attempts (0 if none) *)
  bdd_polls : int;  (** manager interrupt-callback polls, summed *)
  fix_iterations : int;  (** reachability fixpoint iterations, summed *)
  peak_set_size : int;  (** largest frontier/reached-set BDD *)
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  incremental_reuse : int;
      (** SAT solves answered by a warm persistent solver (incremental
          mode), summed across engines; 0 when scratch mode ran *)
  unroll_depth : int;  (** deepest BMC unroll, [-1] if BMC never ran *)
  final_k : int;  (** k-induction's final [k], [-1] if it never ran *)
  ic3_frames : int;  (** IC3's highest frame, [-1] if it never ran *)
  attempts : string list;  (** engines tried, in escalation order *)
}
(** Per-check work measures, captured whether the check concluded or ran out
    of resources. Attached to every {!outcome}, so cached and replayed
    outcomes carry the perf of the run that produced them — summing over a
    campaign's results is therefore schedule-independent. *)

val empty_perf : perf

type outcome = {
  verdict : verdict;
  engine_used : string;
  time_s : float;
  iterations : int;
  work_nodes : int;  (** BDD nodes allocated or CNF clauses, per engine *)
  perf : perf;
}

val resource_cause : outcome -> string option
(** The canonical cause string of a [Resource_out] verdict — one of
    {!ro_causes} — and [None] for every other verdict. *)

(** {2 Canonical [Resource_out] cause strings}

    Every [Resource_out] verdict an engine emits carries one of these
    constants; downstream consumers (campaign cause tallies, the metrics
    schema, the self-healing layer) match on them instead of re-spelling
    the literals. *)

val ro_deadline : string
(** Wall-clock budget exhausted ({b "deadline"}). *)

val ro_bdd_nodes : string
(** BDD manager node limit hit ({b "bdd-nodes"}). *)

val ro_sat_conflicts : string
(** CDCL conflict budget exhausted ({b "sat-conflicts"}). *)

val ro_kind_inconclusive : string
(** k-induction reached max depth undecided ({b "kind-inconclusive"}). *)

val ro_ic3_frames : string
(** IC3 frame budget exhausted ({b "ic3-frames"}). *)

val ro_cancelled : string
(** A racing sibling concluded first ({b "cancelled"}). *)

val ro_heal_exhausted : string
(** Self-healing ran out of CEGAR iterations or usable cuts
    ({b "heal-exhausted"}). *)

val ro_causes : string list
(** All canonical causes, in a fixed documentation order. *)

val conclusive : outcome -> bool
(** [Proved] or [Failed]: a verdict that settles the obligation. Bounded
    proofs, resource-outs and errors are inconclusive — a racing sibling
    must not be cancelled on their account. *)

val combine_portfolio : outcome list -> outcome
(** Fold an index-ordered list of member outcomes into the attributed
    portfolio outcome. The attribution prefix runs from member 0 through
    the first {!conclusive} member (the whole list when none concludes);
    the winner is the best-ranked outcome of that prefix (conclusive >
    bounded-deeper > resource-out > error). Equal ranks go to the larger
    index, so a ladder that concludes nothing reports its last rung. The
    combined [perf] merges exactly the prefix — never the
    schedule-dependent members a race may or may not have started beyond
    it. Both the sequential ladder and the racing scheduler report through
    this one function, which is what keeps seq ≡ race aggregates
    byte-identical. *)

val check_netlist :
  ?budget:budget ->
  ?constraint_signal:string ->
  ?deadline:Deadline.t ->
  strategy:strategy ->
  Rtl.Netlist.t ->
  ok_signal:string ->
  outcome
(** Check that the 1-bit [ok_signal] holds in every reachable state.
    [constraint_signal] names a 1-bit combinational function of the primary
    inputs; only inputs satisfying it are explored (invariant input
    assumptions).

    [deadline] bounds the whole check; it defaults to
    [budget.wall_deadline_s] fixed on entry. It is polled cooperatively in
    every engine loop (BDD fixpoint iterations and node allocations, POBDD
    partitions, BMC unroll frames, CDCL search steps, IC3 obligations); an
    expired wall clock yields [Resource_out "deadline"] in bounded time
    instead of hanging. A deadline that expired through its stop hook alone
    ({!Deadline.with_stop}, the racing scheduler's cancellation path) yields
    [Resource_out "cancelled"]. A [Portfolio] strategy runs its members in
    order under this one deadline, stops at the first conclusive member,
    and starts no member after the deadline has passed. *)

val instrumented_netlist :
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  Rtl.Netlist.t * string * string option
(** The preparation half of {!check_property}: inline the property's boolean
    layer, prune irrelevant assumptions, lower invariant input assumptions to
    an engine-level constraint, synthesize the safety monitor, elaborate and
    cone-reduce. Returns [(netlist, ok_signal, constraint_signal)] — exactly
    what {!check_netlist} consumes. {!Obligation.prepare} builds on this to
    make the prepared check a first-class, schedulable value. *)

val replay_model :
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  Rtl.Netlist.t * string * string option
(** {!instrumented_netlist} without the final cone-of-influence reduction:
    the same inlining, assumption pruning, constraint lowering and monitor
    synthesis, but every module signal is kept. This is the model the
    diagnosis layer replays counterexamples on — the simulator cross-check
    then exercises an independently-prepared model (no COI), and the replay
    exposes the full internal/output signal set (e.g. the [HE] report bus)
    that the reduced engine model may have pruned away. Inputs of the
    reduced model are a subset of this model's inputs; replaying a reduced
    trace with the pruned inputs held at zero cannot change the property
    cone (that is what the COI reduction proved). *)

val prepare_module :
  Rtl.Mdl.t ->
  props:(string * Psl.Ast.fl * Psl.Ast.fl list) list ->
  (string * (Rtl.Netlist.t * string * string option)) list
(** Shared preparation for all properties of one module: the module-level
    work (inliner tables, the pruner's raw elaboration, monitor weaving,
    the single full elaborate) runs once, then each property gets its own
    cone-of-influence reduction from its own monitor roots. Input is
    [(name, assert, assumes)] per property; output pairs each name with
    exactly what {!instrumented_netlist} would have returned for it: each
    property's cone holds only its own monitor (monitors are independent
    cones), and the weaving prefix is folded back to the unshared path's
    [mon], so the reduced models are name-identical — same canonical
    fingerprints, and trace register names stay replayable against
    {!replay_model} — at roughly [1/n] of the preparation cost for an
    [n]-property module. *)

val check_property :
  ?budget:budget ->
  ?strategy:strategy ->
  Rtl.Mdl.t ->
  assert_:Psl.Ast.fl ->
  assumes:Psl.Ast.fl list ->
  outcome
(** Instrument a leaf module with the property monitor, elaborate it in
    isolation, and check. This is the paper's per-leaf-module model-checking
    step. [strategy] defaults to [auto budget]. *)

val problem_size :
  Rtl.Mdl.t -> assert_:Psl.Ast.fl -> assumes:Psl.Ast.fl list -> int * int
(** [(state bits, input bits)] of the instrumented, cone-reduced model the
    engines would actually check — the paper's "problem size of the
    properties". *)

val check_vunit :
  ?budget:budget ->
  ?strategy:strategy ->
  Rtl.Mdl.t ->
  Psl.Ast.vunit ->
  (string * outcome) list
(** Run every [assert] of a vunit against the module, under all its
    [assume]s. Returns per-property outcomes keyed by property name. *)
