(** The full formal-verification campaign over the chip: every stereotype
    property of every leaf module, with the engine escalation the paper
    describes. Regenerates the data behind Table 2.

    The campaign is a scheduler over first-class proof obligations
    ({!Mc.Obligation}): enumeration produces one work item per assert,
    preparation + execution run on a pluggable {!Executor} (sequential or an
    OCaml 5 domain pool via [?jobs]), and every prepared check is answered
    through a structural result cache ({!Mc.Cache}) keyed on the reduced
    netlist's canonical fingerprint — so the N structurally identical
    subunits of a category are proved once. Preparation is shared the same
    way one level up: modules whose bodies (name aside) and properties are
    equal are prepared and fingerprinted once, and a cache that already
    holds a structure's fingerprints (its first level, see {!Mc.Cache})
    skips that structure's preparation unless an obligation misses. Results
    are index-ordered, so verdicts are identical whatever the backend or
    job count.

    The runtime is fault-tolerant in three layers:
    - {b deadlines} — set [wall_deadline_s] in the budget and any obligation
      that overruns it yields [Resource_out "deadline"] instead of hanging a
      worker;
    - {b crash isolation + retry} — an obligation whose engine run raises is
      retried with a degraded budget ({!Mc.Engine.degrade_budget}, capped by
      [max_retries], exponential backoff); a crash on the last rung becomes
      an {!Mc.Engine.Error} verdict in its row, and the executor's per-item
      isolation catches anything that escapes (e.g. a crash in preparation),
      so one poisoned obligation can never lose the rest of the campaign;
    - {b checkpoint/resume} — pass a {!Journal} and every completed
      obligation is fsync'd to disk as it finishes; reopening the journal
      with [~resume:true] replays those verdicts without re-running engines.
      [Error] verdicts are neither cached nor journaled, so transient
      crashes are re-attempted on resume. *)

type prop_result = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : Verifiable.Propgen.prop_class;
  outcome : Mc.Engine.outcome;
  bug : Chip.Bugs.id option;  (** bug seeded in the module, if any *)
  cache_hit : bool;  (** verdict reused from the structural cache *)
  replayed : bool;  (** verdict replayed from the resume journal *)
  attempts : int;
      (** engine runs performed for this result: 1 for a clean fresh run,
          [> 1] after crash retries, 0 for cache hits and replays *)
  healed : bool;
      (** the verdict is conclusive {e because} the self-healing layer
          recovered it from a [Resource_out] (engine attribution
          {!Heal.engine_name}) — set both when healed in this run and when a
          healed verdict is replayed from the journal or cache *)
}

type row = {
  cat : string;
  subs : int;
  bugs_found : int;  (** defective modules whose seeded bug was exposed *)
  p0 : int;
  p1 : int;
  p2 : int;
  p3 : int;
  total : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;  (** obligations that crashed through the whole retry ladder *)
  time_s : float;
}

type progress = {
  done_ : int;  (** obligations completed so far; never exceeds [total] *)
  total : int;
  retries : int;  (** crash re-runs performed so far *)
  cache_hits : int;  (** of the completed, answered from the cache *)
  replayed : int;  (** of the completed, replayed from the journal *)
}

type work = {
  w_category : string;
  w_mdl : Rtl.Mdl.t;  (** the Verifiable-RTL leaf the property binds to *)
  w_vunit_name : string;
  w_prop_name : string;
  w_assert : Psl.Ast.fl;
  w_assumes : Psl.Ast.fl list;
  w_cls : Verifiable.Propgen.prop_class;
  w_bug : Chip.Bugs.id option;
}
(** One schedulable unit of campaign work: everything needed to prepare and
    run a single property check, plus its provenance. Exposed so downstream
    consumers (e.g. the counterexample diagnosis layer) can re-prepare the
    exact obligation behind a campaign result row. *)

val work_items : Chip.Generator.t -> work list
(** The campaign's work list in scheduling order: one item per assert of
    every stereotype vunit of every leaf, matching [run]'s result order. *)

type heal_totals = {
  heal_attempted : int;  (** resource-out obligations handed to the healer *)
  heal_recovered : int;  (** converted to a conclusive verdict *)
  heal_proved : int;
  heal_failed : int;  (** real failures confirmed by concrete replay *)
  heal_exhausted : int;
      (** gave up after the CEGAR budget — now [Resource_out
          "heal-exhausted"] *)
  heal_unhealable : int;  (** cone held no usable cuts; verdict untouched *)
  heal_spurious : int;  (** counterexamples refuted by concrete replay *)
  heal_cegar_iters : int;  (** freed-cut final checks run, total *)
  heal_subs_proved : int;  (** parity sub-proofs that succeeded *)
  heal_bad_cuts : int;  (** mined candidates skipped as unfreeable *)
  heal_pieces : int;  (** derived obligations consulted, incl. cache hits *)
  heal_wall_s : float;
}
(** Recovery-pass totals of one run. A resumed run that replays already
    healed verdicts reports those under {!prop_result.healed} (and the
    metrics' [healed_rows]), not here — these count this run's own work. *)

type t = {
  results : prop_result list;
  rows : row list;  (** one per category, in A..E order *)
  grand_total : row;
  wall_time_s : float;
  cache_hits : int;  (** checks answered from the cache during this run *)
  retries : int;  (** crash re-runs performed during this run *)
  replayed : int;  (** checks replayed from the journal *)
  healing : heal_totals option;  (** present iff [run] got [?self_heal] *)
}

val run :
  ?budget:Mc.Engine.budget ->
  ?strategy:Mc.Engine.strategy ->
  ?portfolio:Mc.Engine.portfolio ->
  ?progress:(progress -> unit) ->
  ?jobs:int ->
  ?race_jobs:int ->
  ?cache:Mc.Cache.t ->
  ?journal:Journal.t ->
  ?max_retries:int ->
  ?retry_backoff_s:float ->
  ?fault_hook:
    (module_name:string ->
    prop_name:string ->
    fingerprint:string ->
    attempt:int ->
    unit) ->
  ?self_heal:int ->
  ?status:Status.t ->
  Chip.Generator.t ->
  t
(** [jobs] selects the executor backend: absent or [<= 1] runs sequentially,
    [n] runs on a pool of [n] domains. [cache] is the structural result
    cache; a private one is created per run when absent (deduplicating
    within the run), while passing a shared cache additionally reuses
    verdicts across runs — e.g. the post-fix re-campaign. [progress] may be
    invoked from worker domains, serialized under a lock.

    [portfolio] overrides [strategy] with [Portfolio p] and, on a pool,
    switches the campaign to the racing scheduler
    ({!Executor.race_map_result}): each cache-missing obligation fans out
    into one speculative engine run per member, the first conclusive
    verdict cancels the surviving siblings, and
    {!Mc.Engine.combine_portfolio} folds the attributed prefix. On one job
    the same portfolio runs as the engine's sequential short-circuiting
    ladder, so verdicts, attributed perf and cache/journal keys are
    identical between the two modes — racing changes wall time, not
    answers. [race_jobs] caps one obligation's concurrent member runs
    (default: the pool size). Under racing, member crashes become
    non-conclusive [Error] member outcomes (no retry ladder) and
    [fault_hook] runs once per member with [attempt] = member index + 1.

    [journal] checkpoints every completed obligation and replays the records
    it was opened with (see {!Journal.create} [~resume]). [max_retries]
    (default 2) caps crash re-runs per obligation; each retry degrades the
    budget via {!Mc.Engine.degrade_budget} and sleeps [retry_backoff_s]
    (default 0.05s) doubling per rung, capped at 1s. [fault_hook], intended
    for tests, runs in the worker just before each real engine attempt
    (never for cache hits or replays) — it can count engine invocations or
    inject crashes.

    [status] is a live {!Status} model the runtime keeps current: totals
    and phase on entry, per-lane in-flight obligations around every engine
    attempt (including racing members and retry rungs), verdict tallies and
    cache/replay/race/heal attribution as obligations finish, and
    reclassification as the healing pass recovers resource-outs. Purely
    observational — it never affects scheduling, verdicts or keys, so seq ≡
    pool determinism holds with or without it. The runtime also records
    flight-recorder events ({!Obs.Flight}: [ob.done], [ob.retry],
    [race.member], [heal.*]) whenever a recorder is enabled.

    [self_heal] turns on the automatic Figure 7 recovery pass
    ({!Heal.heal_one}) over every [Resource_out] result, with at most
    [self_heal] freed-cut final checks per obligation. Healing pieces run
    through the same prepare/cache/journal path as first-class obligations
    under cut-salted fingerprints, and a healed verdict is journaled under
    the monolithic key after the original resource-out record — so
    [~resume] replays healing without re-proving any piece. The pass is
    parallelized across obligations on the same executor and is
    deterministic: sequential, pooled and raced campaigns heal to identical
    verdicts. *)

val failed_results : t -> prop_result list

val pp_table2 : Format.formatter -> t -> unit
(** The paper's Table 2, plus an [RO] (resource-out) column and, when any
    obligation ran out of resources, a final ["resource-out causes:"] line
    breaking the RO count down by canonical cause
    ({!Mc.Engine.resource_cause}). *)

type perf_totals = {
  engine_time_s : float;  (** summed engine wall time over all results *)
  engine_attempts : int;  (** engine runs, counting escalation stages *)
  fix_iterations : int;
  bdd_peak : int;  (** largest single BDD arena anywhere in the campaign *)
  peak_set_size : int;
  bdd_polls : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  max_unroll_depth : int;  (** [-1] if BMC never ran *)
  max_final_k : int;  (** [-1] if k-induction never ran *)
  max_ic3_frames : int;  (** [-1] if IC3 never ran *)
}
(** Engine-work totals summed (or maxed) over every result row. Cached and
    replayed rows carry the perf of the run that originally produced them,
    so these totals are schedule-independent: a sequential run and a domain
    pool over the same chip agree exactly. *)

val aggregate_perf : t -> perf_totals

val resource_out_causes : t -> (string * int) list
(** Count of [Resource_out] results per canonical cause, in the
    {!Mc.Engine.ro_causes} vocabulary order (any non-canonical cause — which
    would indicate an engine bug — sorts after, alphabetically). *)

val wins_by_engine : t -> (string * int) list
(** Results per winning engine ([outcome.engine_used]), sorted by engine
    name. Under a portfolio this is the per-strategy win count — which
    member's verdict each obligation was attributed to. Cached and replayed
    rows count the engine of the producing run, so the tally is
    schedule-independent (seq ≡ race). *)

val to_metrics_json : ?report:Obs.Telemetry.report -> ?jobs:int -> t -> string
(** The campaign summary as pretty-printed JSON (schema
    ["dicheck-metrics-v1"]): grand totals and per-category rows mirroring
    Table 2, {!aggregate_perf} under ["perf"], {!resource_out_causes},
    {!wins_by_engine} under ["strategy_wins"], and — when a telemetry
    [report] is supplied — the raw sink counters. *)

val write_metrics_json :
  ?report:Obs.Telemetry.report -> ?jobs:int -> t -> string -> unit

val to_csv : t -> string
(** One row per property: category, module, vunit, property, class, verdict,
    resource cause, engine, wall ms, iterations, BDD peak, SAT conflicts,
    cache hit, replayed, attempts, bug. Suitable for spreadsheet import or
    regression diffing. *)

val write_csv : t -> string -> unit
