type strategy =
  | Bdd_forward
  | Bdd_backward
  | Bdd_combined
  | Pobdd
  | Bmc
  | Kind
  | Ic3
  | Portfolio of portfolio

and portfolio = { p_name : string; p_members : member list }

and member = { m_strategy : strategy; m_budget : budget }

and budget = {
  bdd_node_limit : int option;
  pobdd_node_limit : int option;
  pobdd_split_vars : int;
  bmc_depth : int;
  induction_max_k : int;
  sat_max_conflicts : int;
  ic3_max_frames : int;
  wall_deadline_s : float option;
}

let strategy_name = function
  | Bdd_forward -> "bdd-forward"
  | Bdd_backward -> "bdd-backward"
  | Bdd_combined -> "bdd-combined"
  | Pobdd -> "pobdd"
  | Bmc -> "bmc"
  | Kind -> "k-induction"
  | Ic3 -> "ic3"
  | Portfolio p -> "portfolio:" ^ p.p_name

let strategy_of_string = function
  | "bdd-forward" -> Some Bdd_forward
  | "bdd-backward" -> Some Bdd_backward
  | "bdd-combined" -> Some Bdd_combined
  | "pobdd" -> Some Pobdd
  | "bmc" -> Some Bmc
  | "k-induction" -> Some Kind
  | "ic3" -> Some Ic3
  | _ -> None

let default_budget =
  { bdd_node_limit = Some 2_000_000; pobdd_node_limit = Some 8_000_000;
    pobdd_split_vars = 2; bmc_depth = 20; induction_max_k = 20;
    sat_max_conflicts = 2_000_000; ic3_max_frames = 32;
    wall_deadline_s = None }

let degrade_budget b =
  let half = Option.map (fun n -> max 1 (n / 2)) in
  { b with
    bdd_node_limit = half b.bdd_node_limit;
    pobdd_node_limit = half b.pobdd_node_limit;
    sat_max_conflicts = max 1 (b.sat_max_conflicts / 2);
    wall_deadline_s = Option.map (fun s -> s /. 2.0) b.wall_deadline_s }

let portfolio ~name members =
  if members = [] then invalid_arg "Engine.portfolio: empty member list";
  List.iter
    (fun m ->
      match m.m_strategy with
      | Portfolio _ ->
        invalid_arg
          (Printf.sprintf
             "Engine.portfolio: member %s is not an atomic strategy"
             (strategy_name m.m_strategy))
      | Bdd_forward | Bdd_backward | Bdd_combined | Pobdd | Bmc | Kind | Ic3
        ->
        ())
    members;
  { p_name = name; p_members = members }

(* The paper's escalation: unbounded BDD checking, then the partitioned
   engine under its larger node budget, then bounded checking. *)
let auto budget =
  Portfolio
    (portfolio ~name:"auto"
       (List.map
          (fun s -> { m_strategy = s; m_budget = budget })
          [ Bdd_combined; Pobdd; Bmc ]))

(* The default racing portfolio. The BDD member runs with a small node cap:
   on this workload almost every obligation collapses in a few thousand
   nodes, so the cap only trips on the genuinely hard cones — exactly the
   ones worth racing the SAT engines on. The final POBDD member keeps the
   full budget as the conclusiveness backstop, so a portfolio race decides
   every obligation the [auto] ladder decides. *)
let speculation_bdd_nodes = 5_000

let default_portfolio base =
  let cap =
    match base.bdd_node_limit with
    | Some n -> Some (min n speculation_bdd_nodes)
    | None -> Some speculation_bdd_nodes
  in
  portfolio ~name:"default"
    [ { m_strategy = Bdd_combined;
        m_budget = { base with bdd_node_limit = cap } };
      { m_strategy = Kind; m_budget = base };
      { m_strategy = Ic3; m_budget = base };
      { m_strategy = Pobdd; m_budget = base } ]

type verdict =
  | Proved
  | Proved_bounded of int
  | Failed of Trace.t
  | Resource_out of string
  | Error of string

type perf = {
  bdd_peak : int;
  bdd_polls : int;
  fix_iterations : int;
  peak_set_size : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  incremental_reuse : int;
  unroll_depth : int;
  final_k : int;
  ic3_frames : int;
  attempts : string list;
}

let empty_perf =
  { bdd_peak = 0; bdd_polls = 0; fix_iterations = 0; peak_set_size = 0;
    sat_decisions = 0; sat_conflicts = 0; sat_propagations = 0;
    sat_restarts = 0; incremental_reuse = 0; unroll_depth = -1; final_k = -1;
    ic3_frames = -1; attempts = [] }

type outcome = {
  verdict : verdict;
  engine_used : string;
  time_s : float;
  iterations : int;
  work_nodes : int;
  perf : perf;
}

let resource_cause o =
  match o.verdict with Resource_out c -> Some c | _ -> None

let conclusive o =
  match o.verdict with
  | Proved | Failed _ -> true
  | Proved_bounded _ | Resource_out _ | Error _ -> false

(* Deterministic winner selection over a portfolio prefix. The attributed
   prefix runs from member 0 through the first conclusive member (or all
   members when none concludes); within it, a conclusive verdict always
   wins, then a bounded proof (deeper is better), then resource-out, then
   error — ties to the larger index, so a ladder that runs out reports its
   last rung. This is a pure function of the member outcomes, so the
   sequential ladder and a race that cancels higher-indexed members at the
   same prefix agree exactly. *)
let outcome_rank o =
  match o.verdict with
  | Proved | Failed _ -> (3, 0)
  | Proved_bounded d -> (2, d)
  | Resource_out _ -> (1, 0)
  | Error _ -> (0, 0)

let merge_perf a p =
  { bdd_peak = max a.bdd_peak p.bdd_peak;
    bdd_polls = a.bdd_polls + p.bdd_polls;
    fix_iterations = a.fix_iterations + p.fix_iterations;
    peak_set_size = max a.peak_set_size p.peak_set_size;
    sat_decisions = a.sat_decisions + p.sat_decisions;
    sat_conflicts = a.sat_conflicts + p.sat_conflicts;
    sat_propagations = a.sat_propagations + p.sat_propagations;
    sat_restarts = a.sat_restarts + p.sat_restarts;
    incremental_reuse = a.incremental_reuse + p.incremental_reuse;
    unroll_depth = max a.unroll_depth p.unroll_depth;
    final_k = max a.final_k p.final_k;
    ic3_frames = max a.ic3_frames p.ic3_frames;
    attempts = a.attempts @ p.attempts }

let combine_portfolio outcomes =
  if outcomes = [] then invalid_arg "Engine.combine_portfolio: no outcomes";
  (* truncate at the first conclusive member: anything a race might have
     run beyond it is schedule-dependent and must not be attributed *)
  let rec prefix acc = function
    | [] -> List.rev acc
    | o :: tl ->
      if conclusive o then List.rev (o :: acc) else prefix (o :: acc) tl
  in
  let attributed = prefix [] outcomes in
  let winner =
    List.fold_left
      (fun best o -> if outcome_rank o >= outcome_rank best then o else best)
      (List.hd attributed) (List.tl attributed)
  in
  { verdict = winner.verdict;
    engine_used = winner.engine_used;
    time_s = List.fold_left (fun a o -> a +. o.time_s) 0.0 attributed;
    iterations = winner.iterations;
    work_nodes = winner.work_nodes;
    perf = List.fold_left (fun a o -> merge_perf a o.perf) empty_perf attributed
  }

module Telemetry = Obs.Telemetry

(* Work accounting for one check_netlist run, mutated as engine attempts
   complete (including attempts that end in an exception), then frozen into
   the outcome's [perf]. *)
type acc = {
  mutable a_bdd_peak : int;
  mutable a_bdd_alloc : int;  (* additive across attempts, for counters *)
  mutable a_bdd_polls : int;
  mutable a_fix_iterations : int;
  mutable a_peak_set_size : int;
  mutable a_sat_d : int;
  mutable a_sat_c : int;
  mutable a_sat_p : int;
  mutable a_sat_r : int;
  mutable a_inc_reuse : int;
  mutable a_unroll : int;
  mutable a_final_k : int;
  mutable a_ic3_frames : int;
  mutable a_attempts_rev : string list;
}

let fresh_acc () =
  { a_bdd_peak = 0; a_bdd_alloc = 0; a_bdd_polls = 0; a_fix_iterations = 0;
    a_peak_set_size = 0; a_sat_d = 0; a_sat_c = 0; a_sat_p = 0; a_sat_r = 0;
    a_inc_reuse = 0; a_unroll = -1; a_final_k = -1; a_ic3_frames = -1;
    a_attempts_rev = [] }

let perf_of_acc a =
  { bdd_peak = a.a_bdd_peak; bdd_polls = a.a_bdd_polls;
    fix_iterations = a.a_fix_iterations; peak_set_size = a.a_peak_set_size;
    sat_decisions = a.a_sat_d; sat_conflicts = a.a_sat_c;
    sat_propagations = a.a_sat_p; sat_restarts = a.a_sat_r;
    incremental_reuse = a.a_inc_reuse; unroll_depth = a.a_unroll;
    final_k = a.a_final_k;
    ic3_frames = a.a_ic3_frames; attempts = List.rev a.a_attempts_rev }

let acc_sat acc (s : Solver.stats) =
  acc.a_sat_d <- acc.a_sat_d + s.Solver.decisions;
  acc.a_sat_c <- acc.a_sat_c + s.Solver.conflicts;
  acc.a_sat_p <- acc.a_sat_p + s.Solver.propagations;
  acc.a_sat_r <- acc.a_sat_r + s.Solver.restarts

let report_counters acc =
  if Telemetry.active () then begin
    Telemetry.count "engine.checks";
    Telemetry.count ~n:(List.length acc.a_attempts_rev) "engine.attempts";
    Telemetry.count ~n:acc.a_bdd_alloc "bdd.nodes";
    Telemetry.count ~n:acc.a_bdd_polls "bdd.interrupt_polls";
    Telemetry.count ~n:acc.a_fix_iterations "reach.iterations";
    Telemetry.count ~n:acc.a_sat_d "sat.decisions";
    Telemetry.count ~n:acc.a_sat_c "sat.conflicts";
    Telemetry.count ~n:acc.a_sat_p "sat.propagations";
    Telemetry.count ~n:acc.a_sat_r "sat.restarts";
    Telemetry.count ~n:acc.a_inc_reuse "sat.incremental_reuse"
  end

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let of_reach acc engine (r, time_s) =
  let record (s : Reach.stats) =
    acc.a_fix_iterations <- acc.a_fix_iterations + s.Reach.iterations;
    acc.a_peak_set_size <- max acc.a_peak_set_size s.Reach.peak_set_size;
    acc.a_bdd_peak <- max acc.a_bdd_peak s.Reach.bdd_nodes
  in
  match r with
  | Reach.Proved stats ->
    record stats;
    { verdict = Proved; engine_used = engine; time_s;
      iterations = stats.Reach.iterations; work_nodes = stats.Reach.bdd_nodes;
      perf = empty_perf }
  | Reach.Failed (trace, stats) ->
    record stats;
    { verdict = Failed trace; engine_used = engine; time_s;
      iterations = stats.Reach.iterations; work_nodes = stats.Reach.bdd_nodes;
      perf = empty_perf }

let deadline_msg = "deadline"
let bdd_nodes_msg = "bdd-nodes"
let sat_conflicts_msg = "sat-conflicts"
let kind_inconclusive_msg = "kind-inconclusive"
let cancelled_msg = "cancelled"
let ic3_frames_msg = "ic3-frames"

(* canonical Resource_out cause vocabulary, exported so the campaign,
   metrics schema and healing layer never spell these ad hoc *)
let ro_deadline = deadline_msg
let ro_bdd_nodes = bdd_nodes_msg
let ro_sat_conflicts = sat_conflicts_msg
let ro_kind_inconclusive = kind_inconclusive_msg
let ro_cancelled = cancelled_msg
let ro_ic3_frames = ic3_frames_msg
let ro_heal_exhausted = "heal-exhausted"

let ro_causes =
  [ ro_deadline; ro_bdd_nodes; ro_sat_conflicts; ro_kind_inconclusive;
    ro_ic3_frames; ro_cancelled; ro_heal_exhausted ]

(* cause of an interrupted engine run: the wall clock beats the stop hook
   so a deadline that fires during a race still reads "deadline" *)
let interrupt_cause deadline =
  if Deadline.wall_expired deadline then deadline_msg
  else if Deadline.cancelled deadline then cancelled_msg
  else deadline_msg

let resource_out msg engine =
  { verdict = Resource_out msg; engine_used = engine; time_s = 0.0;
    iterations = 0; work_nodes = 0; perf = empty_perf }

let run_bdd ~acc ~node_limit ~deadline ~engine nl ok_signal constraint_signal
    check =
  acc.a_attempts_rev <- engine :: acc.a_attempts_rev;
  let man_ref = ref None in
  let f () =
    (* the manager-level interrupt bounds even a single runaway image
       computation (or the transition-relation build itself); the
       per-iteration Deadline.check in the fixpoint loops bounds everything
       between BDD operations *)
    let interrupt =
      if Deadline.live deadline then Some (Deadline.checker deadline)
      else None
    in
    let sym = Sym.create ?node_limit ?interrupt nl in
    man_ref := Some (Sym.man sym);
    let ok = (Sym.signal_bdd sym ok_signal).(0) in
    let constrain =
      Option.map (fun c -> (Sym.signal_bdd sym c).(0)) constraint_signal
    in
    check ?constrain ~deadline sym ok
  in
  (* the manager dies with the attempt, so its peak and poll count must be
     read on every exit path, including Node_limit raised mid-Sym.create *)
  let record_man () =
    match !man_ref with
    | None -> ()
    | Some m ->
      let n = Bdd.node_count m in
      acc.a_bdd_peak <- max acc.a_bdd_peak n;
      acc.a_bdd_alloc <- acc.a_bdd_alloc + n;
      acc.a_bdd_polls <- acc.a_bdd_polls + Bdd.interrupt_polls m
  in
  match Telemetry.span ~cat:"engine" engine (fun () -> timed f) with
  | result ->
    record_man ();
    of_reach acc engine result
  | exception Bdd.Node_limit ->
    record_man ();
    resource_out bdd_nodes_msg engine
  | exception (Deadline.Expired | Bdd.Interrupted) ->
    record_man ();
    resource_out (interrupt_cause deadline) engine

let run_bmc ~acc ~budget ~deadline nl ok_signal constraint_signal =
  acc.a_attempts_rev <- "bmc" :: acc.a_attempts_rev;
  let acc_bmc (s : Bmc.stats) =
    acc.a_unroll <- max acc.a_unroll s.Bmc.depth;
    acc.a_inc_reuse <- acc.a_inc_reuse + s.Bmc.reused;
    acc_sat acc
      { Solver.decisions = s.Bmc.decisions; conflicts = s.Bmc.conflicts;
        propagations = s.Bmc.propagations; restarts = s.Bmc.restarts;
        learned = 0 }
  in
  let f () =
    Bmc.check ~max_conflicts:budget.sat_max_conflicts ~deadline
      ?constraint_signal nl ~ok_signal ~depth:budget.bmc_depth
  in
  match Telemetry.span ~cat:"engine" "bmc" (fun () -> timed f) with
  | exception Deadline.Expired -> resource_out deadline_msg "bmc"
  | r, time_s ->
    (match r with
     | Bmc.No_violation_upto (d, stats) ->
       acc_bmc stats;
       { verdict = Proved_bounded d; engine_used = "bmc"; time_s;
         iterations = d; work_nodes = stats.Bmc.cnf_clauses;
         perf = empty_perf }
     | Bmc.Violation (trace, stats) ->
       acc_bmc stats;
       { verdict = Failed trace; engine_used = "bmc"; time_s;
         iterations = stats.Bmc.depth; work_nodes = stats.Bmc.cnf_clauses;
         perf = empty_perf }
     | Bmc.Inconclusive stats ->
       acc_bmc stats;
       let msg =
         if Deadline.expired deadline then interrupt_cause deadline
         else sat_conflicts_msg
       in
       { verdict = Resource_out msg; engine_used = "bmc"; time_s;
         iterations = stats.Bmc.depth; work_nodes = stats.Bmc.cnf_clauses;
         perf = empty_perf })

let check_atomic ~budget ?constraint_signal ~deadline ~strategy nl ~ok_signal =
  let acc = fresh_acc () in
  let bdd ?(node_limit = budget.bdd_node_limit) engine check =
    run_bdd ~acc ~node_limit ~deadline ~engine nl ok_signal constraint_signal
      check
  in
  let outcome =
    match strategy with
    | Bdd_forward ->
      bdd "bdd-forward" (fun ?constrain ~deadline sym ok ->
          Reach.check_forward ?constrain ~deadline sym ~ok)
    | Bdd_backward ->
      bdd "bdd-backward" (fun ?constrain ~deadline sym ok ->
          Reach.check_backward ?constrain ~deadline sym ~ok)
    | Bdd_combined ->
      bdd "bdd-combined" (fun ?constrain ~deadline sym ok ->
          Reach.check_combined ?constrain ~deadline sym ~ok)
    | Pobdd ->
      bdd ~node_limit:budget.pobdd_node_limit "pobdd"
        (fun ?constrain ~deadline sym ok ->
          Umc.check_forward_partitioned ?constrain ~deadline sym ~ok
            ~num_split_vars:budget.pobdd_split_vars)
    | Bmc -> run_bmc ~acc ~budget ~deadline nl ok_signal constraint_signal
    | Kind -> (
      acc.a_attempts_rev <- "k-induction" :: acc.a_attempts_rev;
      let acc_kind (s : Induction.stats) =
        acc.a_final_k <- max acc.a_final_k s.Induction.k;
        acc.a_inc_reuse <- acc.a_inc_reuse + s.Induction.reused;
        acc_sat acc
          { Solver.decisions = s.Induction.decisions;
            conflicts = s.Induction.conflicts;
            propagations = s.Induction.propagations;
            restarts = s.Induction.restarts; learned = 0 }
      in
      let f () =
        Induction.check ~max_conflicts:budget.sat_max_conflicts
          ~max_k:budget.induction_max_k ~deadline ?constraint_signal nl
          ~ok_signal
      in
      match Telemetry.span ~cat:"engine" "k-induction" (fun () -> timed f) with
      | exception Deadline.Expired -> resource_out deadline_msg "k-induction"
      | r, time_s ->
        (match r with
         | Induction.Proved_by_induction s ->
           acc_kind s;
           { verdict = Proved; engine_used = "k-induction"; time_s;
             iterations = s.Induction.k; work_nodes = s.Induction.cnf_clauses;
             perf = empty_perf }
         | Induction.Violation (trace, s) ->
           acc_kind s;
           { verdict = Failed trace; engine_used = "k-induction"; time_s;
             iterations = s.Induction.k; work_nodes = s.Induction.cnf_clauses;
             perf = empty_perf }
         | Induction.Inconclusive s ->
           acc_kind s;
           let msg =
             if Deadline.expired deadline then interrupt_cause deadline
             else kind_inconclusive_msg
           in
           { verdict = Resource_out msg; engine_used = "k-induction"; time_s;
             iterations = s.Induction.k; work_nodes = s.Induction.cnf_clauses;
             perf = empty_perf }))
    | Ic3 -> (
      acc.a_attempts_rev <- "ic3" :: acc.a_attempts_rev;
      let acc_ic3 (s : Ic3.stats) =
        acc.a_ic3_frames <- max acc.a_ic3_frames s.Ic3.frames;
        acc.a_inc_reuse <- acc.a_inc_reuse + s.Ic3.reused;
        acc_sat acc
          { Solver.decisions = s.Ic3.decisions; conflicts = s.Ic3.conflicts;
            propagations = s.Ic3.propagations; restarts = s.Ic3.restarts;
            learned = 0 }
      in
      let f () =
        Ic3.check ~max_conflicts:budget.sat_max_conflicts
          ~max_frames:budget.ic3_max_frames ~deadline ?constraint_signal nl
          ~ok_signal
      in
      match Telemetry.span ~cat:"engine" "ic3" (fun () -> timed f) with
      | exception Deadline.Expired ->
        resource_out (interrupt_cause deadline) "ic3"
      | r, time_s ->
        (match r with
         | Ic3.Proved s ->
           acc_ic3 s;
           { verdict = Proved; engine_used = "ic3"; time_s;
             iterations = s.Ic3.frames; work_nodes = s.Ic3.clauses;
             perf = empty_perf }
         | Ic3.Violation (trace, s) ->
           acc_ic3 s;
           { verdict = Failed trace; engine_used = "ic3"; time_s;
             iterations = s.Ic3.frames; work_nodes = s.Ic3.clauses;
             perf = empty_perf }
         | Ic3.Inconclusive (why, s) ->
           acc_ic3 s;
           let msg =
             if Deadline.expired deadline then interrupt_cause deadline
             else
               match why with
               | Ic3.Frames_exhausted -> ic3_frames_msg
               | Ic3.Solver_limit -> sat_conflicts_msg
           in
           { verdict = Resource_out msg; engine_used = "ic3"; time_s;
             iterations = s.Ic3.frames; work_nodes = s.Ic3.clauses;
             perf = empty_perf }))
    | Portfolio _ ->
      (* check_netlist runs a portfolio's atomic members one by one *)
      assert false
  in
  report_counters acc;
  { outcome with perf = perf_of_acc acc }

let check_netlist ?(budget = default_budget) ?constraint_signal ?deadline
    ~strategy nl ~ok_signal =
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Deadline.of_budget budget.wall_deadline_s
  in
  match strategy with
  | Portfolio p ->
    (* Sequential portfolio execution: the jobs<=1 degradation of racing.
       Members run in order under the one deadline until one is conclusive
       or the deadline has passed; the combined outcome attributes exactly
       that prefix, which is the same prefix a race settles on, so verdicts
       and perf aggregates agree byte-for-byte with the racing scheduler. *)
    let rec ladder acc_rev = function
      | m :: tl when acc_rev = [] || not (Deadline.expired deadline) ->
        let o =
          check_atomic ~budget:m.m_budget ?constraint_signal ~deadline
            ~strategy:m.m_strategy nl ~ok_signal
        in
        if conclusive o then List.rev (o :: acc_rev)
        else ladder (o :: acc_rev) tl
      | _ -> List.rev acc_rev
    in
    combine_portfolio (ladder [] p.p_members)
  | Bdd_forward | Bdd_backward | Bdd_combined | Pobdd | Bmc | Kind | Ic3 ->
    check_atomic ~budget ?constraint_signal ~deadline ~strategy nl ~ok_signal

(* Inline combinationally-driven signals into the property's boolean layer
   and simplify, so that e.g. [HE[3]] where HE is a concatenation of checker
   groups reduces to that one group's logic. This sharpens the subsequent
   cone-of-influence reduction from whole signals to the bits the property
   actually reads. *)
let make_inliner mdl =
  let driver = Hashtbl.create 97 in
  List.iter
    (fun (a : Rtl.Mdl.assign) -> Hashtbl.replace driver a.Rtl.Mdl.lhs a.Rtl.Mdl.rhs)
    mdl.Rtl.Mdl.assigns;
  let expanded = Hashtbl.create 97 in
  let rec expand_var visiting x =
    match Hashtbl.find_opt expanded x with
    | Some e -> Some e
    | None ->
      if List.mem x visiting then None
      else
        Option.map
          (fun rhs ->
            let e = expand (x :: visiting) rhs in
            Hashtbl.replace expanded x e;
            e)
          (Hashtbl.find_opt driver x)
  and expand visiting e = Rtl.Expr.subst (expand_var visiting) e in
  let env name = Rtl.Mdl.signal_width mdl name in
  fun fl ->
    Psl.Ast.map_bool
      (fun e -> Rtl.Expr.simplify ~env (expand [] e))
      fl

let inline_bools mdl fl = make_inliner mdl fl

(* Drop assumptions that cannot affect the assert: an assumption whose
   signals are all primary inputs outside the assert's cone of influence
   constrains behavior the property never observes, so removing it is sound
   (it only adds behaviors on independent inputs) and shrinks the model. *)
let make_pruner mdl =
  let design = Rtl.Design.of_modules [ mdl ] in
  let nl = Rtl.Elaborate.run design ~top:mdl.Rtl.Mdl.name in
  let declared = List.map fst (Rtl.Netlist.signals nl) in
  let input_names = List.map fst nl.Rtl.Netlist.inputs in
  fun ~assert_ ~assumes ->
    let roots =
      List.filter (fun s -> List.mem s declared) (Psl.Ast.signals assert_)
    in
    let cone = Rtl.Coi.reduce nl ~roots in
    let cone_signals = List.map fst (Rtl.Netlist.signals cone) in
    let keep a =
      let sigs = Psl.Ast.signals a in
      let inputs_only = List.for_all (fun s -> List.mem s input_names) sigs in
      (not inputs_only) || List.exists (fun s -> List.mem s cone_signals) sigs
    in
    List.filter keep assumes

let prune_assumes mdl ~assert_ ~assumes =
  make_pruner mdl ~assert_ ~assumes

(* invariant input-only assumptions ("always <boolean over inputs>") become
   engine-level input constraints instead of latched monitors: the engines
   then simply never explore constraint-violating inputs, which keeps the
   assumption bookkeeping out of the state space *)
let split_constraint_assumes mdl assumes =
  let input_names =
    List.map (fun (p : Rtl.Mdl.port) -> p.Rtl.Mdl.port_name)
      (Rtl.Mdl.inputs mdl)
  in
  let as_input_invariant = function
    | Psl.Ast.Always (Psl.Ast.Bool e) | Psl.Ast.Bool e ->
      if List.for_all (fun s -> List.mem s input_names) (Rtl.Expr.support e)
      then Some e
      else None
    | Psl.Ast.Not _ | Psl.Ast.And _ | Psl.Ast.Or _ | Psl.Ast.Implies _
    | Psl.Ast.Next _ | Psl.Ast.Next_n _ | Psl.Ast.Always _ | Psl.Ast.Never _
    | Psl.Ast.Until _ | Psl.Ast.Seq_implies _ | Psl.Ast.Eventually _ ->
      None
  in
  List.partition_map
    (fun a ->
      match as_input_invariant a with
      | Some e -> Either.Left e
      | None -> Either.Right a)
    assumes

(* shared preparation front half: inline, prune, lower input invariants to a
   constraint wire, weave in the safety monitor, elaborate — everything up
   to (but excluding) the cone-of-influence reduction *)
let prepare_full_netlist mdl ~assert_ ~assumes =
  let sp name f = Telemetry.span ~cat:"prepare" name f in
  let assert_, assumes =
    sp "prepare.inline" (fun () ->
        (inline_bools mdl assert_, List.map (inline_bools mdl) assumes))
  in
  let assumes =
    sp "prepare.prune" (fun () -> prune_assumes mdl ~assert_ ~assumes)
  in
  let constraints, temporal_assumes = split_constraint_assumes mdl assumes in
  let inst =
    sp "prepare.monitor" (fun () ->
        Psl.Monitor.instrument mdl ~prefix:"mon" ~assert_
          ~assumes:temporal_assumes)
  in
  let mdl', constraint_signal =
    match constraints with
    | [] -> (inst.Psl.Monitor.mdl, None)
    | es ->
      let c =
        List.fold_left (fun acc e -> Rtl.Expr.( &: ) acc e) Rtl.Expr.tru es
      in
      let name = "mon_input_constraint" in
      let m = Rtl.Mdl.add_wire inst.Psl.Monitor.mdl name 1 in
      (Rtl.Mdl.add_assign m name c, Some name)
  in
  let nl =
    sp "prepare.elaborate" (fun () ->
        let design = Rtl.Design.of_modules [ mdl' ] in
        Rtl.Elaborate.run design ~top:mdl'.Rtl.Mdl.name)
  in
  (nl, inst.Psl.Monitor.invariant_ok, constraint_signal)

let replay_model mdl ~assert_ ~assumes =
  prepare_full_netlist mdl ~assert_ ~assumes

(* Shared per-module preparation: when a module carries several properties
   (the paper's P0/P1/P2 obligations), the module-level work — the inliner's
   driver tables, the pruner's raw elaboration, the monitor weaving and the
   single full elaborate — runs once for all of them. Each property gets its
   own monitor (distinct [mon<i>] prefixes in one woven module) and its own
   cone-of-influence reduction from its own roots, so the per-property
   reduced netlist is structurally identical to what the unshared
   {!instrumented_netlist} path builds: monitors are independent cones, and
   COI from property [i]'s roots excludes every other property's monitor.
   Canonical fingerprints (name-independent) therefore agree between the
   shared and unshared paths. *)
let prepare_module mdl ~props =
  let sp name f = Telemetry.span ~cat:"prepare" name f in
  let fronts =
    sp "prepare.inline" (fun () ->
        let inline = make_inliner mdl in
        let prune = make_pruner mdl in
        List.map
          (fun (name, assert_, assumes) ->
            let assert_ = inline assert_ in
            let assumes = List.map inline assumes in
            let assumes = prune ~assert_ ~assumes in
            let constraints, temporal = split_constraint_assumes mdl assumes in
            (name, assert_, constraints, temporal))
          props)
  in
  let woven = ref mdl in
  let per_rev = ref [] in
  List.iteri
    (fun i (name, assert_, constraints, temporal) ->
      let prefix = Printf.sprintf "mon%d" i in
      let inst =
        sp "prepare.monitor" (fun () ->
            Psl.Monitor.instrument !woven ~prefix ~assert_ ~assumes:temporal)
      in
      let m', constraint_signal =
        match constraints with
        | [] -> (inst.Psl.Monitor.mdl, None)
        | es ->
          let c =
            List.fold_left (fun acc e -> Rtl.Expr.( &: ) acc e) Rtl.Expr.tru es
          in
          let cname = prefix ^ "_input_constraint" in
          let m = Rtl.Mdl.add_wire inst.Psl.Monitor.mdl cname 1 in
          (Rtl.Mdl.add_assign m cname c, Some cname)
      in
      woven := m';
      per_rev :=
        (name, prefix, inst.Psl.Monitor.invariant_ok, constraint_signal)
        :: !per_rev)
    fronts;
  let nl =
    sp "prepare.elaborate" (fun () ->
        let design = Rtl.Design.of_modules [ !woven ] in
        Rtl.Elaborate.run design ~top:(!woven).Rtl.Mdl.name)
  in
  List.rev_map
    (fun (name, prefix, ok_signal, constraint_signal) ->
      let roots =
        ok_signal
        :: (match constraint_signal with Some c -> [ c ] | None -> [])
      in
      let red = sp "prepare.coi" (fun () -> Rtl.Coi.reduce nl ~roots) in
      (* after its COI reduction the property's cone holds exactly one
         monitor, so the weaving prefix [mon<i>] can be folded back to the
         unshared path's [mon]: the result is name-identical (not merely
         structurally identical) to {!instrumented_netlist}'s, which is what
         keeps trace register names replayable against {!replay_model} *)
      let pre = prefix ^ "_" in
      let fold n =
        if String.starts_with ~prefix:pre n then
          "mon_" ^ String.sub n (String.length pre)
                     (String.length n - String.length pre)
        else n
      in
      let red = Rtl.Canon.rename fold red in
      (name, (red, fold ok_signal, Option.map fold constraint_signal)))
    !per_rev

let instrumented_netlist mdl ~assert_ ~assumes =
  let nl, ok_signal, constraint_signal =
    prepare_full_netlist mdl ~assert_ ~assumes
  in
  (* cone-of-influence reduction: only the logic feeding the property
     matters; this is what makes the divide-and-conquer partitioning of
     Figure 7 effective *)
  let roots =
    ok_signal
    :: (match constraint_signal with Some c -> [ c ] | None -> [])
  in
  let nl =
    Telemetry.span ~cat:"prepare" "prepare.coi" (fun () ->
        Rtl.Coi.reduce nl ~roots)
  in
  (nl, ok_signal, constraint_signal)

let problem_size mdl ~assert_ ~assumes =
  let nl, _, _ = instrumented_netlist mdl ~assert_ ~assumes in
  let state = Rtl.Netlist.state_bits nl in
  let inputs =
    List.fold_left (fun acc (_, w) -> acc + w) 0 nl.Rtl.Netlist.inputs
  in
  (state, inputs)

let check_property ?(budget = default_budget) ?strategy mdl ~assert_ ~assumes =
  let strategy = match strategy with Some s -> s | None -> auto budget in
  if not (Rtl.Mdl.is_leaf mdl) then
    invalid_arg
      (Printf.sprintf
         "Engine.check_property: %s is not a leaf module; the methodology \
          checks leaf modules only"
         mdl.Rtl.Mdl.name);
  let nl, ok_signal, constraint_signal =
    instrumented_netlist mdl ~assert_ ~assumes
  in
  check_netlist ~budget ?constraint_signal ~strategy nl ~ok_signal

let check_vunit ?budget ?strategy mdl vunit =
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  List.map
    (fun (name, assert_) ->
      (name, check_property ?budget ?strategy mdl ~assert_ ~assumes))
    (Psl.Ast.asserts vunit)
