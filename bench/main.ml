(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus a Bechamel micro-benchmark suite (one Test.make
   per table/figure kernel).

     dune exec bench/main.exe             -- regenerate everything
     dune exec bench/main.exe -- table2   -- one artifact only
     dune exec bench/main.exe -- micro    -- Bechamel micro-benchmarks

   Artifacts: table1 table2 racing healing incremental table3 table4 timing
   fig7 fuzz micro *)

let header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

let chip = lazy (Chip.Generator.generate ())
let clean_chip = lazy (Chip.Generator.generate ~with_bugs:false ())

let table1 () =
  header "Table 1: chip implementation (synthetic reproduction)";
  Format.printf "%a" Core.Report.pp_table1 (Core.Report.table1 (Lazy.force chip))

(* one structural result cache for the whole bench run: the post-fix
   re-campaign of table2 reuses every verdict whose module the fixes did not
   touch instead of re-proving it *)
let campaign_cache = Mc.Cache.create ()

let campaign_jobs =
  match Sys.getenv_opt "DICHECK_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* every campaign the bench runs, in order, for BENCH_campaign.json *)
let campaign_runs : (string * Core.Campaign.t) list ref = ref []

(* (ladder label, racing label) once the racing artifact has run both *)
let racing_info : (string * string) option ref = ref None

(* (starved label, healed label) once the healing artifact has run both *)
let healing_info : (string * string) option ref = ref None

(* the engine-level scratch-vs-incremental comparison, once the incremental
   artifact has run *)
type incremental_cmp = {
  scratch_label : string;
  inc_label : string;
  cones : int;
  scratch_wall_s : float;
  inc_wall_s : float;
  identical : bool;
}

let incremental_info : incremental_cmp option ref = ref None

let run_campaign ?budget ?strategy ?portfolio ?race_jobs ?self_heal
    ?(cache = campaign_cache) label chip =
  let t0 = Unix.gettimeofday () in
  let last = ref 0.0 in
  (* heartbeats go to stderr (fixed 10s interval) so stdout stays a clean
     artifact stream *)
  let progress (p : Core.Campaign.progress) =
    let now = Unix.gettimeofday () in
    if now -. !last > 10.0 then begin
      last := now;
      Printf.eprintf "  ... %s: %d/%d properties (%.0fs)\n%!" label
        p.Core.Campaign.done_ p.Core.Campaign.total (now -. t0)
    end
  in
  let c =
    Core.Campaign.run ?budget ?strategy ?portfolio ~progress
      ~jobs:campaign_jobs ?race_jobs ?self_heal ~cache chip
  in
  Printf.printf
    "  %s: %.1fs on %d jobs, %d/%d verdicts from cache\n%!" label
    c.Core.Campaign.wall_time_s campaign_jobs c.Core.Campaign.cache_hits
    (List.length c.Core.Campaign.results);
  campaign_runs := !campaign_runs @ [ (label, c) ];
  c

(* machine-readable campaign benchmark record, written on every bench run
   (schema "dicheck-bench-v1"; empty "runs" when no campaign artifact ran) *)
let write_bench_json path =
  let module J = Obs.Json in
  let run_json (label, (c : Core.Campaign.t)) =
    let g = c.Core.Campaign.grand_total in
    let p = Core.Campaign.aggregate_perf c in
    J.Obj
      ([ ("label", J.String label);
        ("wall_s", J.Float c.Core.Campaign.wall_time_s);
        ("jobs", J.Int campaign_jobs);
        ("properties", J.Int g.Core.Campaign.total);
        ("proved", J.Int g.Core.Campaign.proved);
        ("failed", J.Int g.Core.Campaign.failed);
        ("resource_out", J.Int g.Core.Campaign.resource_out);
        ("errors", J.Int g.Core.Campaign.errors);
        ("cache_hits", J.Int c.Core.Campaign.cache_hits);
        ("replayed", J.Int c.Core.Campaign.replayed);
        ("retries", J.Int c.Core.Campaign.retries);
        ("engine_time_s", J.Float p.Core.Campaign.engine_time_s);
        ("engine_attempts", J.Int p.Core.Campaign.engine_attempts);
        ("fix_iterations", J.Int p.Core.Campaign.fix_iterations);
        ("bdd_peak", J.Int p.Core.Campaign.bdd_peak);
        ("sat_decisions", J.Int p.Core.Campaign.sat_decisions);
        ("sat_conflicts", J.Int p.Core.Campaign.sat_conflicts);
        ("sat_propagations", J.Int p.Core.Campaign.sat_propagations);
        ("max_unroll_depth", J.Int p.Core.Campaign.max_unroll_depth);
        ("max_final_k", J.Int p.Core.Campaign.max_final_k);
        ("max_ic3_frames", J.Int p.Core.Campaign.max_ic3_frames);
        ("strategy_wins",
         J.Obj
           (List.map
              (fun (e, n) -> (e, J.Int n))
              (Core.Campaign.wins_by_engine c))) ]
      @
      (match c.Core.Campaign.healing with
      | None -> []
      | Some h ->
        [ ("healing",
           J.Obj
             [ ("attempted", J.Int h.Core.Campaign.heal_attempted);
               ("recovered", J.Int h.Core.Campaign.heal_recovered);
               ("healed_proved", J.Int h.Core.Campaign.heal_proved);
               ("healed_failed", J.Int h.Core.Campaign.heal_failed);
               ("exhausted", J.Int h.Core.Campaign.heal_exhausted);
               ("unhealable", J.Int h.Core.Campaign.heal_unhealable);
               ("spurious_cex", J.Int h.Core.Campaign.heal_spurious);
               ("cegar_iters", J.Int h.Core.Campaign.heal_cegar_iters);
               ("subs_proved", J.Int h.Core.Campaign.heal_subs_proved);
               ("bad_cuts", J.Int h.Core.Campaign.heal_bad_cuts);
               ("pieces", J.Int h.Core.Campaign.heal_pieces);
               ("wall_s", J.Float h.Core.Campaign.heal_wall_s) ]) ]))
  in
  let racing_json =
    match !racing_info with
    | None -> []
    | Some (ladder_label, racing_label) -> (
      match
        ( List.assoc_opt ladder_label !campaign_runs,
          List.assoc_opt racing_label !campaign_runs )
      with
      | Some l, Some r ->
        let lw = l.Core.Campaign.wall_time_s
        and rw = r.Core.Campaign.wall_time_s in
        [ ("racing",
           J.Obj
             [ ("ladder_label", J.String ladder_label);
               ("racing_label", J.String racing_label);
               ("ladder_wall_s", J.Float lw);
               ("racing_wall_s", J.Float rw);
               ("speedup", J.Float (lw /. Float.max rw 1e-9)) ]) ]
      | _ -> [])
  in
  let healing_json =
    match !healing_info with
    | None -> []
    | Some (starved_label, healed_label) -> (
      match
        ( List.assoc_opt starved_label !campaign_runs,
          List.assoc_opt healed_label !campaign_runs )
      with
      | Some s, Some h ->
        let ro (c : Core.Campaign.t) =
          c.Core.Campaign.grand_total.Core.Campaign.resource_out
        in
        let recovered =
          match h.Core.Campaign.healing with
          | Some t -> t.Core.Campaign.heal_recovered
          | None -> 0
        in
        [ ("healing",
           J.Obj
             [ ("starved_label", J.String starved_label);
               ("healed_label", J.String healed_label);
               ("resource_out_before", J.Int (ro s));
               ("resource_out_after", J.Int (ro h));
               ("recovered", J.Int recovered);
               ("recovery_rate",
                J.Float
                  (float_of_int recovered /. float_of_int (max (ro s) 1))) ]) ]
      | _ -> [])
  in
  let incremental_json =
    match !incremental_info with
    | None -> []
    | Some c ->
      let per_s w = float_of_int c.cones /. Float.max w 1e-9 in
      [ ("incremental",
         J.Obj
           [ ("scratch_label", J.String c.scratch_label);
             ("incremental_label", J.String c.inc_label);
             ("scratch_wall_s", J.Float c.scratch_wall_s);
             ("incremental_wall_s", J.Float c.inc_wall_s);
             ("scratch_obligations_per_s", J.Float (per_s c.scratch_wall_s));
             ("incremental_obligations_per_s", J.Float (per_s c.inc_wall_s));
             ("speedup",
              J.Float (c.scratch_wall_s /. Float.max c.inc_wall_s 1e-9));
             ("verdicts_identical", J.Bool c.identical) ]) ]
  in
  let j =
    J.Obj
      ([ ("schema", J.String "dicheck-bench-v1");
         ("generated_at_unix", J.Float (Unix.gettimeofday ()));
         ("jobs", J.Int campaign_jobs);
         ("runs", J.List (List.map run_json !campaign_runs)) ]
      @ racing_json @ healing_json @ incremental_json)
  in
  let oc = open_out path in
  (try output_string oc (J.to_string_pretty j)
   with e ->
     close_out oc;
     raise e);
  close_out oc;
  Printf.eprintf "campaign benchmark data written to %s\n%!" path

let table2 () =
  header
    "Table 2: number of verified properties (full formal campaign, pre-fix \
     chip)";
  let c = run_campaign "pre-fix" (Lazy.force chip) in
  Format.printf "%a" Core.Campaign.pp_table2 c;
  Printf.printf
    "\n%d properties proved, %d failed (the seeded bugs), %d resource-outs\n"
    c.Core.Campaign.grand_total.Core.Campaign.proved
    c.Core.Campaign.grand_total.Core.Campaign.failed
    c.Core.Campaign.grand_total.Core.Campaign.resource_out;
  Printf.printf
    "campaign wall time: %.1fs (paper: ~20h on a 2004 workstation)\n"
    c.Core.Campaign.wall_time_s;
  List.iter
    (fun (r : Core.Campaign.prop_result) ->
      Printf.printf "  failed: %-12s %-28s (%s)\n" r.Core.Campaign.module_name
        r.Core.Campaign.prop_name
        (match r.Core.Campaign.bug with
         | Some b -> Chip.Bugs.name b
         | None -> "UNEXPECTED"))
    (Core.Campaign.failed_results c);
  header "Table 2 follow-up: post-fix chip (all 2047 properties must verify)";
  let c' = run_campaign "post-fix" (Lazy.force clean_chip) in
  Format.printf "%a" Core.Campaign.pp_table2 c';
  Printf.printf "failures on the fixed chip: %d (paper: all 2047 verified)\n"
    c'.Core.Campaign.grand_total.Core.Campaign.failed

(* Portfolio racing vs the sequential escalation ladder, under an equal
   constrained budget. The default budget never escalates (bdd-combined
   decides all 2047 obligations inside its node limit), so the effect the
   scheduler exists for — overlapping a ladder's serial stages — is
   measured where the ladder actually ladders: a small BDD node cap makes
   the same obligations escalate under both configurations, then the auto
   ladder pays its rungs in sequence while the portfolio races them. Fresh
   caches on both sides keep the comparison cold. *)
let racing () =
  header "Portfolio racing vs the auto ladder (constrained budget)";
  let base =
    { Mc.Engine.default_budget with Mc.Engine.bdd_node_limit = Some 5_000 }
  in
  let auto =
    run_campaign ~budget:base
      ~cache:(Mc.Cache.create ())
      "auto-constrained" (Lazy.force chip)
  in
  let race =
    run_campaign ~budget:base
      ~portfolio:(Mc.Engine.default_portfolio base)
      ~race_jobs:campaign_jobs
      ~cache:(Mc.Cache.create ())
      "race-constrained" (Lazy.force chip)
  in
  racing_info := Some ("auto-constrained", "race-constrained");
  let g (c : Core.Campaign.t) = c.Core.Campaign.grand_total in
  Printf.printf "  verdict totals identical: %b\n"
    (let a = g auto and r = g race in
     a.Core.Campaign.proved = r.Core.Campaign.proved
     && a.Core.Campaign.failed = r.Core.Campaign.failed
     && a.Core.Campaign.resource_out = r.Core.Campaign.resource_out
     && a.Core.Campaign.errors = r.Core.Campaign.errors);
  Printf.printf "  strategy wins (racing):%s\n"
    (String.concat ""
       (List.map
          (fun (e, n) -> Printf.sprintf " %s=%d" e n)
          (Core.Campaign.wins_by_engine race)));
  Printf.printf "  ladder %.1fs, racing %.1fs -> speedup %.2fx\n"
    auto.Core.Campaign.wall_time_s race.Core.Campaign.wall_time_s
    (auto.Core.Campaign.wall_time_s
    /. Float.max race.Core.Campaign.wall_time_s 1e-9)

(* Self-healing under a starving budget: the same 2047-obligation campaign
   twice, with the BDD arena capped where the filler cones exhaust it —
   once plain (hundreds of resource-outs) and once with the automatic
   Figure 7 recovery pass, which partitions each starved cone, re-proves
   the pieces inside the very same budget and recombines them by
   assume-guarantee. Fresh caches on both sides keep the comparison cold. *)
let healing () =
  header "Self-healing recovery under a starving budget (--self-heal)";
  let starved =
    { Mc.Engine.default_budget with
      Mc.Engine.bdd_node_limit = Some 2_000;
      Mc.Engine.pobdd_node_limit = Some 2_000 }
  in
  let portfolio =
    Mc.Engine.portfolio ~name:"bdd-combined"
      [ { Mc.Engine.m_strategy = Mc.Engine.Bdd_combined; m_budget = starved } ]
  in
  let plain =
    run_campaign ~budget:starved ~portfolio
      ~cache:(Mc.Cache.create ())
      "starved" (Lazy.force chip)
  in
  let healed =
    run_campaign ~budget:starved ~portfolio ~self_heal:4
      ~cache:(Mc.Cache.create ())
      "starved-healed" (Lazy.force chip)
  in
  healing_info := Some ("starved", "starved-healed");
  let g (c : Core.Campaign.t) = c.Core.Campaign.grand_total in
  Printf.printf "  resource-outs: %d starved -> %d after healing\n"
    (g plain).Core.Campaign.resource_out (g healed).Core.Campaign.resource_out;
  (match healed.Core.Campaign.healing with
   | Some h ->
     Printf.printf
       "  recovered %d of %d (%d proved, %d real failures; %d spurious cex, \
        %d CEGAR iterations, %d pieces)\n"
       h.Core.Campaign.heal_recovered h.Core.Campaign.heal_attempted
       h.Core.Campaign.heal_proved h.Core.Campaign.heal_failed
       h.Core.Campaign.heal_spurious h.Core.Campaign.heal_cegar_iters
       h.Core.Campaign.heal_pieces
   | None -> ());
  Printf.printf "  verdict flips vs starved run: %b (must be false)\n"
    ((g plain).Core.Campaign.failed <> (g healed).Core.Campaign.failed)

(* Every structurally distinct obligation of a chip, prepared per module
   the way the campaign prepares it and deduplicated by canonical
   fingerprint. *)
let distinct_cones chip =
  let by_module = Hashtbl.create 97 and order = ref [] in
  List.iter
    (fun (w : Core.Campaign.work) ->
      let mdl = w.Core.Campaign.w_mdl in
      let name = mdl.Rtl.Mdl.name in
      if not (Hashtbl.mem by_module name) then order := (name, mdl) :: !order;
      Hashtbl.replace by_module name
        ((w.Core.Campaign.w_prop_name, w.Core.Campaign.w_assert,
          w.Core.Campaign.w_assumes)
        :: Option.value ~default:[] (Hashtbl.find_opt by_module name)))
    (Core.Campaign.work_items chip);
  let seen = Hashtbl.create 97 in
  List.concat_map
    (fun (name, mdl) ->
      Mc.Engine.prepare_module mdl
        ~props:(List.rev (Hashtbl.find by_module name))
      |> List.filter_map (fun (_, ((nl, ok, cons) as cone)) ->
             let roots = ok :: Option.to_list cons in
             let fp = Rtl.Canon.fingerprint ~roots nl in
             if Hashtbl.mem seen fp then None
             else (
               Hashtbl.add seen fp ();
               Some cone)))
    (List.rev !order)

(* Incremental SAT vs fresh-solver queries, where the solver carries state
   between queries: BMC's iterative deepening to depth 40 (double the
   default, so solving dominates) over every distinct cone of the seeded
   chip. The incremental side is the production engine (one growing CNF per
   cone); the scratch side is [Qa.Scratch.bmc] (a fresh encoding and solver
   at every depth). Both map the cones over the same domain pool, and every
   cone's verdict, depth and trace length must agree. The speedup lands in
   BENCH_campaign.json under "incremental", where CI gates it at >= 3x. The
   BMC-only campaign row "bmc-incremental" is kept for the baseline's
   verdict totals. *)
let incremental () =
  header
    "Incremental SAT vs scratch re-encoding (BMC at depth 40, distinct cones)";
  let depth = 40 in
  let budget = { Mc.Engine.default_budget with Mc.Engine.bmc_depth = depth } in
  let campaign =
    run_campaign ~budget ~strategy:Mc.Engine.Bmc ~cache:(Mc.Cache.create ())
      "bmc-incremental" (Lazy.force chip)
  in
  let cones = Array.of_list (distinct_cones (Lazy.force chip)) in
  let pool = Core.Executor.pool ~jobs:campaign_jobs in
  let run check =
    let t0 = Unix.gettimeofday () in
    let sigs =
      Core.Executor.map pool
        (fun (nl, ok_signal, constraint_signal) ->
          let o : Mc.Engine.outcome = check ?constraint_signal nl ~ok_signal in
          match o.Mc.Engine.verdict with
          | Mc.Engine.Failed tr ->
            Printf.sprintf "violation:%d:%d" (Mc.Trace.length tr)
              o.Mc.Engine.iterations
          | Mc.Engine.Proved_bounded d -> Printf.sprintf "clean:%d" d
          | Mc.Engine.Proved -> "proved"
          | Mc.Engine.Resource_out cause -> "resource-out:" ^ cause
          | Mc.Engine.Error msg -> "error:" ^ msg)
        cones
    in
    (sigs, Unix.gettimeofday () -. t0)
  in
  let inc, iw =
    run (fun ?constraint_signal nl ~ok_signal ->
        Mc.Engine.check_netlist ~budget ?constraint_signal
          ~strategy:Mc.Engine.Bmc nl ~ok_signal)
  in
  let scratch, sw =
    run (fun ?constraint_signal nl ~ok_signal ->
        Qa.Scratch.bmc ~max_conflicts:budget.Mc.Engine.sat_max_conflicts
          ?constraint_signal nl ~ok_signal ~depth)
  in
  let identical = inc = scratch in
  incremental_info :=
    Some
      { scratch_label = Printf.sprintf "scratch-bmc@%d" depth;
        inc_label = Printf.sprintf "bmc@%d" depth; cones = Array.length cones;
        scratch_wall_s = sw; inc_wall_s = iw; identical };
  Printf.printf "  %d distinct cones on %d domain(s)\n" (Array.length cones)
    campaign_jobs;
  Printf.printf "  per-cone verdicts, depths and trace lengths identical: %b\n"
    identical;
  Printf.printf
    "  scratch %.1fs (%.1f cones/s), incremental %.1fs (%.1f cones/s) -> \
     speedup %.2fx\n"
    sw
    (float_of_int (Array.length cones) /. Float.max sw 1e-9)
    iw
    (float_of_int (Array.length cones) /. Float.max iw 1e-9)
    (sw /. Float.max iw 1e-9);
  Printf.printf "  bmc-incremental campaign: %.1fs, %d warm solves\n"
    campaign.Core.Campaign.wall_time_s
    (List.fold_left
       (fun a (r : Core.Campaign.prop_result) ->
         a
         + r.Core.Campaign.outcome.Mc.Engine.perf
             .Mc.Engine.incremental_reuse)
       0 campaign.Core.Campaign.results)

let table3 () =
  header "Table 3: classification of logic bugs";
  let results = Core.Classify.run (Lazy.force chip) in
  Format.printf "%a" Core.Classify.pp_table3 results;
  Printf.printf "\nformal side:\n";
  List.iter
    (fun (r : Core.Classify.result) ->
      Printf.printf
        "  %s in %-12s exposed by %-22s in %.3fs, %s-cycle counterexample\n"
        (Chip.Bugs.name r.Core.Classify.bug)
        r.Core.Classify.module_name
        (Option.value ~default:"-" r.Core.Classify.prop_name)
        r.Core.Classify.formal_time_s
        (match r.Core.Classify.trace_len with
         | Some n -> string_of_int n
         | None -> "?"))
    results;
  let matches =
    List.for_all
      (fun (r : Core.Classify.result) ->
        r.Core.Classify.observed_cls = Some r.Core.Classify.expected_cls
        && r.Core.Classify.sim_easy = r.Core.Classify.expected_easy)
      results
  in
  Printf.printf "\nshape matches the paper's Table 3: %b\n" matches

let table4 () =
  header "Table 4: area increase caused by the error injection feature";
  Format.printf "%a" Core.Report.pp_table4 (Core.Report.table4 (Lazy.force chip));
  Printf.printf "(paper: A 1.4%%, B 0.4%%, D 0.2%%; C and E not published)\n"

let timing () =
  header "Timing impact of the injection selector (paper: ~200ps, ~4-5%)";
  Format.printf "%a" Core.Report.pp_timing
    (Core.Report.timing_impact (Lazy.force chip))

let fig7 () =
  header "Figure 7: partitioning a property for divide and conquer";
  Format.printf "%a" Core.Report.pp_fig7
    (Core.Report.fig7 ~payload_width:16 ~node_limit:100_000 ())

(* ---- differential fuzz throughput (BENCH_fuzz.json) ---- *)

let fuzz () =
  header "Differential fuzz throughput (dicheck fuzz)";
  let config =
    { Qa.Fuzz.default_config with Qa.Fuzz.seed = 42; count = 15 }
  in
  let s = Qa.Fuzz.run config in
  Printf.printf
    "%d designs, %d obligations, %d engine runs in %.1fs\n\
     %.1f designs/s, %.1f obligations/s\n\
     discrepancies: %d; mutation kill: %d/%d\n"
    s.Qa.Fuzz.cases_run s.Qa.Fuzz.obligations s.Qa.Fuzz.engine_runs
    s.Qa.Fuzz.elapsed_s
    (float_of_int s.Qa.Fuzz.cases_run /. max s.Qa.Fuzz.elapsed_s 1e-9)
    (float_of_int s.Qa.Fuzz.obligations /. max s.Qa.Fuzz.elapsed_s 1e-9)
    (List.length s.Qa.Fuzz.discrepancies)
    (List.fold_left (fun a (_, d, _) -> a + d) 0 s.Qa.Fuzz.kill_table)
    (List.fold_left (fun a (_, _, t) -> a + t) 0 s.Qa.Fuzz.kill_table);
  let module J = Obs.Json in
  let j =
    J.Obj
      [ ("schema", J.String "dicheck-fuzz-bench-v1");
        ("generated_at_unix", J.Float (Unix.gettimeofday ()));
        ("summary", Qa.Fuzz.summary_json s) ]
  in
  let oc = open_out "BENCH_fuzz.json" in
  (try output_string oc (J.to_string_pretty j)
   with e ->
     close_out oc;
     raise e);
  close_out oc;
  Printf.eprintf "fuzz benchmark data written to BENCH_fuzz.json\n%!"

(* ---- Bechamel micro-benchmarks: one kernel per table/figure ---- *)

let micro () =
  let open Bechamel in
  let chip = Lazy.force chip in
  let _, alu = Chip.Generator.find_unit chip Chip.Bugs.B4 in
  let alu_mdl = alu.Chip.Generator.info.Verifiable.Transform.mdl in
  let soundness = Psl.Parser.fl_of_string "never HE[0]" in
  let assumes =
    [ Psl.Parser.fl_of_string "always (^A)";
      Psl.Parser.fl_of_string "always (^B)";
      Psl.Parser.fl_of_string "always (~I_ERR_INJ_C)" ]
  in
  let cat_a =
    List.find
      (fun (c : Chip.Generator.category) -> c.Chip.Generator.cat_name = "A")
      chip.Chip.Generator.categories
  in
  let merge_leaf = Chip.Archetype.merge ~name:"bench_merge" ~payload_width:8 () in
  let merge_info = Verifiable.Transform.apply merge_leaf.Chip.Archetype.mdl in
  let merge_spec =
    { Verifiable.Propgen.he = merge_leaf.Chip.Archetype.he;
      he_map = merge_leaf.Chip.Archetype.he_map;
      parity_inputs = merge_leaf.Chip.Archetype.parity_inputs;
      parity_outputs = merge_leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let merge_plan =
    Verifiable.Partition.partition merge_info merge_spec ~output:"OUT"
      ~cuts:[ "chk0"; "chk1"; "chk2" ]
  in
  let sub_vunit = snd (List.hd merge_plan.Verifiable.Partition.sub_vunits) in
  let classify_sim () =
    let nl =
      Rtl.Elaborate.run
        (Rtl.Design.of_modules [ alu_mdl ])
        ~top:alu_mdl.Rtl.Mdl.name
    in
    let sim = Sim.Simulator.create nl in
    let profile = Sim.Stimulus.legal_profile ~parity_inputs:[ "A"; "B" ] nl in
    ignore
      (Sim.Testbench.run_random sim profile ~cycles:1_000 ~seed:7
         ~watch:[ "HE" ])
  in
  let tests =
    [ Test.make ~name:"table1/chip-generation-and-gate-count"
        (Staged.stage (fun () ->
             let t = Chip.Generator.generate () in
             ignore
               (Synth.Area.gates_estimate t.Chip.Generator.design
                  ~root:t.Chip.Generator.chip_top)));
      Test.make ~name:"table2/one-property-model-check"
        (Staged.stage (fun () ->
             ignore
               (Mc.Engine.check_property alu_mdl ~assert_:soundness ~assumes)));
      Test.make ~name:"table3/random-simulation-1k-cycles"
        (Staged.stage classify_sim);
      Test.make ~name:"table4/category-A-area-delta"
        (Staged.stage (fun () ->
             ignore
               (Synth.Area.hierarchy_area chip.Chip.Generator.design
                  ~root:cat_a.Chip.Generator.top)));
      Test.make ~name:"timing/alu-static-timing"
        (Staged.stage (fun () ->
             let nl =
               Rtl.Elaborate.run
                 (Rtl.Design.of_modules [ alu_mdl ])
                 ~top:alu_mdl.Rtl.Mdl.name
             in
             ignore (Synth.Timing.analyze nl)));
      Test.make ~name:"fig7/one-partitioned-sub-property"
        (Staged.stage (fun () ->
             ignore
               (Mc.Engine.check_vunit ~strategy:Mc.Engine.Bdd_forward
                  merge_info.Verifiable.Transform.mdl sub_vunit))) ]
  in
  header "Bechamel micro-benchmarks (monotonic clock, OLS ns/run)";
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-44s %14.0f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-44s (no estimate)\n%!" name)
        results)
    tests

let artifacts =
  [ ("table1", table1); ("table2", table2); ("racing", racing);
    ("healing", healing); ("incremental", incremental); ("table3", table3);
    ("table4", table4); ("timing", timing); ("fig7", fig7); ("fuzz", fuzz);
    ("micro", micro) ]

(* [bench diff BASE CUR [--threshold=X]]: compare two BENCH json files and
   exit 1 on a regression verdict — the CI trend gate. Handled before the
   artifact dispatch so it neither runs campaigns nor rewrites
   BENCH_campaign.json. *)
let run_diff base_path cur_path threshold =
  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e ->
      Printf.eprintf "bench diff: %s\n" e;
      exit 2
    | s ->
      (match Obs.Json.parse s with
       | Ok j -> j
       | Error e ->
         Printf.eprintf "bench diff: %s: %s\n" path e;
         exit 2)
  in
  let baseline = load base_path and current = load cur_path in
  match Obs.Bench_diff.diff ~threshold ~baseline ~current () with
  | Error e ->
    Printf.eprintf "bench diff: %s\n" e;
    exit 2
  | Ok d ->
    Format.printf "%a%!" Obs.Bench_diff.pp d;
    exit (if d.Obs.Bench_diff.ok then 0 else 1)

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  (match args with
   | "diff" :: rest ->
     let threshold = ref 0.2 in
     let files =
       List.filter
         (fun a ->
           match String.length a >= 12 && String.sub a 0 12 = "--threshold=" with
           | true ->
             (match
                float_of_string_opt
                  (String.sub a 12 (String.length a - 12))
              with
              | Some t when t > 0.0 ->
                threshold := t;
                false
              | Some _ | None ->
                Printf.eprintf "bench diff: bad %s\n" a;
                exit 2)
           | false -> true)
         rest
     in
     (match files with
      | [ base; cur ] -> run_diff base cur !threshold
      | _ ->
        Printf.eprintf
          "usage: bench diff BASELINE.json CURRENT.json [--threshold=0.2]\n";
        exit 2)
   | _ -> ());
  (match args with
   | [] -> List.iter (fun (_, f) -> f ()) artifacts
   | names ->
     List.iter
       (fun name ->
         match List.assoc_opt name artifacts with
         | Some f -> f ()
         | None ->
           Printf.eprintf "unknown artifact %s; available: %s\n" name
             (String.concat " " (List.map fst artifacts));
           exit 1)
       names);
  write_bench_json "BENCH_campaign.json"
