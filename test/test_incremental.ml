(* Differential lockdown of the incremental SAT path and the packed BDD
   arena. The incremental BMC and k-induction engines (persistent clause
   database, learnt-clause retention, assumption solving) must be
   observationally identical to their fresh-solver oracles in Qa.Scratch:
   same verdicts, same final depths/k, same trace lengths. IC3 has no
   scratch twin; it must never contradict the exact BDD verdict. Both hold
   on every structurally distinct seeded-chip obligation and on a Qa.Gen
   fuzz stream. The solver itself is pinned by a QCheck equivalence
   (solve_assuming A = fresh solve of CNF ∧ A) and a determinism/retention
   regression. The arena BDD is pinned against exhaustive truth tables
   across slab growth and unique-table rehashes. *)

module E = Mc.Engine

(* ---- what must agree between an engine and its oracle ---- *)

let budget =
  { E.default_budget with
    E.bmc_depth = 8; induction_max_k = 8; sat_max_conflicts = 50_000;
    ic3_max_frames = 8 }

(* the verdict with the depth (BMC) or k (k-induction) it was reached at,
   and the trace length of a violation *)
let outcome_sig (o : E.outcome) =
  match o.E.verdict with
  | E.Proved -> Printf.sprintf "proved:%d" o.E.iterations
  | E.Proved_bounded d -> Printf.sprintf "no-violation:%d:%d" d o.E.iterations
  | E.Failed tr ->
    Printf.sprintf "violation:%d:%d" (Mc.Trace.length tr) o.E.iterations
  | E.Resource_out _ | E.Error _ -> "inconclusive"

(* Checks one prepared cone and returns whether IC3 decided it. *)
let check_cone ~label (nl, ok_signal, constraint_signal) =
  let run strategy =
    E.check_netlist ~budget ?constraint_signal ~strategy nl ~ok_signal
  in
  let max_conflicts = budget.E.sat_max_conflicts in
  Alcotest.(check string) (label ^ ": bmc")
    (outcome_sig
       (Qa.Scratch.bmc ~max_conflicts ?constraint_signal nl ~ok_signal
          ~depth:budget.E.bmc_depth))
    (outcome_sig (run E.Bmc));
  Alcotest.(check string) (label ^ ": kind")
    (outcome_sig
       (Qa.Scratch.kind ~max_conflicts ?constraint_signal nl ~ok_signal
          ~max_k:budget.E.induction_max_k))
    (outcome_sig (run E.Kind));
  (* a proof needs a BDD proof, a violation a BDD violation; an undecided
     IC3 run contradicts nothing *)
  let ic3 = run E.Ic3 and bdd = run E.Bdd_combined in
  (match (ic3.E.verdict, bdd.E.verdict) with
   | E.Proved, E.Proved | E.Failed _, E.Failed _ -> ()
   | (E.Proved | E.Failed _), _ ->
     Alcotest.failf "%s: ic3 %s contradicts bdd-combined %s" label
       (outcome_sig ic3) (outcome_sig bdd)
   | (E.Proved_bounded _ | E.Resource_out _ | E.Error _), _ -> ());
  E.conclusive ic3

(* every structurally distinct obligation of the seeded bug chip, prepared
   through the shared per-module path exactly like the campaign does *)
let test_seeded_chip_differential () =
  let chip = Chip.Generator.generate ~with_bugs:true () in
  let works = Core.Campaign.work_items chip in
  let by_module = Hashtbl.create 97 in
  let order = ref [] in
  List.iter
    (fun (w : Core.Campaign.work) ->
      let mname = w.Core.Campaign.w_mdl.Rtl.Mdl.name in
      let key =
        w.Core.Campaign.w_vunit_name ^ "/" ^ w.Core.Campaign.w_prop_name
      in
      (match Hashtbl.find_opt by_module mname with
       | None ->
         order := (mname, w.Core.Campaign.w_mdl) :: !order;
         Hashtbl.add by_module mname []
       | Some _ -> ());
      Hashtbl.replace by_module mname
        (Hashtbl.find by_module mname
        @ [ (key, w.Core.Campaign.w_assert, w.Core.Campaign.w_assumes) ]))
    works;
  let seen = Hashtbl.create 97 in
  let unique = ref 0 and total = ref 0 and ic3_decided = ref 0 in
  List.iter
    (fun (mname, mdl) ->
      let props = Hashtbl.find by_module mname in
      List.iter
        (fun (key, ((nl, ok, cons) as prep)) ->
          incr total;
          let roots =
            ok :: (match cons with Some c -> [ c ] | None -> [])
          in
          let fp = Rtl.Canon.fingerprint ~roots nl in
          if not (Hashtbl.mem seen fp) then begin
            Hashtbl.add seen fp ();
            incr unique;
            if check_cone ~label:(mname ^ "." ^ key) prep then
              incr ic3_decided
          end)
        (E.prepare_module mdl ~props))
    (List.rev !order);
  Alcotest.(check int) "all obligations prepared" (List.length works) !total;
  Alcotest.(check bool) "dedup leaves a meaningful sweep" true (!unique > 20);
  (* 135 of the chip's 139 distinct cones; the other 4 stay undecided *)
  Alcotest.(check bool)
    (Printf.sprintf "ic3 decides %d of %d cones" !ic3_decided !unique)
    true (!ic3_decided >= 135)

(* a Qa.Gen stream — wider parameter space than the chip, including seeded
   mutations, so violating obligations are well represented *)
let test_fuzz_stream_differential () =
  for index = 0 to 7 do
    let case = Qa.Gen.case_of ~seed:42 ~index in
    let mdl = case.Qa.Gen.info.Verifiable.Transform.mdl in
    List.iter
      (fun (_cls, vu) ->
        let assumes = List.map snd (Psl.Ast.assumes vu) in
        List.iter
          (fun (prop_name, assert_) ->
            let prep = E.instrumented_netlist mdl ~assert_ ~assumes in
            ignore
              (check_cone ~label:(case.Qa.Gen.id ^ "." ^ prop_name) prep))
          (Psl.Ast.asserts vu))
      (Verifiable.Propgen.all case.Qa.Gen.info case.Qa.Gen.spec)
  done

(* the oracles stop on an expired deadline and on the conflict budget
   with the engine facade's resource-out causes *)
let test_scratch_budgets () =
  let case = Qa.Gen.case_of ~seed:42 ~index:0 in
  let mdl = case.Qa.Gen.info.Verifiable.Transform.mdl in
  let vu =
    snd (List.hd (Verifiable.Propgen.all case.Qa.Gen.info case.Qa.Gen.spec))
  in
  let assert_ = snd (List.hd (Psl.Ast.asserts vu)) in
  let assumes = List.map snd (Psl.Ast.assumes vu) in
  let nl, ok_signal, constraint_signal =
    E.instrumented_netlist mdl ~assert_ ~assumes
  in
  let cause (o : E.outcome) =
    match o.E.verdict with
    | E.Resource_out c -> c
    | _ -> "decided"
  in
  let expired = Mc.Deadline.after (-1.0) in
  Alcotest.(check string) "bmc: expired deadline" E.ro_deadline
    (cause
       (Qa.Scratch.bmc ~deadline:expired ?constraint_signal nl ~ok_signal
          ~depth:8));
  Alcotest.(check string) "kind: expired deadline" E.ro_deadline
    (cause
       (Qa.Scratch.kind ~deadline:expired ?constraint_signal nl ~ok_signal
          ~max_k:8));
  let kind max_conflicts =
    cause
      (Qa.Scratch.kind ~max_conflicts ?constraint_signal nl ~ok_signal
         ~max_k:8)
  in
  Alcotest.(check string) "kind: decided within the budget" "decided"
    (kind 50_000);
  Alcotest.(check string) "kind: no conflicts allowed" E.ro_kind_inconclusive
    (kind 0)

(* ---- solve_assuming A == fresh solve of (CNF ∧ A), sequenced ---- *)

let arb_inc_instance =
  let open QCheck.Gen in
  let gen =
    int_range 1 20 >>= fun nvars ->
    int_range 0 60 >>= fun nclauses ->
    let lit =
      int_range 1 nvars >>= fun v -> map (fun b -> if b then v else -v) bool
    in
    list_repeat nclauses (int_range 1 4 >>= fun len -> list_repeat len lit)
    >>= fun clauses ->
    int_range 1 4 >>= fun nsets ->
    list_repeat nsets
      (int_range 0 5 >>= fun n ->
       list_repeat n lit >|= fun ls ->
       (* one literal per variable: contradictory assumption pairs would
          only test the Assumption_false path, which crafted tests cover *)
       List.sort_uniq compare
         (List.filteri
            (fun i l ->
              List.for_all (fun l' -> abs l' <> abs l)
                (List.filteri (fun j _ -> j < i) ls))
            ls))
    >|= fun sets -> (nvars, clauses, sets)
  in
  QCheck.make
    ~print:(fun (nvars, clauses, sets) ->
      Printf.sprintf "nvars=%d clauses=%s sets=%s" nvars
        (String.concat ";"
           (List.map
              (fun c -> String.concat "," (List.map string_of_int c))
              clauses))
        (String.concat ";"
           (List.map
              (fun s -> String.concat "," (List.map string_of_int s))
              sets)))
    gen

let prop_solve_assuming_equiv =
  QCheck.Test.make
    ~name:"solve_assuming A == fresh solve of CNF ∧ A (sequenced)" ~count:300
    arb_inc_instance (fun (nvars, clauses, sets) ->
      let t = Solver.create () in
      List.iter (Solver.add_clause t) clauses;
      List.for_all
        (fun assumps ->
          let inc = Solver.solve_assuming t assumps in
          let scratch =
            Solver.solve
              (Cnf.create ~nvars
                 (clauses @ List.map (fun l -> [ l ]) assumps))
          in
          match (inc, scratch) with
          | Solver.Sat model, Solver.Sat _ ->
            let value l =
              let v = model.(abs l - 1) in
              if l > 0 then v else not v
            in
            List.for_all (fun c -> List.exists value c) clauses
            && List.for_all value assumps
          | Solver.Unsat, Solver.Unsat -> true
          | (Solver.Sat _ | Solver.Unsat | Solver.Unknown), _ -> false)
        sets)

(* ---- determinism and learnt-clause retention across restarts ---- *)

(* php(5,4) under an activation literal: enough conflicts to trigger
   restarts, and UNSAT only when the activation is assumed *)
let php_activated () =
  let pigeons = 7 and holes = 6 in
  let act = (pigeons * holes) + 1 in
  let var p h = (p * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun p -> -act :: List.init holes (fun h -> var p h))
    @ List.concat
        (List.concat
           (List.init holes (fun h ->
                List.init pigeons (fun p1 ->
                    List.filteri
                      (fun p2 _ -> p2 > p1)
                      (List.init pigeons (fun p2 ->
                           [ -var p1 h; -var p2 h ]))))))
  in
  (act, clauses)

let test_solver_determinism () =
  let act, clauses = php_activated () in
  let cnf =
    Cnf.create ~nvars:act (clauses @ [ [ act ] ])
  in
  let r1, s1 = Solver.solve_stats cnf in
  let r2, s2 = Solver.solve_stats cnf in
  let is_unsat = function
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  Alcotest.(check bool) "one-shot unsat" true (is_unsat r1 && is_unsat r2);
  Alcotest.(check bool) "one-shot solves are bit-identical work" true
    (s1 = s2);
  Alcotest.(check bool) "the search restarts (the regression's trigger)" true
    (s1.Solver.restarts > 0);
  (* two persistent solvers fed the same call sequence do the same work *)
  let mk () =
    let t = Solver.create () in
    List.iter (Solver.add_clause t) clauses;
    t
  in
  let a = mk () and b = mk () in
  let _, sa = Solver.solve_assuming_stats a [ act ] in
  let _, sb = Solver.solve_assuming_stats b [ act ] in
  Alcotest.(check bool) "persistent solvers are deterministic" true (sa = sb)

let test_learnt_retention () =
  let act, clauses = php_activated () in
  let t = Solver.create () in
  List.iter (Solver.add_clause t) clauses;
  let r1, s1 = Solver.solve_assuming_stats t [ act ] in
  let _r2, s2 = Solver.solve_assuming_stats t [ act ] in
  let is_unsat = function
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  Alcotest.(check bool) "unsat under activation" true (is_unsat r1);
  (* the whole point of clause persistence: the second identical query rides
     the learnt clauses (and the restart logic must not have thrown the
     activity order away) — it must conflict strictly less *)
  Alcotest.(check bool)
    (Printf.sprintf "second solve cheaper (%d -> %d conflicts)"
       s1.Solver.conflicts s2.Solver.conflicts)
    true
    (s2.Solver.conflicts < s1.Solver.conflicts);
  (* and the solver is still usable and sat without the activation *)
  match Solver.solve_assuming t [] with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown ->
    Alcotest.fail "database alone must stay satisfiable"

(* ---- shared preparation == unshared preparation, name for name ---- *)

let test_prepare_module_identity () =
  let chip = Chip.Generator.generate ~with_bugs:false () in
  let works = Core.Campaign.work_items chip in
  (* first module carrying at least two properties *)
  let mdl, props =
    let tbl = Hashtbl.create 7 in
    let rec find = function
      | [] -> Alcotest.fail "chip has no multi-property module"
      | (w : Core.Campaign.work) :: rest ->
        let mname = w.Core.Campaign.w_mdl.Rtl.Mdl.name in
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt tbl mname)
        in
        let props =
          prev
          @ [ (w.Core.Campaign.w_prop_name, w.Core.Campaign.w_assert,
               w.Core.Campaign.w_assumes) ]
        in
        Hashtbl.replace tbl mname props;
        if List.length props >= 2 then (w.Core.Campaign.w_mdl, props)
        else find rest
    in
    find works
  in
  let shared = E.prepare_module mdl ~props in
  Alcotest.(check int) "one prepared check per property" (List.length props)
    (List.length shared);
  List.iter2
    (fun (name, assert_, assumes) (name', (nl, ok, cons)) ->
      Alcotest.(check string) "order preserved" name name';
      let nl_u, ok_u, cons_u = E.instrumented_netlist mdl ~assert_ ~assumes in
      Alcotest.(check string) (name ^ ": ok signal") ok_u ok;
      Alcotest.(check (option string)) (name ^ ": constraint") cons_u cons;
      let fp n roots = Rtl.Canon.fingerprint ~roots n in
      let roots o c = o :: (match c with Some c -> [ c ] | None -> []) in
      Alcotest.(check string)
        (name ^ ": fingerprint")
        (fp nl_u (roots ok_u cons_u))
        (fp nl (roots ok cons));
      let same (a, b, c) (a', b', c') = a = a' && b = b' && c = c' in
      Alcotest.(check bool) (name ^ ": same stats") true
        (same (Rtl.Netlist.stats nl_u) (Rtl.Netlist.stats nl)))
    props shared

(* ---- arena BDD vs exhaustive truth tables ---- *)

type bexp =
  | V of int
  | Const of bool
  | Not of bexp
  | And of bexp * bexp
  | Or of bexp * bexp
  | Xor of bexp * bexp

let rec gen_bexp n depth st =
  let open QCheck.Gen in
  if depth = 0 then
    frequency
      [ (4, map (fun i -> V i) (int_range 0 (n - 1)));
        (1, map (fun b -> Const b) bool) ]
      st
  else
    let sub = gen_bexp n (depth - 1) in
    frequency
      [ (2, map (fun i -> V i) (int_range 0 (n - 1)));
        (1, map (fun e -> Not e) sub);
        (2, map2 (fun a b -> And (a, b)) sub sub);
        (2, map2 (fun a b -> Or (a, b)) sub sub);
        (1, map2 (fun a b -> Xor (a, b)) sub sub) ]
      st

let rec eval_bexp assign = function
  | V i -> assign i
  | Const b -> b
  | Not e -> not (eval_bexp assign e)
  | And (a, b) -> eval_bexp assign a && eval_bexp assign b
  | Or (a, b) -> eval_bexp assign a || eval_bexp assign b
  | Xor (a, b) -> eval_bexp assign a <> eval_bexp assign b

let rec build_bdd m = function
  | V i -> Bdd.var m i
  | Const b -> if b then Bdd.one m else Bdd.zero m
  | Not e -> Bdd.not_ m (build_bdd m e)
  | And (a, b) -> Bdd.and_ m (build_bdd m a) (build_bdd m b)
  | Or (a, b) -> Bdd.or_ m (build_bdd m a) (build_bdd m b)
  | Xor (a, b) -> Bdd.xor m (build_bdd m a) (build_bdd m b)

let rec print_bexp = function
  | V i -> Printf.sprintf "x%d" i
  | Const b -> string_of_bool b
  | Not e -> "!" ^ print_bexp e
  | And (a, b) -> Printf.sprintf "(%s&%s)" (print_bexp a) (print_bexp b)
  | Or (a, b) -> Printf.sprintf "(%s|%s)" (print_bexp a) (print_bexp b)
  | Xor (a, b) -> Printf.sprintf "(%s^%s)" (print_bexp a) (print_bexp b)

let arb_bexp =
  QCheck.make
    ~print:(fun (n, e) -> Printf.sprintf "n=%d %s" n (print_bexp e))
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      int_range 0 6 >>= fun depth ->
      gen_bexp n depth >|= fun e -> (n, e))

let prop_arena_matches_brute_force =
  QCheck.Test.make ~name:"arena BDD matches exhaustive evaluation" ~count:200
    arb_bexp (fun (n, e) ->
      let m = Bdd.create ~nvars:n () in
      let f = build_bdd m e in
      let ones = ref 0 in
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let assign i = (mask lsr i) land 1 = 1 in
        let expect = eval_bexp assign e in
        if expect then incr ones;
        if Bdd.eval m assign f <> expect then ok := false;
        (* cofactor agreement on variable 0 *)
        let f0 = Bdd.restrict m 0 (assign 0) f in
        if Bdd.eval m assign f0 <> expect then ok := false
      done;
      !ok
      && Bdd.is_one f = (!ones = 1 lsl n)
      && Bdd.is_zero f = (!ones = 0)
      && Bdd.sat_count m f = float_of_int !ones)

(* cubes force thousands of fresh nodes: several slab doublings and unique
   table rehashes; hash consing must stay exact through all of them *)
let test_arena_growth_rehash () =
  let n = 16 in
  let m = Bdd.create ~nvars:n () in
  let cube_of i =
    Bdd.cube m (List.init n (fun v -> (v, (i lsr v) land 1 = 1)))
  in
  let cubes = Array.init 600 cube_of in
  Alcotest.(check bool) "arena grew past its initial capacity" true
    (Bdd.node_count m > 1024);
  (* re-interning after growth and rehash yields the same handles *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "hash consing survives rehash" true
        (Bdd.equal c (cube_of i)))
    cubes;
  (* and the functions are still right *)
  Array.iteri
    (fun i c ->
      let assign v = (i lsr v) land 1 = 1 in
      Alcotest.(check bool) "cube sat at its own minterm" true
        (Bdd.eval m assign c);
      Alcotest.(check bool) "cube unsat one bit off" false
        (Bdd.eval m (fun v -> if v = 0 then not (assign 0) else assign v) c);
      Alcotest.(check (float 0.0)) "cube sat_count" 1.0 (Bdd.sat_count m c))
    cubes

let test_arena_interrupt_and_peak () =
  let n = 16 in
  let m = Bdd.create ~nvars:n () in
  Bdd.set_interrupt m (Some (fun () -> false));
  for i = 0 to 1199 do
    ignore (Bdd.cube m (List.init n (fun v -> (v, ((i * 7) lsr v) land 1 = 1))))
  done;
  Alcotest.(check bool) "interrupt polled during allocation" true
    (Bdd.interrupt_polls m > 0);
  let count_before = Bdd.node_count m in
  Bdd.clear_caches m;
  Alcotest.(check int) "clear_caches keeps the arena (peak accounting)"
    count_before (Bdd.node_count m);
  (* a firing interrupt aborts the allocating operation *)
  Bdd.set_interrupt m (Some (fun () -> true));
  let interrupted = ref false in
  (try
     for i = 0 to 9999 do
       ignore
         (Bdd.cube m
            (List.init n (fun v -> (v, ((i * 131) lsr v) land 1 = 1))))
     done
   with Bdd.Interrupted -> interrupted := true);
  Alcotest.(check bool) "interrupt aborts" true !interrupted;
  Alcotest.(check bool) "arena monotone across the abort" true
    (Bdd.node_count m >= count_before)

let test_arena_node_limit () =
  let m = Bdd.create ~node_limit:100 ~nvars:16 () in
  let hit = ref false in
  (try
     for i = 0 to 999 do
       ignore
         (Bdd.cube m (List.init 16 (fun v -> (v, (i lsr v) land 1 = 1))))
     done
   with Bdd.Node_limit -> hit := true);
  Alcotest.(check bool) "node limit enforced" true !hit;
  Alcotest.(check bool) "limit is exact" true (Bdd.node_count m <= 100)

let () =
  Alcotest.run "incremental"
    [ ("differential",
       [ Alcotest.test_case "seeded chip: incremental == scratch" `Slow
           test_seeded_chip_differential;
         Alcotest.test_case "fuzz stream: incremental == scratch" `Slow
           test_fuzz_stream_differential;
         Alcotest.test_case "scratch oracles stop on their budgets" `Quick
           test_scratch_budgets ]);
      ("solver",
       [ QCheck_alcotest.to_alcotest prop_solve_assuming_equiv;
         Alcotest.test_case "determinism" `Quick test_solver_determinism;
         Alcotest.test_case "learnt retention across restarts" `Quick
           test_learnt_retention ]);
      ("preparation",
       [ Alcotest.test_case "prepare_module == instrumented_netlist" `Quick
           test_prepare_module_identity ]);
      ("arena",
       [ QCheck_alcotest.to_alcotest prop_arena_matches_brute_force;
         Alcotest.test_case "growth and rehash" `Quick
           test_arena_growth_rehash;
         Alcotest.test_case "interrupt polling and peak accounting" `Quick
           test_arena_interrupt_and_peak;
         Alcotest.test_case "node limit" `Quick test_arena_node_limit ]) ]
