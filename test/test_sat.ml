(* CDCL solver and Tseitin encoder: crafted instances, random CNFs checked
   against brute force, and equisatisfiability of the encoding. *)

module X = Rtl.Bexpr


(* --- crafted instances --- *)

let cnf nvars clauses = Cnf.create ~nvars clauses

let is_sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown -> false
let is_unsat = function Solver.Unsat -> true | Solver.Sat _ | Solver.Unknown -> false

let test_trivial () =
  Alcotest.(check bool) "empty cnf sat" true (is_sat (Solver.solve (cnf 0 [])));
  Alcotest.(check bool) "unit sat" true (is_sat (Solver.solve (cnf 1 [ [ 1 ] ])));
  Alcotest.(check bool) "unit conflict" true
    (is_unsat (Solver.solve (cnf 1 [ [ 1 ]; [ -1 ] ])));
  Alcotest.(check bool) "empty clause" true
    (is_unsat (Solver.solve (cnf 1 [ [] ])));
  Alcotest.(check bool) "tautology dropped" true
    (is_sat (Solver.solve (cnf 1 [ [ 1; -1 ] ])))

let test_model_valid () =
  let c = cnf 4 [ [ 1; 2 ]; [ -1; 3 ]; [ -3; -2; 4 ]; [ -4; 1 ] ] in
  match Solver.solve c with
  | Solver.Sat model ->
    Alcotest.(check bool) "model satisfies" true
      (Cnf.eval c (fun v -> model.(v - 1)))
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT *)
  let var p h = (p * 2) + h + 1 in
  let clauses =
    (* every pigeon sits somewhere *)
    List.init 3 (fun p -> [ var p 0; var p 1 ])
    (* no two pigeons share a hole *)
    @ List.concat_map
        (fun h ->
          [ [ -var 0 h; -var 1 h ]; [ -var 0 h; -var 2 h ];
            [ -var 1 h; -var 2 h ] ])
        [ 0; 1 ]
  in
  Alcotest.(check bool) "php(3,2) unsat" true
    (is_unsat (Solver.solve (cnf 6 clauses)))

let test_xor_chain () =
  (* x1 xor x2 xor ... xor x5 = 1 and all equal: unsat for even weight mix *)
  let eq a b = [ [ -a; b ]; [ a; -b ] ] in
  let clauses = eq 1 2 @ eq 2 3 @ [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ] in
  (* all-equal plus "not all equal" *)
  Alcotest.(check bool) "equality chain conflict" true
    (is_unsat (Solver.solve (cnf 3 clauses)))

let test_conflict_budget () =
  (* php(5,4) is small but needs some search; budget of 1 conflict gives up *)
  let pigeons = 5 and holes = 4 in
  let var p h = (p * holes) + h + 1 in
  let clauses =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
    @ List.concat
        (List.concat
           (List.init holes (fun h ->
                List.init pigeons (fun p1 ->
                    List.filteri (fun p2 _ -> p2 > p1)
                      (List.init pigeons (fun p2 -> [ -var p1 h; -var p2 h ]))))))
  in
  let c = cnf (pigeons * holes) clauses in
  (match Solver.solve ~max_conflicts:1 c with
   | Solver.Unknown -> ()
   | Solver.Unsat -> () (* allowed: solved before the budget *)
   | Solver.Sat _ -> Alcotest.fail "php(5,4) cannot be sat");
  Alcotest.(check bool) "php(5,4) unsat with full budget" true
    (is_unsat (Solver.solve c))

(* --- random CNFs vs brute force --- *)

let arb_cnf =
  let open QCheck.Gen in
  let gen =
    int_range 1 6 >>= fun nvars ->
    int_range 0 18 >>= fun nclauses ->
    let lit = int_range 1 nvars >>= fun v -> map (fun b -> if b then v else -v) bool in
    list_repeat nclauses (int_range 1 3 >>= fun len -> list_repeat len lit)
    >|= fun clauses -> Cnf.create ~nvars clauses
  in
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Cnf.pp_dimacs c)
    gen

let brute_force_sat (c : Cnf.t) =
  let n = c.Cnf.nvars in
  let rec try_mask mask =
    if mask >= 1 lsl n then false
    else if Cnf.eval c (fun v -> mask lsr (v - 1) land 1 = 1) then true
    else try_mask (mask + 1)
  in
  try_mask 0

let prop_solver_correct =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:500 arb_cnf
    (fun c ->
      match Solver.solve c with
      | Solver.Sat model ->
        Cnf.eval c (fun v -> model.(v - 1))
      | Solver.Unsat -> not (brute_force_sat c)
      | Solver.Unknown -> false)

(* --- Tseitin --- *)

let rec gen_bexpr_depth depth st =
  let open QCheck.Gen in
  if depth = 0 then map (fun i -> X.var i) (int_range 0 4) st
  else
    frequency
      [ (2, map (fun i -> X.var i) (int_range 0 4));
        (2,
         map2 X.and_ (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (2, map2 X.or_ (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (2, map2 X.xor (gen_bexpr_depth (depth - 1)) (gen_bexpr_depth (depth - 1)));
        (1, map X.not_ (gen_bexpr_depth (depth - 1)));
        (1,
         map3 X.ite
           (gen_bexpr_depth (depth - 1))
           (gen_bexpr_depth (depth - 1))
           (gen_bexpr_depth (depth - 1))) ]
      st

let arb_bexpr =
  QCheck.make ~print:(Format.asprintf "%a" X.pp) (gen_bexpr_depth 4)

(* asserting e must be satisfiable exactly when e is not constant-false,
   and any model must make e true *)
let prop_tseitin_equisat =
  QCheck.Test.make ~name:"Tseitin encoding is equisatisfiable" ~count:300
    arb_bexpr (fun e ->
      let ctx = Tseitin.create () in
      let inputs = Array.init 5 (fun _ -> Tseitin.fresh_var ctx) in
      let lit = Tseitin.lit_of_bexpr ctx (fun v -> inputs.(v)) e in
      Tseitin.assert_lit ctx lit;
      let c = Tseitin.to_cnf ctx in
      let brute_sat =
        let rec try_mask mask =
          if mask >= 32 then false
          else if X.eval (fun v -> mask lsr v land 1 = 1) e then true
          else try_mask (mask + 1)
        in
        try_mask 0
      in
      match Solver.solve c with
      | Solver.Sat model ->
        let assign v = model.(inputs.(v) - 1) in
        brute_sat && X.eval assign e
      | Solver.Unsat -> not brute_sat
      | Solver.Unknown -> false)


(* --- golden search pins ---

   Exact work counters and results of fixed instances. They pin the
   search itself, not just the verdicts: a change to the solver's data
   structures must keep every decision, the propagation order, every
   learnt clause and every model. A change that alters the search on
   purpose (a new restart or phase policy, blocker literals, clause
   minimisation) updates these pins in the same commit. Models are pinned
   by a digest of their bit string, BMC violations by a digest of the
   printed trace. *)

let model_digest m =
  String.init (Array.length m) (fun i -> if m.(i) then '1' else '0')
  |> Digest.string |> Digest.to_hex |> fun h -> String.sub h 0 12

let result_sig = function
  | Solver.Sat m -> "sat:" ^ model_digest m
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let stats_sig (s : Solver.stats) =
  Printf.sprintf "d=%d c=%d p=%d r=%d l=%d" s.Solver.decisions
    s.Solver.conflicts s.Solver.propagations s.Solver.restarts
    s.Solver.learned

let php pigeons holes =
  let var p h = (p * holes) + h + 1 in
  let at_least = List.init pigeons (fun p -> List.init holes (var p)) in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  Cnf.create ~nvars:(pigeons * holes) (at_least @ at_most)

(* a uniform random 3-clause over [nvars] variables: three distinct
   variables, independent signs *)
let random_clause st nvars =
  let rec pick acc =
    if List.length acc = 3 then acc
    else
      let v = 1 + Random.State.int st nvars in
      if List.mem v acc then pick acc else pick (v :: acc)
  in
  List.map (fun v -> if Random.State.bool st then v else -v) (pick [])

let random_3sat ~seed ~nvars ~nclauses =
  let st = Random.State.make [| seed |] in
  Cnf.create ~nvars (List.init nclauses (fun _ -> random_clause st nvars))

let golden_php () =
  let r, s = Solver.solve_stats (php 7 6) in
  [ ("php(7,6)", result_sig r ^ " " ^ stats_sig s) ]

let golden_random () =
  List.init 12 (fun seed ->
      let r, s =
        Solver.solve_stats (random_3sat ~seed ~nvars:100 ~nclauses:427)
      in
      (Printf.sprintf "3sat seed %d" seed, result_sig r ^ " " ^ stats_sig s))

(* one persistent solver: a satisfiable base, then per step a fresh
   assumption set, a solve, and five more random clauses *)
let golden_incremental () =
  let st = Random.State.make [| 2024 |] in
  let nvars = 80 in
  let t = Solver.create () in
  for _ = 1 to 240 do
    Solver.add_clause t (random_clause st nvars)
  done;
  List.init 16 (fun step ->
      let assumps =
        List.init (2 + Random.State.int st 5) (fun _ ->
            let v = 1 + Random.State.int st nvars in
            if Random.State.bool st then v else -v)
      in
      let r, s = Solver.solve_assuming_stats t assumps in
      for _ = 1 to 5 do
        Solver.add_clause t (random_clause st nvars)
      done;
      (Printf.sprintf "step %d" step, result_sig r ^ " " ^ stats_sig s))

let chip_obligation ~mname ~key =
  let chip = Chip.Generator.generate ~with_bugs:true () in
  let works =
    List.filter
      (fun (w : Core.Campaign.work) ->
        w.Core.Campaign.w_mdl.Rtl.Mdl.name = mname)
      (Core.Campaign.work_items chip)
  in
  let props =
    List.map
      (fun (w : Core.Campaign.work) ->
        ( w.Core.Campaign.w_vunit_name ^ "/" ^ w.Core.Campaign.w_prop_name,
          w.Core.Campaign.w_assert,
          w.Core.Campaign.w_assumes ))
      works
  in
  let mdl = (List.hd works).Core.Campaign.w_mdl in
  List.assoc key (Mc.Engine.prepare_module mdl ~props)

let bmc_sig r =
  let kind, (s : Mc.Bmc.stats) =
    match r with
    | Mc.Bmc.No_violation_upto (d, s) -> (Printf.sprintf "holds<=%d" d, s)
    | Mc.Bmc.Violation (tr, s) ->
      let printed = Format.asprintf "%a" Mc.Trace.pp tr in
      ("violation:" ^ Digest.to_hex (Digest.string printed), s)
    | Mc.Bmc.Inconclusive s -> ("inconclusive", s)
  in
  Printf.sprintf "%s depth=%d vars=%d clauses=%d d=%d c=%d p=%d r=%d reused=%d"
    kind s.Mc.Bmc.depth s.Mc.Bmc.cnf_vars s.Mc.Bmc.cnf_clauses
    s.Mc.Bmc.decisions s.Mc.Bmc.conflicts s.Mc.Bmc.propagations
    s.Mc.Bmc.restarts s.Mc.Bmc.reused

let golden_bmc () =
  List.map
    (fun (mname, key) ->
      let nl, ok_signal, constraint_signal = chip_obligation ~mname ~key in
      ( mname ^ "." ^ key,
        bmc_sig
          (Mc.Bmc.check ?constraint_signal nl ~ok_signal ~depth:40) ))
    [ ("a_csr", "a_csr_edetect/pCheck_csr_q");
      ("c_macro_if", "c_macro_if_edetect/pCheckIn_DIN") ]

let golden =
  [ ("php(7,6)",
     "unsat d=863 c=723 p=9594 r=3 l=722");
    ("3sat seed 0",
     "unsat d=293 c=251 p=5856 r=1 l=250");
    ("3sat seed 1",
     "unsat d=397 c=329 p=8152 r=2 l=328");
    ("3sat seed 2",
     "unsat d=538 c=442 p=9943 r=2 l=441");
    ("3sat seed 3",
     "sat:9aafa94c6dfc d=254 c=201 p=4777 r=1 l=201");
    ("3sat seed 4",
     "unsat d=505 c=427 p=9694 r=2 l=426");
    ("3sat seed 5",
     "sat:d685a19aa0e0 d=295 c=228 p=5619 r=1 l=228");
    ("3sat seed 6",
     "unsat d=534 c=451 p=10931 r=2 l=450");
    ("3sat seed 7",
     "unsat d=514 c=432 p=10194 r=2 l=431");
    ("3sat seed 8",
     "unsat d=677 c=574 p=13979 r=3 l=573");
    ("3sat seed 9",
     "sat:d120a99113f2 d=151 c=108 p=2470 r=1 l=108");
    ("3sat seed 10",
     "sat:e1bfe7d39620 d=143 c=103 p=2837 r=1 l=103");
    ("3sat seed 11",
     "sat:9c81563176a1 d=49 c=25 p=774 r=0 l=25");
    ("step 0",
     "sat:71cb29a093b2 d=20 c=1 p=97 r=0 l=1");
    ("step 1",
     "sat:7a36790d49df d=47 c=24 p=621 r=0 l=24");
    ("step 2",
     "sat:6c5f4ce14d36 d=35 c=21 p=455 r=0 l=21");
    ("step 3",
     "sat:bce5dd8efab9 d=11 c=0 p=80 r=0 l=0");
    ("step 4",
     "sat:8cc2c6481f57 d=28 c=9 p=300 r=0 l=9");
    ("step 5",
     "sat:9086df75cb4d d=32 c=20 p=547 r=0 l=20");
    ("step 6",
     "sat:f1220fa98706 d=16 c=3 p=125 r=0 l=3");
    ("step 7",
     "sat:ba9640162ca9 d=65 c=42 p=923 r=0 l=42");
    ("step 8",
     "unsat d=0 c=0 p=5 r=0 l=0");
    ("step 9",
     "sat:bd68317281ed d=45 c=24 p=489 r=0 l=24");
    ("step 10",
     "sat:b1907011b0fb d=13 c=5 p=182 r=0 l=5");
    ("step 11",
     "unsat d=38 c=33 p=760 r=0 l=32");
    ("step 12",
     "sat:8ee7e74e36d9 d=98 c=68 p=1325 r=0 l=68");
    ("step 13",
     "sat:8ee7e74e36d9 d=19 c=0 p=80 r=0 l=0");
    ("step 14",
     "unsat d=11 c=9 p=195 r=0 l=8");
    ("step 15",
     "unsat d=36 c=34 p=676 r=0 l=33");
    ("a_csr.a_csr_edetect/pCheck_csr_q",
     "holds<=40 depth=40 vars=2530 clauses=7553 d=17430 c=3960 p=115206 \
      r=15 reused=40");
    ("c_macro_if.c_macro_if_edetect/pCheckIn_DIN",
     "violation:7bbf3124386975fe63bbbc504f2e9cd1 depth=1 vars=58 \
      clauses=143 d=72 c=47 p=430 r=0 reused=1") ]

let check_golden observed () =
  List.iter
    (fun (name, got) ->
      match List.assoc_opt name golden with
      | Some want -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "no golden pin for %s" name)
    (observed ())

(* add_clause is only legal between solves: a clause added from inside the
   search (here, from the stop callback) is rejected, and the solver takes
   clauses again once the call has returned *)
let test_add_clause_level0 () =
  let t = Solver.create () in
  List.iter (Solver.add_clause t) (php 7 6).Cnf.clauses;
  let rejected = ref 0 in
  let should_stop () =
    (try Solver.add_clause t [ 1; 2 ]
     with Invalid_argument _ -> incr rejected);
    true
  in
  (match Solver.solve_assuming ~should_stop t [] with
   | Solver.Unknown -> ()
   | Solver.Sat _ | Solver.Unsat -> Alcotest.fail "expected the stop to fire");
  Alcotest.(check int) "clause rejected mid-search" 1 !rejected;
  Solver.add_clause t [ 1; 2 ];
  Alcotest.(check bool) "php(7,6) still unsat" true
    (is_unsat (Solver.solve_assuming t []))


(* --- DIMACS --- *)

let test_dimacs_roundtrip () =
  let c = cnf 4 [ [ 1; -2 ]; [ 3 ]; [ -4; 2; 1 ] ] in
  let text = Format.asprintf "%a" Cnf.pp_dimacs c in
  (match Dimacs.parse text with
   | Ok c' ->
     Alcotest.(check int) "nvars" c.Cnf.nvars c'.Cnf.nvars;
     Alcotest.(check bool) "clauses" true (c.Cnf.clauses = c'.Cnf.clauses)
   | Error msg -> Alcotest.fail msg)

let test_dimacs_errors () =
  let expect_error text =
    match Dimacs.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error _ -> ()
  in
  expect_error "1 2 0\n";               (* missing header *)
  expect_error "p cnf 2 1\n1 2\n";     (* unterminated clause *)
  expect_error "p cnf 2 2\n1 2 0\n";   (* clause count mismatch *)
  expect_error "p cnf 1 1\n5 0\n";     (* literal out of range *)
  expect_error "p cnf x y\n"           (* malformed header *)

let test_dimacs_comments_and_spacing () =
  match Dimacs.parse "c a comment\np cnf 3 2\n  1  -2  0\nc mid\n3 0\n" with
  | Ok c ->
    Alcotest.(check int) "clauses parsed" 2 (Cnf.num_clauses c)
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "sat"
    [ ("crafted",
       [ Alcotest.test_case "trivial" `Quick test_trivial;
         Alcotest.test_case "model validity" `Quick test_model_valid;
         Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
         Alcotest.test_case "xor chain" `Quick test_xor_chain;
         Alcotest.test_case "conflict budget" `Quick test_conflict_budget ]);
      ("dimacs",
       [ Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
         Alcotest.test_case "errors" `Quick test_dimacs_errors;
         Alcotest.test_case "comments and spacing" `Quick
           test_dimacs_comments_and_spacing ]);
      ("golden",
       [ Alcotest.test_case "php(7,6)" `Quick (check_golden golden_php);
         Alcotest.test_case "random 3-SAT batch" `Quick
           (check_golden golden_random);
         Alcotest.test_case "assumption sequence" `Quick
           (check_golden golden_incremental);
         Alcotest.test_case "seeded-chip BMC depth 40" `Quick
           (check_golden golden_bmc);
         Alcotest.test_case "add_clause only at level 0" `Quick
           test_add_clause_level0 ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_solver_correct; prop_tseitin_equisat ]) ]
