module B = Rtl.Bitblast
module X = Rtl.Bexpr

type stats = {
  frames : int;
  clauses : int;
  ctis : int;
  sat_calls : int;
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  reused : int;  (* queries answered by the warm persistent solver *)
}

type reason = Frames_exhausted | Solver_limit

type result =
  | Proved of stats
  | Violation of Trace.t * stats
  | Inconclusive of reason * stats

(* A cube is a conjunction of state-bit literals [(var, value)], kept sorted
   by variable id. Counterexamples-to-induction are extracted as full
   minterms over the state bits and shrunk by inductive generalization. *)
type cube = (int * bool) list

exception Limit_hit
exception Cex of int  (* transitions from an initial state to a bad state *)

let check ?(max_conflicts = max_int) ?(max_frames = 32)
    ?(deadline = Deadline.none) ?constraint_signal nl ~ok_signal =
  let flat = B.flatten nl in
  let nstate =
    List.fold_left (fun acc (_, v) -> acc + Array.length v) 0 flat.B.reg_vars
  in
  let ok_bits = flat.B.fn ok_signal in
  if Array.length ok_bits <> 1 then
    invalid_arg "Ic3.check: ok signal must be 1 bit";
  let bad0 = X.not_ ok_bits.(0) in
  let constraint0 =
    Option.map (fun c -> (flat.B.fn c).(0)) constraint_signal
  in
  (* next-state function per state bit, indexed by Bexpr variable id *)
  let next_of = Array.make (max nstate 1) X.fls in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let fns = List.assoc reg_name flat.B.next_fn in
      Array.iteri (fun i v -> next_of.(v) <- fns.(i)) vars)
    flat.B.reg_vars;
  let init_val = Array.make (max nstate 1) false in
  List.iter
    (fun (reg_name, (vars : int array)) ->
      let reset = flat.B.reset_of reg_name in
      Array.iteri (fun i v -> init_val.(v) <- Bitvec.get reset i) vars)
    flat.B.reg_vars;
  let contains_init c = List.for_all (fun (v, b) -> init_val.(v) = b) c in
  let excludes_init c = List.exists (fun (v, b) -> init_val.(v) <> b) c in
  (* delta-encoded frames: a clause proven at level [j] belongs to every
     F_i with i <= j, so F_i's clause set is the union of deltas.(i..) *)
  let deltas = Array.make (max_frames + 2) ([] : cube list) in
  let n_clauses = ref 0 and n_ctis = ref 0 and n_sat_calls = ref 0 in
  let sat = ref Solver.zero_stats in
  let acc_st s = sat := Solver.add_stats !sat s in
  let stats_at k =
    { frames = k; clauses = !n_clauses; ctis = !n_ctis;
      sat_calls = !n_sat_calls; decisions = !sat.Solver.decisions;
      conflicts = !sat.Solver.conflicts;
      propagations = !sat.Solver.propagations;
      restarts = !sat.Solver.restarts;
      reused = max 0 (!n_sat_calls - 1) }
  in
  (* ------------------------------------------------------------------ *)
  (* Query engine: ONE persistent solver for the whole run.
     The transition cone (bad, constraint, next-state functions) is
     encoded once; frame membership is switched by per-frame activation
     literals — clause [c] entering delta [i] adds (~act_i \/ ~c), and a
     query at level L assumes {act_j | j >= L}, which is exactly
     F_L = union of deltas L.. (copies left behind by forward propagation
     stay sound: frames only ever strengthen). Level-0 queries assume the
     init-state literals directly, per-query block cubes get a one-shot
     activation literal retired by a unit right after the solve. *)
  let solver = Solver.create () in
  let ctx = Tseitin.create ~on_clause:(Solver.add_clause solver) () in
  let var_map = Tseitin.input_var ctx in
  let state_lit v b =
    let sv = var_map v in
    if b then sv else -sv
  in
  let not_cube c = List.map (fun (v, b) -> -state_lit v b) c in
  let act = Array.make (max_frames + 2) 0 in
  let act_lit j =
    if act.(j) = 0 then act.(j) <- Tseitin.fresh_var ctx;
    act.(j)
  in
  let bad_memo = ref 0 in
  let bad_lit () =
    if !bad_memo = 0 then
      bad_memo := Tseitin.lit_of_bexpr ctx var_map bad0;
    !bad_memo
  in
  let next_lits = Array.make (max nstate 1) 0 in
  let next_lit v =
    if next_lits.(v) = 0 then
      next_lits.(v) <- Tseitin.lit_of_bexpr ctx var_map next_of.(v);
    next_lits.(v)
  in
  (match constraint0 with
   | Some c ->
     Tseitin.assert_lit ctx (Tseitin.lit_of_bexpr ctx var_map c)
   | None -> ());
  (* called whenever a cube lands in deltas.(i), including forward moves:
     the copy under the new frame's activation literal makes it visible to
     queries at that level *)
  let frame_clause_added i c =
    Tseitin.add_clause ctx (-act_lit i :: not_cube c)
  in
  let solve_query ~level ~block_cube ~target =
    incr n_sat_calls;
    let assumptions = ref [] in
    if level = 0 then
      for v = nstate - 1 downto 0 do
        assumptions := state_lit v init_val.(v) :: !assumptions
      done
    else
      for j = Array.length deltas - 1 downto level do
        assumptions := act_lit j :: !assumptions
      done;
    let retire = ref None in
    (match block_cube with
     | Some c ->
       let b = Tseitin.fresh_var ctx in
       Tseitin.add_clause ctx (-b :: not_cube c);
       assumptions := b :: !assumptions;
       retire := Some b
     | None -> ());
    (match target with
     | `Bad -> assumptions := bad_lit () :: !assumptions
     | `Next (c : cube) ->
       List.iter
         (fun (v, b) ->
           let l = next_lit v in
           assumptions := (if b then l else -l) :: !assumptions)
         c);
    let result, st =
      Solver.solve_assuming_stats ~max_conflicts
        ~should_stop:(Deadline.checker deadline) solver !assumptions
    in
    acc_st st;
    (match !retire with
     | Some b -> Solver.add_clause solver [ -b ]
     | None -> ());
    match result with
    | Solver.Unsat -> `Unsat
    | Solver.Unknown -> raise Limit_hit
    | Solver.Sat model ->
      let value v =
        match Tseitin.find_input ctx v with
        | Some cv -> cv <= Array.length model && model.(cv - 1)
        | None -> false
      in
      `Sat (List.init nstate (fun v -> (v, value v)))
  in
  (* SAT(F_{level} /\ ~cube /\ constraint /\ T /\ cube'): is [cube] still
     reachable in one step from F_level states outside it? *)
  let rel_sat level cube =
    solve_query ~level ~block_cube:(Some cube) ~target:(`Next cube)
  in
  (* inductive generalization: drop literals one at a time, keeping the
     cube relatively inductive and disjoint from the initial state *)
  let generalize s i =
    let g = ref s in
    List.iter
      (fun lit ->
        let cand = List.filter (fun l -> l <> lit) !g in
        if cand <> [] && excludes_init cand then begin
          Deadline.check deadline;
          match rel_sat (i - 1) cand with
          | `Unsat -> g := cand
          | `Sat _ -> ()
        end)
      s;
    !g
  in
  (* recursively block cube [s] at frame [i]; [depth] counts transitions
     from [s] to the bad state that spawned this proof obligation *)
  let rec block s i depth =
    Deadline.check deadline;
    if contains_init s then raise (Cex depth);
    assert (i > 0);
    let rec until_blocked () =
      match rel_sat (i - 1) s with
      | `Unsat -> ()
      | `Sat pred ->
        block pred (i - 1) (depth + 1);
        until_blocked ()
    in
    until_blocked ();
    incr n_ctis;
    let g = generalize s i in
    deltas.(i) <- g :: deltas.(i);
    frame_clause_added i g;
    incr n_clauses
  in
  let k = ref 0 in
  let run () =
    (* depth-0 base case: a bad initial state never enters the frame loop *)
    (match solve_query ~level:0 ~block_cube:None ~target:`Bad with
     | `Sat _ -> raise (Cex 0)
     | `Unsat -> ());
    if nstate = 0 then Proved (stats_at 0)
    else begin
      let proved = ref None in
      k := 1;
      while !proved = None && !k <= max_frames do
        Deadline.check deadline;
        Beacon.report ~engine:"ic3" ~step:!k ~work:(!n_clauses);
        (* block every bad state reachable within F_k *)
        let rec drain () =
          match solve_query ~level:!k ~block_cube:None ~target:`Bad with
          | `Unsat -> ()
          | `Sat s ->
            block s !k 0;
            drain ()
        in
        drain ();
        (* push clauses forward while they stay relatively inductive; an
           emptied delta means F_i = F_{i+1}: an inductive fixpoint *)
        for i = 1 to !k - 1 do
          if !proved = None then begin
            Deadline.check deadline;
            let kept, moved =
              List.partition
                (fun c ->
                  match rel_sat i c with `Sat _ -> true | `Unsat -> false)
                deltas.(i)
            in
            deltas.(i) <- kept;
            deltas.(i + 1) <- moved @ deltas.(i + 1);
            List.iter (frame_clause_added (i + 1)) moved;
            if kept = [] then proved := Some (stats_at !k)
          end
        done;
        incr k
      done;
      match !proved with
      | Some st -> Proved st
      | None -> Inconclusive (Frames_exhausted, stats_at max_frames)
    end
  in
  match run () with
  | r -> r
  | exception Limit_hit -> Inconclusive (Solver_limit, stats_at !k)
  | exception Cex depth -> (
    (* the CTI chain is a concrete path from reset to a bad state, so a
       bounded check at exactly that depth must reproduce it — and yields
       a trace in the engine's standard replayable format *)
    let acc_bmc (b : Bmc.stats) =
      acc_st
        { Solver.decisions = b.Bmc.decisions; conflicts = b.Bmc.conflicts;
          propagations = b.Bmc.propagations; restarts = b.Bmc.restarts;
          learned = 0 }
    in
    match
      Bmc.check ~max_conflicts ~deadline ?constraint_signal nl ~ok_signal
        ~depth
    with
    | Bmc.Violation (trace, bst) ->
      acc_bmc bst;
      Violation (trace, stats_at depth)
    | Bmc.Inconclusive bst ->
      acc_bmc bst;
      Inconclusive (Solver_limit, stats_at depth)
    | Bmc.No_violation_upto _ ->
      failwith "Ic3.check: CTI chain not confirmed by bounded check")
