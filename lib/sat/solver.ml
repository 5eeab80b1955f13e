(* CDCL in the MiniSat style. Variables are 0-based internally; literal
   encoding is 2*v for the positive and 2*v+1 for the negative literal.

   Layout. The hot paths run on flat int arrays and plain loops: no list
   cell, closure or option is allocated per watch visit, decision or
   backtrack.
   - Clause ci is the int array clauses.(ci); the index names the clause
     in watch stacks and reasons. Clauses are never deleted.
   - Each literal's watch list is a growable int stack: watches.(l) holds
     clause indices in slots 0 .. watch_n.(l)-1, and every clause is
     watched by its first two literals. A stack starts as the shared empty
     array and grows on its first push, so a literal costs nothing until a
     clause watches it. Propagation visits a stack from its top (the most
     recently pushed watch first) and pushes the watches it keeps back in
     visit order: it reverses the live slots in place, then compacts them
     front to back.
   - The decision heap is a binary max-heap over (activity desc, var asc),
     with each entry's activity copied into heap_key beside it. Sift-up
     and pop move a hole instead of swapping; pop uses Floyd's method: the
     hole sinks to a leaf along the larger children and the last entry
     climbs back from there.
   - [add_clause] sorts, deduplicates and filters each clause in a small
     int array.

   Search identity. The search is fixed by two orders: the visit order of
   each watch stack above and the heap's (activity, index) order. Together
   with the restart and phase policies they determine every propagation,
   decision, learnt clause and model. test/test_sat.ml pins the counters
   and models of fixed instances. A change that alters the search on
   purpose (blocker literals, clause minimisation, another restart or
   phase policy) updates those pins in the same commit.

   The solver is persistent/incremental: a [t] keeps its clause database,
   learnt clauses, VSIDS activities and saved phases across
   [solve_assuming] calls, and solving under assumption literals answers
   "is the database satisfiable together with these temporary units"
   without permanently committing them. Assumptions are installed as the
   first decision levels (one level per assumption, pseudo-levels for
   assumptions already implied), exactly like MiniSat: after any backjump
   into the assumption prefix the decision loop re-enqueues the remaining
   assumptions in order, so learnt clauses — which mention assumption
   literals negatively where needed and are therefore implied by the clause
   database alone — can be kept forever.

   Restart discipline (the retention-killer fixed here): restarts backtrack
   to the assumption prefix, never below it, and neither activities,
   saved phases nor the learnt database are cleared between calls — a
   restart re-orders the search inside one call but must not throw away the
   warm-start state that makes incremental solving pay off. *)

type result = Sat of bool array | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

let zero_stats =
  { decisions = 0; conflicts = 0; propagations = 0; restarts = 0; learned = 0 }

let add_stats a b =
  { decisions = a.decisions + b.decisions;
    conflicts = a.conflicts + b.conflicts;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts; learned = a.learned + b.learned }

type t = {
  mutable nvars : int;       (* highest DIMACS variable seen *)
  mutable cap : int;         (* allocated capacity of the per-var arrays *)
  (* clause store: clauses.(ci) holds clause ci's literals; the index is
     the clause's name in watch stacks and reasons. Clauses are never
     deleted. *)
  mutable clauses : int array array;
  mutable num_clauses : int;         (* problem + learnt *)
  mutable num_problem_clauses : int; (* clauses added through add_clause *)
  mutable watches : int array array; (* per literal: a stack of clauses *)
  mutable watch_n : int array;       (* per literal: live stack slots *)
  mutable assigns : int array;       (* -1 / 0 / 1 per var *)
  mutable level : int array;
  mutable reason : int array;        (* clause index or -1 *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  (* trail sizes at decision points, as an explicit stack: trail_lim.(i) is
     the trail size on entry to level i+1 and n_levels is the current
     decision level. A list here made decision_level O(level), and enqueue
     reads the level for every assignment — quadratic per solve once BMC
     unrollings push thousands of decisions. *)
  mutable trail_lim : int array;
  mutable n_levels : int;
  mutable activity : float array;
  mutable var_inc : float;
  (* VSIDS order heap: a max-heap of candidate decision variables keyed by
     (activity desc, var index asc) — the same total order the decision
     rule always used, so the heap picks exactly what a full scan would,
     in O(log n) instead of O(n) per decision. Lazy deletion: assigned
     vars linger until popped; every unassigned var is always present
     (inserted on creation and on unassignment at backtrack). *)
  mutable heap : int array;
  mutable heap_key : float array;  (* activity of heap.(i), kept in step *)
  mutable heap_size : int;
  mutable heap_pos : int array;  (* var -> heap slot, -1 when absent *)
  mutable phase : bool array;
  mutable seen : bool array;
  mutable unsat : bool;              (* root-level conflict: unsat forever *)
  mutable n_solves : int;
  (* per-solve work counters: solver-local, so concurrent solves on
     different domains never race (unlike the old stats_last globals) *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learned : int;
}

(* Unchecked int-array access for the hot loops. Each index they take is
   bounded by a size the solver keeps: slots below watch_n.(l) and
   heap_size, trail positions below trail_size, clause positions below the
   clause's length, and variables below nvars. *)
let[@inline] ( .!() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : int array) i (x : int) = Array.unsafe_set a i x

let neg l = l lxor 1
let var_of l = l lsr 1
let lit_of_var v sign = (v lsl 1) lor (if sign then 0 else 1)

(* [cap] sizes every per-variable array, [clauses] the clause index *)
let create_sized ~cap ~clauses =
  let cap = max cap 1 in
  { nvars = 0; cap; clauses = Array.make (max clauses 16) [||];
    num_clauses = 0; num_problem_clauses = 0;
    watches = Array.make (2 * cap) [||]; watch_n = Array.make (2 * cap) 0;
    assigns = Array.make cap (-1); level = Array.make cap 0;
    reason = Array.make cap (-1); trail = Array.make cap 0; trail_size = 0;
    qhead = 0; trail_lim = Array.make cap 0; n_levels = 0;
    activity = Array.make cap 0.0; var_inc = 1.0;
    phase = Array.make cap false; seen = Array.make cap false;
    heap = Array.make cap 0; heap_key = Array.make cap 0.0; heap_size = 0;
    heap_pos = Array.make cap (-1);
    unsat = false;
    n_solves = 0; n_decisions = 0; n_conflicts = 0; n_propagations = 0;
    n_restarts = 0; n_learned = 0 }

let create () = create_sized ~cap:64 ~clauses:256

(* move the hole at slot [i] up until [v] fits, then drop [v] into it *)
let heap_place_up t i v =
  let heap = t.heap and key = t.heap_key and pos = t.heap_pos in
  let av = t.activity.(v) in
  let i = ref i in
  let climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = heap.!(p) and au = key.(p) in
    (* the heap order: higher activity first, then lower index *)
    if av > au || (av = au && v < u) then begin
      heap.!(!i) <- u;
      key.(!i) <- au;
      pos.!(u) <- !i;
      i := p
    end
    else climbing := false
  done;
  heap.!(!i) <- v;
  key.(!i) <- av;
  pos.!(v) <- !i

let heap_insert t v =
  if t.heap_pos.!(v) < 0 then begin
    t.heap_size <- t.heap_size + 1;
    heap_place_up t (t.heap_size - 1) v
  end

(* Floyd's pop: the root's hole sinks to a leaf along the larger children
   (one comparison per level), then the last entry fills it from below *)
let heap_pop t =
  let heap = t.heap and key = t.heap_key and pos = t.heap_pos in
  let v = heap.!(0) in
  pos.!(v) <- -1;
  let n = t.heap_size - 1 in
  t.heap_size <- n;
  if n > 0 then begin
    let i = ref 0 and child = ref 1 in
    while !child < n do
      let l = !child in
      let r = l + 1 in
      (* the larger child, chosen without a branch: which way a sinking
         hole goes is a coin flip the predictor cannot learn *)
      let c =
        if r < n then begin
          let kr = key.(r) and kl = key.(l) in
          let tie_right = Bool.to_int (heap.!(r) < heap.!(l)) in
          l + (Bool.to_int (kr > kl) lor (Bool.to_int (kr = kl) land tie_right))
        end
        else l
      in
      let u = heap.!(c) in
      heap.!(!i) <- u;
      key.(!i) <- key.(c);
      pos.!(u) <- !i;
      i := c;
      child := (2 * c) + 1
    done;
    heap_place_up t !i heap.!(n)
  end;
  v

let grow_to t want =
  let cap = ref t.cap in
  while !cap < want do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let copy a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (min len (Array.length a)); b
  in
  t.watches <- copy t.watches (2 * cap) [||];
  t.watch_n <- copy t.watch_n (2 * cap) 0;
  t.assigns <- copy t.assigns cap (-1);
  t.level <- copy t.level cap 0;
  t.reason <- copy t.reason cap (-1);
  t.trail <- copy t.trail cap 0;
  (* the level stack may already have outgrown [cap] on its own *)
  t.trail_lim <- copy t.trail_lim (max cap (Array.length t.trail_lim)) 0;
  t.activity <- copy t.activity cap 0.0;
  t.phase <- copy t.phase cap false;
  t.seen <- copy t.seen cap false;
  t.heap <- copy t.heap cap 0;
  t.heap_key <- copy t.heap_key cap 0.0;
  t.heap_pos <- copy t.heap_pos cap (-1);
  t.cap <- cap

let ensure_vars t n =
  if n > t.cap then grow_to t n;
  if n > t.nvars then begin
    for v = t.nvars to n - 1 do
      heap_insert t v
    done;
    t.nvars <- n
  end

let num_vars t = t.nvars
let num_clauses t = t.num_problem_clauses

let[@inline] value t l =
  let a = t.assigns.!(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.n_levels

(* one entry per decision plus one pseudo-level per assumption: assumptions
   can outnumber spare capacity, so the stack grows on its own *)
let push_level t =
  if t.n_levels >= Array.length t.trail_lim then begin
    let bigger = Array.make (2 * Array.length t.trail_lim) 0 in
    Array.blit t.trail_lim 0 bigger 0 t.n_levels;
    t.trail_lim <- bigger
  end;
  t.trail_lim.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

let push_watch t l ci =
  let n = t.watch_n.(l) in
  let ws = t.watches.(l) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let bigger = Array.make (max 2 (2 * n)) 0 in
      Array.blit ws 0 bigger 0 n;
      t.watches.(l) <- bigger;
      bigger
    end
  in
  ws.(n) <- ci;
  t.watch_n.(l) <- n + 1

(* store [lits] (at least two literals), watch its first two, and return
   its index *)
let add_clause_raw t lits =
  let ci = t.num_clauses in
  if ci >= Array.length t.clauses then begin
    let bigger = Array.make (max 16 (2 * ci)) [||] in
    Array.blit t.clauses 0 bigger 0 ci;
    t.clauses <- bigger
  end;
  t.clauses.(ci) <- lits;
  t.num_clauses <- ci + 1;
  push_watch t lits.(0) ci;
  push_watch t lits.(1) ci;
  ci

let[@inline] enqueue t l reason =
  match value t l with
  | 1 -> true
  | 0 -> false
  | _ ->
    let v = var_of l in
    t.assigns.!(v) <- 1 lxor (l land 1);
    t.level.!(v) <- decision_level t;
    t.reason.!(v) <- reason;
    t.phase.(v) <- l land 1 = 0;
    t.trail.!(t.trail_size) <- l;
    t.trail_size <- t.trail_size + 1;
    true

let lit_of_dimacs l =
  let v = abs l - 1 in
  lit_of_var v (l > 0)

(* Add a problem clause (DIMACS literals). Only legal at decision level 0,
   i.e. between solves. Root-level simplification: literals already false
   at the root are dropped (root assignments are permanent), clauses already
   true at the root are discarded, the empty clause flips the solver into
   [unsat] forever, units are enqueued at the root. The literals are sorted
   ascending and deduplicated in a small int array; the stored clause keeps
   that order. *)
let add_clause t clause =
  if t.n_levels > 0 then
    invalid_arg "Solver.add_clause: called during a solve (decision level > 0)";
  t.num_problem_clauses <- t.num_problem_clauses + 1;
  if not t.unsat then begin
    let a = Array.of_list clause in
    let n = Array.length a in
    let top = ref 0 in
    for i = 0 to n - 1 do
      let l = lit_of_dimacs a.(i) in
      if l > !top then top := l;
      (* insertion sort: clauses are a handful of literals *)
      let j = ref (i - 1) in
      while !j >= 0 && Int.compare a.(!j) l > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- l
    done;
    if n > 0 then ensure_vars t (var_of !top + 1);
    (* one pass over the sorted literals: drop duplicates and root-false
       literals, spot tautologies (l and neg l are adjacent once sorted)
       and root-true literals *)
    let m = ref 0 and tautology = ref false and satisfied = ref false in
    for i = 0 to n - 1 do
      let l = a.(i) in
      if i = 0 || l <> a.(i - 1) then begin
        if i > 0 && l = neg a.(i - 1) then tautology := true;
        match value t l with
        | 1 -> satisfied := true
        | 0 -> ()
        | _ ->
          a.(!m) <- l;
          incr m
      end
    done;
    if not (!tautology || !satisfied) then
      match !m with
      | 0 -> t.unsat <- true
      | 1 -> if not (enqueue t a.(0) (-1)) then t.unsat <- true
      | m -> ignore (add_clause_raw t (if m = n then a else Array.sub a 0 m))
  end

(* Returns the index of a conflicting clause, or -1. For each literal made
   false, its watch stack is reversed in place so that the visit order (top
   first) runs front to back; kept watches are then compacted to the front
   in visit order, which leaves the last one visited on top — exactly where
   a re-push in visit order would put it. After a conflict the unvisited
   watches are kept as they are. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let p = t.trail.!(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = neg p in
    let ws = Array.unsafe_get t.watches false_lit in
    let n = t.watch_n.!(false_lit) in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let x = ws.!(!lo) in
      ws.!(!lo) <- ws.!(!hi);
      ws.!(!hi) <- x;
      incr lo;
      decr hi
    done;
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let ci = ws.!(i) in
      if !conflict >= 0 then begin
        ws.!(!kept) <- ci;
        incr kept
      end
      else begin
        let lits = Array.unsafe_get t.clauses ci in
        if lits.!(0) = false_lit then begin
          lits.!(0) <- lits.!(1);
          lits.!(1) <- false_lit
        end;
        let first = lits.!(0) in
        if value t first = 1 then begin
          ws.!(!kept) <- ci;
          incr kept
        end
        else begin
          (* first non-false literal past the two watches *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && value t lits.!(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            let l = lits.!(!k) in
            lits.!(1) <- l;
            lits.!(!k) <- false_lit;
            push_watch t l ci
          end
          else begin
            ws.!(!kept) <- ci;
            incr kept;
            if not (enqueue t first ci) then begin
              conflict := ci;
              t.qhead <- t.trail_size
            end
          end
        end
      end
    done;
    t.watch_n.!(false_lit) <- !kept
  done;
  !conflict

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    (* uniform rescale: relative (activity, index) order is unchanged, so
       the heap invariant survives without a rebuild *)
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    for i = 0 to t.heap_size - 1 do
      t.heap_key.(i) <- t.heap_key.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_place_up t t.heap_pos.(v) v

let analyze t confl =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_size - 1) in
  let confl = ref confl in
  let current_level = decision_level t in
  let continue = ref true in
  while !continue do
    let lits = t.clauses.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
      let v = var_of q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= current_level then incr path_count
        else learnt := q :: !learnt
      end
    done;
    (* pick the next literal to resolve on: last seen var on the trail *)
    while not t.seen.(var_of t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    t.seen.(var_of !p) <- false;
    decr path_count;
    if !path_count > 0 then confl := t.reason.(var_of !p)
    else continue := false
  done;
  let learnt = Array.of_list (neg !p :: !learnt) in
  (* clear seen flags *)
  Array.iter (fun l -> t.seen.(var_of l) <- false) learnt;
  (* backtrack level: second-highest level in the learnt clause *)
  let bt_level = ref 0 in
  let swap_pos = ref 1 in
  for i = 1 to Array.length learnt - 1 do
    let lv = t.level.(var_of learnt.(i)) in
    if lv > !bt_level then begin
      bt_level := lv;
      swap_pos := i
    end
  done;
  if Array.length learnt > 1 then begin
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!swap_pos);
    learnt.(!swap_pos) <- tmp
  end;
  (learnt, !bt_level)

let backtrack t lvl =
  (* trail_lim.(lvl) is the trail size when level lvl+1 was entered, i.e.
     everything at or above that index belongs to levels > lvl *)
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of t.trail.!(i) in
      t.assigns.!(v) <- -1;
      t.reason.!(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.n_levels <- lvl
  end

type decide_outcome = All_assigned | Decided | Assumption_false

(* While decision_level < |assumps| the next "decision" is the next
   assumption: levels 1..|assumps| are the assumption prefix, one level per
   assumption even when the literal is already implied (a pseudo-level with
   no trail entries). This indexing is what lets a backjump into the prefix
   self-heal — the next decide call re-examines assumptions from the level
   it landed on. *)
let decide t assumps =
  let dl = decision_level t in
  if dl < Array.length assumps then begin
    let l = assumps.(dl) in
    match value t l with
    | 0 -> Assumption_false
    | 1 ->
      push_level t;
      Decided
    | _ ->
      push_level t;
      let ok = enqueue t l (-1) in
      assert ok;
      Decided
  end
  else begin
    (* pop stale (already assigned) entries until the heap yields the live
       maximum — the same variable a full (activity desc, index asc) scan
       over the unassigned vars would select *)
    let best = ref (-1) in
    while !best < 0 && t.heap_size > 0 do
      let v = heap_pop t in
      if t.assigns.!(v) < 0 then best := v
    done;
    if !best < 0 then All_assigned
    else begin
      t.n_decisions <- t.n_decisions + 1;
      push_level t;
      let l = lit_of_var !best t.phase.(!best) in
      let ok = enqueue t l (-1) in
      assert ok;
      Decided
    end
  end

let solve_assuming_stats ?(max_conflicts = max_int)
    ?(should_stop = fun () -> false) t assumptions =
  t.n_solves <- t.n_solves + 1;
  t.n_decisions <- 0;
  t.n_conflicts <- 0;
  t.n_propagations <- 0;
  t.n_restarts <- 0;
  t.n_learned <- 0;
  let stats_of t =
    { decisions = t.n_decisions; conflicts = t.n_conflicts;
      propagations = t.n_propagations; restarts = t.n_restarts;
      learned = t.n_learned }
  in
  if t.unsat then (Unsat, stats_of t)
  else begin
    List.iter (fun l -> ensure_vars t (abs l)) assumptions;
    let assumps = Array.of_list (List.map lit_of_dimacs assumptions) in
    let n_assumps = Array.length assumps in
    let conflicts_total = ref 0 in
    let restart_limit = ref 100 in
    let conflicts_since_restart = ref 0 in
    let result = ref None in
    (* poll the stop callback once per [stop_period] search steps: each
       step is one propagate + decide/analyze, so the poll (typically a
       gettimeofday behind a deadline) stays off the hot path *)
    let stop_period = 1024 in
    let stop_fuel = ref stop_period in
    while !result = None do
      decr stop_fuel;
      if !stop_fuel <= 0 then begin
        stop_fuel := stop_period;
        if should_stop () then result := Some Unknown
      end;
      let confl = propagate t in
      if confl >= 0 then begin
        incr conflicts_total;
        incr conflicts_since_restart;
        t.n_conflicts <- t.n_conflicts + 1;
        t.var_inc <- t.var_inc /. 0.95;
        if decision_level t = 0 then begin
          (* conflict under no decisions at all: unsat regardless of
             assumptions, now and forever *)
          t.unsat <- true;
          result := Some Unsat
        end
        else if decision_level t <= n_assumps then
          (* every open decision level is an assumption level: the clause
             database refutes the assumption prefix — unsat under these
             assumptions only, the database itself stays consistent *)
          result := Some Unsat
        else if !conflicts_total >= max_conflicts then result := Some Unknown
        else begin
          let learnt, bt_level = analyze t confl in
          t.n_learned <- t.n_learned + 1;
          backtrack t bt_level;
          if Array.length learnt = 1 then begin
            (* bt_level is 0 for unit learnts: the enqueue is permanent, so
               the clause itself need not be stored *)
            if not (enqueue t learnt.(0) (-1)) then begin
              t.unsat <- true;
              result := Some Unsat
            end
          end
          else begin
            let ci = add_clause_raw t learnt in
            let ok = enqueue t learnt.(0) ci in
            assert ok
          end
        end
      end
      else if
        !conflicts_since_restart >= !restart_limit
        && decision_level t > n_assumps
      then begin
        conflicts_since_restart := 0;
        restart_limit := !restart_limit * 3 / 2;
        t.n_restarts <- t.n_restarts + 1;
        (* restart to the assumption prefix, never below: backtracking to 0
           would undo the assumptions (they would be re-installed, but the
           prefix is where the warm search state lives) *)
        backtrack t n_assumps
      end
      else begin
        match decide t assumps with
        | All_assigned ->
          let model = Array.init t.nvars (fun v -> t.assigns.(v) = 1) in
          result := Some (Sat model)
        | Assumption_false ->
          (* the next assumption is already false under the previous ones:
             unsat under assumptions *)
          result := Some Unsat
        | Decided -> ()
      end
    done;
    backtrack t 0;
    match !result with
    | Some r -> (r, stats_of t)
    | None -> assert false
  end

let solve_assuming ?max_conflicts ?should_stop t assumptions =
  fst (solve_assuming_stats ?max_conflicts ?should_stop t assumptions)

let solves t = t.n_solves

(* One-shot interface: a fresh solver per call, so repeated solves of the
   same CNF are bit-for-bit deterministic (no retained state). The solver is
   sized from the CNF once, so a small query allocates small arrays. *)
let solve_stats ?max_conflicts ?should_stop (cnf : Cnf.t) =
  let t =
    create_sized ~cap:cnf.Cnf.nvars ~clauses:(Cnf.num_clauses cnf)
  in
  ensure_vars t cnf.Cnf.nvars;
  List.iter (add_clause t) cnf.Cnf.clauses;
  let result, stats = solve_assuming_stats ?max_conflicts ?should_stop t [] in
  (* one-shot models are sized by the CNF header even when trailing
     variables never appear in any clause *)
  let result =
    match result with
    | Sat m when Array.length m < cnf.Cnf.nvars ->
      Sat (Array.init cnf.Cnf.nvars (fun v -> v < Array.length m && m.(v)))
    | r -> r
  in
  (result, stats)

let solve ?max_conflicts ?should_stop cnf =
  fst (solve_stats ?max_conflicts ?should_stop cnf)
