module PG = Verifiable.Propgen
module G = Chip.Generator

type prop_result = {
  category : string;
  module_name : string;
  vunit_name : string;
  prop_name : string;
  cls : PG.prop_class;
  outcome : Mc.Engine.outcome;
  bug : Chip.Bugs.id option;
  cache_hit : bool;
  replayed : bool;
  attempts : int;
  healed : bool;
}

type row = {
  cat : string;
  subs : int;
  bugs_found : int;
  p0 : int;
  p1 : int;
  p2 : int;
  p3 : int;
  total : int;
  proved : int;
  failed : int;
  resource_out : int;
  errors : int;
  time_s : float;
}

type progress = {
  done_ : int;
  total : int;
  retries : int;
  cache_hits : int;
  replayed : int;
}

type heal_totals = {
  heal_attempted : int;
  heal_recovered : int;
  heal_proved : int;
  heal_failed : int;
  heal_exhausted : int;
  heal_unhealable : int;
  heal_spurious : int;
  heal_cegar_iters : int;
  heal_subs_proved : int;
  heal_bad_cuts : int;
  heal_pieces : int;
  heal_wall_s : float;
}

type t = {
  results : prop_result list;
  rows : row list;
  grand_total : row;
  wall_time_s : float;
  cache_hits : int;
  retries : int;
  replayed : int;
  healing : heal_totals option;
}

type work = {
  w_category : string;
  w_mdl : Rtl.Mdl.t;
  w_vunit_name : string;
  w_prop_name : string;
  w_assert : Psl.Ast.fl;
  w_assumes : Psl.Ast.fl list;
  w_cls : PG.prop_class;
  w_bug : Chip.Bugs.id option;
}

let work_items (chip : G.t) =
  List.concat_map
    (fun (c : G.category) ->
      List.concat_map
        (fun (u : G.unit_) ->
          List.concat_map
            (fun (cls, (vunit : Psl.Ast.vunit)) ->
              let assumes = List.map snd (Psl.Ast.assumes vunit) in
              List.map
                (fun (prop_name, assert_) ->
                  { w_category = c.G.cat_name;
                    w_mdl = u.G.info.Verifiable.Transform.mdl;
                    w_vunit_name = vunit.Psl.Ast.vunit_name;
                    w_prop_name = prop_name; w_assert = assert_;
                    w_assumes = assumes; w_cls = cls;
                    w_bug = u.G.leaf.Chip.Archetype.bug })
                (Psl.Ast.asserts vunit))
            (PG.all u.G.info u.G.spec))
        c.G.units)
    chip.G.categories

(* Equal keys mean equal preparation inputs up to the module name, which
   preparation does not look at, hence equal prepared cones and
   fingerprints. Property names and positions stand in for vunit names,
   which embed the module name. [No_sharing] makes the bytes depend on
   structure alone, not on how the generator happened to share subterms. *)
let module_key (mdl : Rtl.Mdl.t) props =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ({ mdl with Rtl.Mdl.name = "" }, props)
          [ Marshal.No_sharing ]))

(* One per module key: the structure's first module (any would do), its
   ordered properties, and what has been computed for it so far — each
   property's fingerprint, and the {!Mc.Engine.prepare_module} cones once
   some obligation of the structure misses both journal and cache. *)
type cell = {
  c_lock : Mutex.t;
  c_key : string;
  c_mdl : Rtl.Mdl.t;
  c_props : (string * Psl.Ast.fl * Psl.Ast.fl list) list;
  mutable c_table : (Rtl.Netlist.t * string * string option) array option;
  mutable c_fps : string array option;
}

(* a captured worker crash, rendered as a verdict so it can flow through
   Table 2 and the CSV like any other outcome *)
let crash_outcome exn =
  { Mc.Engine.verdict = Mc.Engine.Error (Printexc.to_string exn);
    engine_used = "crash"; time_s = 0.0; iterations = 0; work_nodes = 0;
    perf = Mc.Engine.empty_perf }

(* the status/flight vocabulary for a verdict: class for tallies, short
   string for flight-recorder event details *)
let verdict_class (o : Mc.Engine.outcome) : Status.verdict_class =
  match o.Mc.Engine.verdict with
  | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ -> `Proved
  | Mc.Engine.Failed _ -> `Failed
  | Mc.Engine.Resource_out _ -> `Resource_out
  | Mc.Engine.Error _ -> `Error

let verdict_str (o : Mc.Engine.outcome) =
  match o.Mc.Engine.verdict with
  | Mc.Engine.Proved -> "proved"
  | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
  | Mc.Engine.Failed _ -> "failed"
  | Mc.Engine.Resource_out c -> "resource_out:" ^ c
  | Mc.Engine.Error _ -> "error"

let run ?budget ?strategy ?portfolio ?(progress = fun (_ : progress) -> ())
    ?jobs ?race_jobs ?cache ?journal ?(max_retries = 2)
    ?(retry_backoff_s = 0.05) ?fault_hook ?self_heal ?status (chip : G.t) =
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> c | None -> Mc.Cache.create () in
  let hits0 = Mc.Cache.hits cache in
  let items = Array.of_list (work_items chip) in
  let total = Array.length items in
  (* a portfolio is just a strategy; the fingerprint salt covers its members
     and budgets, so the cache/journal key is the same whether the members
     are then raced on a pool or laddered sequentially *)
  let strategy =
    match portfolio with
    | Some p -> Some (Mc.Engine.Portfolio p)
    | None -> strategy
  in
  let exec = Executor.of_jobs jobs in
  let use_racing = portfolio <> None && Executor.jobs exec > 1 in
  (* Shared preparation, keyed by structure: most leaves are copies of a few
     templates. Each module gets a {!module_key} before anything is
     prepared, and all modules with one key share a cell (see {!cell}):
     the first worker to need a structure's fingerprints or prepared cones
     fills them for every module of that structure, whichever executor path
     (sequential, pool, racing, healing) gets there first; siblings block
     briefly and reuse. A crash during preparation leaves the cell unfilled,
     so a retrying sibling re-prepares instead of inheriting a poisoned
     table. *)
  let salt = Mc.Obligation.key_salt ?budget ?strategy () in
  let module_props = Hashtbl.create 64 in
  let pos =
    Array.map
      (fun w ->
        let mname = w.w_mdl.Rtl.Mdl.name in
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt module_props mname)
        in
        Hashtbl.replace module_props mname
          ((w.w_prop_name, w.w_assert, w.w_assumes) :: prev);
        List.length prev)
      items
  in
  let cells = Hashtbl.create 32 and cell_of_module = Hashtbl.create 64 in
  let cell =
    Array.map
      (fun w ->
        let mname = w.w_mdl.Rtl.Mdl.name in
        match Hashtbl.find_opt cell_of_module mname with
        | Some c -> c
        | None ->
          let props = List.rev (Hashtbl.find module_props mname) in
          let key = module_key w.w_mdl props in
          let c =
            match Hashtbl.find_opt cells key with
            | Some c -> c
            | None ->
              let c =
                { c_lock = Mutex.create (); c_key = key; c_mdl = w.w_mdl;
                  c_props = props; c_table = None; c_fps = None }
              in
              Hashtbl.add cells key c;
              c
          in
          Hashtbl.add cell_of_module mname c;
          c)
      items
  in
  (* the helpers below run under the cell's lock *)
  let table c =
    match c.c_table with
    | Some t -> t
    | None ->
      let mname = c.c_mdl.Rtl.Mdl.name in
      let t =
        Obs.Telemetry.span ~cat:"obligation"
          ~args:[ ("module", mname) ]
          (mname ^ ".prepare")
          (fun () ->
            let label i = string_of_int i in
            let tbl =
              Mc.Engine.prepare_module c.c_mdl
                ~props:(List.mapi (fun i (_, a, s) -> (label i, a, s)) c.c_props)
            in
            Array.init (List.length c.c_props) (fun i ->
                List.assoc (label i) tbl))
      in
      c.c_table <- Some t;
      t
  in
  let obligation c p =
    Mc.Obligation.of_prepared ?budget ?strategy (table c).(p) ~meta:()
  in
  let fingerprints c =
    match c.c_fps with
    | Some fps -> fps
    | None ->
      (* the cache's first level answers without preparing; a position it
         lacks is prepared and recorded there *)
      let fps =
        Array.init (List.length c.c_props) (fun p ->
            match
              Mc.Cache.find_fingerprint cache ~module_key:c.c_key ~pos:p ~salt
            with
            | Some fp -> fp
            | None ->
              let fp = Mc.Obligation.fingerprint (obligation c p) in
              Mc.Cache.add_fingerprint cache ~module_key:c.c_key ~pos:p ~salt
                fp;
              fp)
      in
      c.c_fps <- Some fps;
      fps
  in
  let fingerprint i =
    Mutex.protect cell.(i).c_lock (fun () -> (fingerprints cell.(i)).(pos.(i)))
  in
  let prepared i =
    Mutex.protect cell.(i).c_lock (fun () -> obligation cell.(i) pos.(i))
  in
  let stat f = match status with Some s -> f s | None -> () in
  let strat_name =
    match strategy with
    | Some s -> Mc.Engine.strategy_name s
    | None -> "auto"
  in
  stat (fun s ->
      Status.set_total s total;
      Status.set_phase s "campaign");
  let done_ = ref 0 and retries_n = ref 0 and hits_n = ref 0
  and replayed_n = ref 0 in
  let progress_lock = Mutex.create () in
  let note_retry () =
    Mutex.lock progress_lock;
    incr retries_n;
    Mutex.unlock progress_lock
  in
  let fault (w : work) ~fingerprint attempt =
    match fault_hook with
    | Some f ->
      f ~module_name:w.w_mdl.Rtl.Mdl.name ~prop_name:w.w_prop_name
        ~fingerprint ~attempt
    | None -> ()
  in
  let record ~key outcome =
    (* checkpoint + cache under the ORIGINAL fingerprint even when a retry
       ran with a degraded budget: the obligation answered is the same one.
       Error verdicts are recorded in neither, so a transient crash can
       poison neither structurally identical siblings nor a resumed run. *)
    match outcome.Mc.Engine.verdict with
    | Mc.Engine.Error _ -> ()
    | _ ->
      Mc.Cache.add cache ~key outcome;
      Option.iter (fun j -> Journal.append j ~key outcome) journal
  in
  let finish (w : work) ~cache_hit ~replayed ~attempts outcome =
    let ob_name = w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name in
    let healed =
      String.equal outcome.Mc.Engine.engine_used Heal.engine_name
      && Mc.Engine.conclusive outcome
    in
    Obs.Flight.record "ob.done"
      ~detail:
        (ob_name ^ " " ^ verdict_str outcome ^ " "
        ^ outcome.Mc.Engine.engine_used);
    Mc.Beacon.idle ();
    stat (fun s ->
        Status.finish s ~verdict:(verdict_class outcome) ~cache_hit ~replayed
          ~raced:(use_racing && (not cache_hit) && (not replayed)
                  && attempts > 0)
          ~healed);
    Mutex.lock progress_lock;
    incr done_;
    if cache_hit then incr hits_n;
    if replayed then incr replayed_n;
    let snap =
      { done_ = !done_; total; retries = !retries_n; cache_hits = !hits_n;
        replayed = !replayed_n }
    in
    (* the callback runs under the lock so user printf output stays whole *)
    (try progress snap
     with e ->
       Mutex.unlock progress_lock;
       raise e);
    Mutex.unlock progress_lock;
    { category = w.w_category; module_name = w.w_mdl.Rtl.Mdl.name;
      vunit_name = w.w_vunit_name; prop_name = w.w_prop_name; cls = w.w_cls;
      outcome; bug = w.w_bug; cache_hit; replayed; attempts;
      (* a resumed run replays a previously healed verdict straight from the
         journal; the attribution marks it *)
      healed }
  in
  let check_body i =
    let w = items.(i) in
    let ob_name = w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name in
    stat (fun s ->
        Status.begin_work s ~obligation:ob_name ~engine:strat_name ~attempt:1);
    (* the fingerprint and, on a miss, the prepared cone come from the
       structure's shared cell, filled inside the worker so preparation
       parallelizes along with the engine runs *)
    let key = fingerprint i in
    let outcome, cache_hit, replayed, attempts =
      match Option.bind journal (fun j -> Journal.replay j ~key) with
      | Some outcome -> (outcome, false, true, 0)
      | None -> (
        match Mc.Cache.find cache ~key with
        | Some outcome ->
          (* re-journal cache hits: after a kill the in-memory cache is gone,
             so resume must be able to replay them from disk *)
          Option.iter (fun j -> Journal.append j ~key outcome) journal;
          (outcome, true, false, 0)
        | None ->
          (* retry ladder: a crash gets capped re-runs with a halved budget
             and exponential backoff; a crash on the last rung becomes an
             [Error] verdict instead of taking the campaign down *)
          let rec attempt ob n =
            if n > 1 then
              stat (fun s ->
                  Status.begin_work s ~obligation:ob_name ~engine:strat_name
                    ~attempt:n);
            (* the hook runs inside the match scrutinee: a fault it injects
               is indistinguishable from the engine itself crashing *)
            match
              fault w ~fingerprint:key n;
              Mc.Obligation.run ob
            with
            | outcome -> (outcome, n)
            | exception exn ->
              if n > max_retries then (crash_outcome exn, n)
              else begin
                note_retry ();
                stat Status.retry;
                Obs.Flight.record "ob.retry" ~detail:ob_name;
                if retry_backoff_s > 0.0 then
                  Unix.sleepf
                    (Float.min 1.0
                       (retry_backoff_s *. (2.0 ** float_of_int (n - 1))));
                attempt
                  { ob with
                    Mc.Obligation.budget =
                      Mc.Engine.degrade_budget ob.Mc.Obligation.budget }
                  (n + 1)
              end
          in
          let outcome, attempts = attempt (prepared i) 1 in
          record ~key outcome;
          (outcome, false, false, attempts))
    in
    finish w ~cache_hit ~replayed ~attempts outcome
  in
  let check i =
    let w = items.(i) in
    Obs.Telemetry.span ~cat:"obligation"
      ~args:
        [ ("category", w.w_category); ("module", w.w_mdl.Rtl.Mdl.name);
          ("property", w.w_prop_name) ]
      (w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name)
      (fun () -> check_body i)
  in
  (* The racing path: preparation and cache/journal lookup happen when the
     scheduler opens the group; on a miss the portfolio members become the
     group's attempts, each a full engine run under its own member budget
     with the scheduler's cancellation hook (plus the obligation's wall
     deadline, fixed here at open — exactly where the sequential ladder
     fixes it) threaded into every engine loop. [Engine.combine_portfolio]
     folds the attributed prefix, so a raced group reports byte-identically
     to the same portfolio laddered on one domain. Member crashes become
     non-conclusive [Error] member outcomes — the race continues and the
     sibling verdicts still decide the obligation. *)
  let open_group i =
    let w = items.(i) in
    Obs.Telemetry.span ~cat:"obligation"
      ~args:
        [ ("category", w.w_category); ("module", w.w_mdl.Rtl.Mdl.name);
          ("property", w.w_prop_name) ]
      (w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name ^ ".open")
    @@ fun () ->
    let key = fingerprint i in
    match Option.bind journal (fun j -> Journal.replay j ~key) with
    | Some outcome ->
      Executor.Done
        (finish w ~cache_hit:false ~replayed:true ~attempts:0 outcome)
    | None -> (
      match Mc.Cache.find cache ~key with
      | Some outcome ->
        Option.iter (fun j -> Journal.append j ~key outcome) journal;
        Executor.Done
          (finish w ~cache_hit:true ~replayed:false ~attempts:0 outcome)
      | None ->
        let ob = prepared i in
        let members =
          match ob.Mc.Obligation.strategy with
          | Mc.Engine.Portfolio p -> Array.of_list p.Mc.Engine.p_members
          | _ -> assert false (* racing is only entered with a portfolio *)
        in
        let outer =
          Mc.Deadline.of_budget
            ob.Mc.Obligation.budget.Mc.Engine.wall_deadline_s
        in
        Executor.Race
          { attempts = Array.length members;
            run =
              (fun k ~cancel ->
                let m = members.(k) in
                let mname = Mc.Engine.strategy_name m.Mc.Engine.m_strategy in
                let ob_name = w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name in
                stat (fun s ->
                    Status.begin_work s ~obligation:ob_name ~engine:mname
                      ~attempt:(k + 1));
                let out =
                  Obs.Telemetry.span ~cat:"race"
                    ~args:
                      [ ("member", mname);
                        ("module", w.w_mdl.Rtl.Mdl.name);
                        ("property", w.w_prop_name) ]
                    (ob_name ^ "#" ^ mname)
                  @@ fun () ->
                  match
                    fault w ~fingerprint:key (k + 1);
                    Mc.Engine.check_netlist ~budget:m.Mc.Engine.m_budget
                      ?constraint_signal:ob.Mc.Obligation.constraint_signal
                      ~cancel:(fun () ->
                        cancel () || Mc.Deadline.expired outer)
                      ~strategy:m.Mc.Engine.m_strategy ob.Mc.Obligation.nl
                      ~ok_signal:ob.Mc.Obligation.ok_signal
                  with
                  | outcome -> outcome
                  | exception exn -> crash_outcome exn
                in
                Mc.Beacon.idle ();
                stat Status.end_work;
                Obs.Flight.record "race.member"
                  ~detail:(ob_name ^ "#" ^ mname ^ " " ^ verdict_str out);
                out);
            conclusive = Mc.Engine.conclusive;
            combine =
              (fun outs ->
                let outcome = Mc.Engine.combine_portfolio outs in
                if Obs.Telemetry.active () then begin
                  Obs.Telemetry.count
                    ("race.win." ^ outcome.Mc.Engine.engine_used);
                  Obs.Telemetry.count
                    ~n:(List.length outs - 1)
                    "race.losers"
                end;
                record ~key outcome;
                finish w ~cache_hit:false ~replayed:false ~attempts:1 outcome)
          })
  in
  let results =
    (* the executor's per-item isolation is the outer safety net: anything
       that escapes the retry ladder (a crash in prepare, a raising progress
       callback) still yields a row instead of losing the campaign *)
    let indices = Array.init total Fun.id in
    (if use_racing then
       Executor.race_map_result exec ?race_jobs open_group indices
     else Executor.map_result exec check indices)
    |> Array.mapi (fun i -> function
         | Ok r -> r
         | Error exn ->
           let w = items.(i) in
           { category = w.w_category; module_name = w.w_mdl.Rtl.Mdl.name;
             vunit_name = w.w_vunit_name; prop_name = w.w_prop_name;
             cls = w.w_cls; outcome = crash_outcome exn; bug = w.w_bug;
             cache_hit = false; replayed = false; attempts = 0;
             healed = false })
    |> Array.to_list
  in
  (* Self-healing recovery pass: every obligation whose retry ladder ended
     in [Resource_out] gets one shot at the automatic Figure 7 loop
     ({!Heal.heal_one}). Pieces go through the same cache/journal machinery
     as first-class obligations under cut-salted fingerprints, and a healed
     verdict is checkpointed under the monolithic key — appended after the
     original resource-out record, so the journal's later-duplicate-wins
     replay hands a resumed run the healed outcome without re-proving
     anything. Healing an obligation is deterministic (pieces run
     sequentially inside its worker), so seq ≡ pool ≡ raced. *)
  let results, healing =
    match self_heal with
    | None -> (results, None)
    | Some max_iters ->
      let th0 = Unix.gettimeofday () in
      stat (fun s -> Status.set_phase s "healing");
      let arr = Array.of_list results in
      let ro_idx =
        Array.init (Array.length arr) Fun.id
        |> Array.to_list
        |> List.filter (fun i ->
               match arr.(i).outcome.Mc.Engine.verdict with
               | Mc.Engine.Resource_out _ -> true
               | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
               | Mc.Engine.Failed _ | Mc.Engine.Error _ ->
                 false)
        |> Array.of_list
      in
      let run_piece (p : Heal.piece) =
        Obs.Telemetry.span ~cat:"heal"
          ~args:[ ("module", p.Heal.p_mdl.Rtl.Mdl.name);
                  ("salt", p.Heal.p_salt) ]
          p.Heal.p_label
        @@ fun () ->
        let ob =
          Mc.Obligation.prepare ?budget ?strategy p.Heal.p_mdl
            ~assert_:p.Heal.p_assert ~assumes:p.Heal.p_assumes ~meta:()
        in
        let key = Mc.Obligation.fingerprint ~salt:p.Heal.p_salt ob in
        match Option.bind journal (fun j -> Journal.replay j ~key) with
        | Some outcome ->
          Obs.Telemetry.count "heal.piece.replayed";
          outcome
        | None -> (
          match Mc.Cache.find cache ~key with
          | Some outcome ->
            Option.iter (fun j -> Journal.append j ~key outcome) journal;
            Obs.Telemetry.count "heal.piece.cached";
            outcome
          | None ->
            let outcome = Mc.Obligation.run ob in
            record ~key outcome;
            Obs.Telemetry.count "heal.piece.solved";
            outcome)
      in
      let heal_i i =
        let w = items.(i) in
        Obs.Telemetry.span ~cat:"heal"
          ~args:[ ("module", w.w_mdl.Rtl.Mdl.name);
                  ("property", w.w_prop_name) ]
          ("heal:" ^ w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name)
        @@ fun () ->
        let hr =
          Heal.heal_one ~max_iters ~run_piece ~mdl:w.w_mdl
            ~assert_:w.w_assert ~assumes:w.w_assumes ()
        in
        (match hr.Heal.h_outcome with
        | None -> ()
        | Some out ->
          (* checkpoint under the monolithic key — the shared cell already
             holds it from the main pass *)
          record ~key:(fingerprint i) out;
          if Mc.Engine.conclusive out then
            Obs.Telemetry.count "heal.recovered");
        hr
      in
      let heal_outs = Executor.map_result exec heal_i ro_idx in
      let recovered = ref 0 and proved = ref 0 and failed = ref 0
      and exhausted = ref 0 and unhealable = ref 0 and spurious = ref 0
      and cegar = ref 0 and subs = ref 0 and bad = ref 0
      and pieces = ref 0 in
      Array.iteri
        (fun k res ->
          match res with
          | Error _ -> () (* a crash while healing keeps the original row *)
          | Ok hr ->
            spurious := !spurious + hr.Heal.h_spurious;
            cegar := !cegar + hr.Heal.h_finals;
            subs := !subs + hr.Heal.h_subs_proved;
            bad := !bad + hr.Heal.h_bad_cuts;
            pieces := !pieces + hr.Heal.h_pieces;
            let heal_name w =
              w.w_mdl.Rtl.Mdl.name ^ "." ^ w.w_prop_name
            in
            (match hr.Heal.h_outcome with
            | None ->
              Obs.Flight.record "heal.unhealable"
                ~detail:(heal_name items.(ro_idx.(k)));
              incr unhealable
            | Some out ->
              let i = ro_idx.(k) in
              stat (fun s -> Status.reclassify s ~to_:(verdict_class out));
              Obs.Flight.record
                (if Mc.Engine.conclusive out then "heal.recovered"
                 else "heal.exhausted")
                ~detail:(heal_name items.(i) ^ " " ^ verdict_str out);
              arr.(i) <-
                { (arr.(i)) with
                  outcome = out;
                  healed = Mc.Engine.conclusive out };
              (match out.Mc.Engine.verdict with
              | Mc.Engine.Proved ->
                incr recovered;
                incr proved
              | Mc.Engine.Failed _ ->
                incr recovered;
                incr failed
              | Mc.Engine.Proved_bounded _ ->
                incr recovered
              | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
                incr exhausted)))
        heal_outs;
      ( Array.to_list arr,
        Some
          { heal_attempted = Array.length ro_idx;
            heal_recovered = !recovered; heal_proved = !proved;
            heal_failed = !failed; heal_exhausted = !exhausted;
            heal_unhealable = !unhealable; heal_spurious = !spurious;
            heal_cegar_iters = !cegar; heal_subs_proved = !subs;
            heal_bad_cuts = !bad; heal_pieces = !pieces;
            heal_wall_s = Unix.gettimeofday () -. th0 } )
  in
  let row_of cat subs cat_results =
    let by f = List.length (List.filter f cat_results) in
    let count_cls cls = by (fun r -> r.cls = cls) in
    let failed_modules =
      List.sort_uniq compare
        (List.filter_map
           (fun r ->
             match r.outcome.Mc.Engine.verdict with
             | Mc.Engine.Failed _ -> Some r.module_name
             | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
             | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
               None)
           cat_results)
    in
    (* B5/B6 live in separate decoder modules, so defects = defective
       modules here; the paper also counts defects *)
    { cat; subs; bugs_found = List.length failed_modules;
      p0 = count_cls PG.P0; p1 = count_cls PG.P1; p2 = count_cls PG.P2;
      p3 = count_cls PG.P3; total = List.length cat_results;
      proved =
        by (fun r ->
            match r.outcome.Mc.Engine.verdict with
            | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ -> true
            | Mc.Engine.Failed _ | Mc.Engine.Resource_out _
            | Mc.Engine.Error _ ->
              false);
      failed =
        by (fun r ->
            match r.outcome.Mc.Engine.verdict with
            | Mc.Engine.Failed _ -> true
            | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
            | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
              false);
      resource_out =
        by (fun r ->
            match r.outcome.Mc.Engine.verdict with
            | Mc.Engine.Resource_out _ -> true
            | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
            | Mc.Engine.Failed _ | Mc.Engine.Error _ ->
              false);
      errors =
        by (fun r ->
            match r.outcome.Mc.Engine.verdict with
            | Mc.Engine.Error _ -> true
            | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
            | Mc.Engine.Failed _ | Mc.Engine.Resource_out _ ->
              false);
      time_s =
        List.fold_left (fun acc r -> acc +. r.outcome.Mc.Engine.time_s) 0.0
          cat_results }
  in
  let rows =
    List.map
      (fun (c : G.category) ->
        row_of c.G.cat_name (List.length c.G.units)
          (List.filter (fun r -> r.category = c.G.cat_name) results))
      chip.G.categories
  in
  let grand_total =
    { cat = "Total"; subs = List.fold_left (fun a r -> a + r.subs) 0 rows;
      bugs_found = List.fold_left (fun a r -> a + r.bugs_found) 0 rows;
      p0 = List.fold_left (fun a r -> a + r.p0) 0 rows;
      p1 = List.fold_left (fun a r -> a + r.p1) 0 rows;
      p2 = List.fold_left (fun a r -> a + r.p2) 0 rows;
      p3 = List.fold_left (fun a r -> a + r.p3) 0 rows;
      total = List.fold_left (fun a (r : row) -> a + r.total) 0 rows;
      proved = List.fold_left (fun a r -> a + r.proved) 0 rows;
      failed = List.fold_left (fun a r -> a + r.failed) 0 rows;
      resource_out = List.fold_left (fun a r -> a + r.resource_out) 0 rows;
      errors = List.fold_left (fun a r -> a + r.errors) 0 rows;
      time_s = List.fold_left (fun a r -> a +. r.time_s) 0.0 rows }
  in
  stat (fun s -> Status.set_phase s "done");
  { results; rows; grand_total; wall_time_s = Unix.gettimeofday () -. t0;
    cache_hits = Mc.Cache.hits cache - hits0; retries = !retries_n;
    replayed = !replayed_n; healing }

let failed_results t =
  List.filter
    (fun r ->
      match r.outcome.Mc.Engine.verdict with
      | Mc.Engine.Failed _ -> true
      | Mc.Engine.Proved | Mc.Engine.Proved_bounded _
      | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
        false)
    t.results

(* Work totals over every result row — cached and replayed rows carry the
   perf of the run that produced them, so these totals do not depend on how
   the executor scheduled the campaign (unlike live sink counters, where a
   pool can run two structurally identical obligations concurrently and
   miss the cache twice). *)
type perf_totals = {
  engine_time_s : float;
  engine_attempts : int;
  fix_iterations : int;
  bdd_peak : int;
  peak_set_size : int;
  bdd_polls : int;
  sat_decisions : int;
  sat_conflicts : int;
  sat_propagations : int;
  sat_restarts : int;
  max_unroll_depth : int;
  max_final_k : int;
  max_ic3_frames : int;
}

let aggregate_perf t =
  List.fold_left
    (fun a r ->
      let p = r.outcome.Mc.Engine.perf in
      { engine_time_s = a.engine_time_s +. r.outcome.Mc.Engine.time_s;
        engine_attempts =
          a.engine_attempts + List.length p.Mc.Engine.attempts;
        fix_iterations = a.fix_iterations + p.Mc.Engine.fix_iterations;
        bdd_peak = max a.bdd_peak p.Mc.Engine.bdd_peak;
        peak_set_size = max a.peak_set_size p.Mc.Engine.peak_set_size;
        bdd_polls = a.bdd_polls + p.Mc.Engine.bdd_polls;
        sat_decisions = a.sat_decisions + p.Mc.Engine.sat_decisions;
        sat_conflicts = a.sat_conflicts + p.Mc.Engine.sat_conflicts;
        sat_propagations = a.sat_propagations + p.Mc.Engine.sat_propagations;
        sat_restarts = a.sat_restarts + p.Mc.Engine.sat_restarts;
        max_unroll_depth = max a.max_unroll_depth p.Mc.Engine.unroll_depth;
        max_final_k = max a.max_final_k p.Mc.Engine.final_k;
        max_ic3_frames = max a.max_ic3_frames p.Mc.Engine.ic3_frames })
    { engine_time_s = 0.0; engine_attempts = 0; fix_iterations = 0;
      bdd_peak = 0; peak_set_size = 0; bdd_polls = 0; sat_decisions = 0;
      sat_conflicts = 0; sat_propagations = 0; sat_restarts = 0;
      max_unroll_depth = -1; max_final_k = -1; max_ic3_frames = -1 }
    t.results

(* Results answered per winning engine, counted off the verdict-attributed
   [engine_used] of every row — cached and replayed rows carry the engine of
   the run that produced them, so like {!aggregate_perf} this is
   schedule-independent. *)
let wins_by_engine t =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun r ->
      let e = r.outcome.Mc.Engine.engine_used in
      Hashtbl.replace tbl e
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e)))
    t.results;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let resource_out_causes t =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun r ->
      match Mc.Engine.resource_cause r.outcome with
      | Some c ->
        Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
      | None -> ())
    t.results;
  (* canonical vocabulary order first, then any non-canonical stragglers
     alphabetically, so tallies line up across runs and schema consumers *)
  let rank c =
    let rec idx i = function
      | [] -> (1, c)
      | x :: _ when String.equal x c -> (0, Printf.sprintf "%02d" i)
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 Mc.Engine.ro_causes
  in
  List.sort
    (fun (a, _) (b, _) -> compare (rank a) (rank b))
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let to_metrics_json ?report ?jobs t =
  let module J = Obs.Json in
  let p = aggregate_perf t in
  let row_fields (r : row) =
    [ ("subs", J.Int r.subs); ("bugs_found", J.Int r.bugs_found);
      ("p0", J.Int r.p0); ("p1", J.Int r.p1); ("p2", J.Int r.p2);
      ("p3", J.Int r.p3); ("total", J.Int r.total);
      ("proved", J.Int r.proved); ("failed", J.Int r.failed);
      ("resource_out", J.Int r.resource_out); ("errors", J.Int r.errors);
      ("time_s", J.Float r.time_s) ]
  in
  let fields =
    [ ("schema", J.String "dicheck-metrics-v1");
      ("wall_time_s", J.Float t.wall_time_s) ]
    @ (match jobs with Some j -> [ ("jobs", J.Int j) ] | None -> [])
    @ [ ("totals",
         J.Obj
           (row_fields t.grand_total
           @ [ ("cache_hits", J.Int t.cache_hits);
               ("retries", J.Int t.retries);
               ("replayed", J.Int t.replayed) ]));
        ("resource_out_causes",
         J.Obj
           (List.map (fun (c, n) -> (c, J.Int n)) (resource_out_causes t)));
        ("perf",
         J.Obj
           [ ("engine_time_s", J.Float p.engine_time_s);
             ("engine_attempts", J.Int p.engine_attempts);
             ("fix_iterations", J.Int p.fix_iterations);
             ("bdd_peak", J.Int p.bdd_peak);
             ("peak_set_size", J.Int p.peak_set_size);
             ("bdd_polls", J.Int p.bdd_polls);
             ("sat_decisions", J.Int p.sat_decisions);
             ("sat_conflicts", J.Int p.sat_conflicts);
             ("sat_propagations", J.Int p.sat_propagations);
             ("sat_restarts", J.Int p.sat_restarts);
             ("max_unroll_depth", J.Int p.max_unroll_depth);
             ("max_final_k", J.Int p.max_final_k);
             ("max_ic3_frames", J.Int p.max_ic3_frames) ]);
        ("strategy_wins",
         J.Obj
           (List.map (fun (e, n) -> (e, J.Int n)) (wins_by_engine t))) ]
    @ (match t.healing with
      | None -> []
      | Some h ->
        [ ("recovery",
           J.Obj
             [ ("attempted", J.Int h.heal_attempted);
               ("recovered", J.Int h.heal_recovered);
               ("healed_proved", J.Int h.heal_proved);
               ("healed_failed", J.Int h.heal_failed);
               ("exhausted", J.Int h.heal_exhausted);
               ("unhealable", J.Int h.heal_unhealable);
               ("spurious_cex", J.Int h.heal_spurious);
               ("cegar_iters", J.Int h.heal_cegar_iters);
               ("subs_proved", J.Int h.heal_subs_proved);
               ("bad_cuts", J.Int h.heal_bad_cuts);
               ("pieces", J.Int h.heal_pieces);
               ("healed_rows",
                J.Int (List.length (List.filter (fun r -> r.healed) t.results)));
               ("wall_s", J.Float h.heal_wall_s) ]) ])
    @ [
        ("categories",
         J.Obj
           (List.map (fun (r : row) -> (r.cat, J.Obj (row_fields r)))
              t.rows)) ]
    @
    match report with
    | None -> []
    | Some rep ->
      [ ("counters",
         J.Obj
           (List.map
              (fun (k, v) -> (k, J.Int v))
              (List.sort compare rep.Obs.Telemetry.counters)));
        ("histograms",
         J.Obj
           (List.map
              (fun (k, h) ->
                ( k,
                  J.Obj
                    [ ("count", J.Int h.Obs.Telemetry.h_count);
                      ("sum", J.Float h.Obs.Telemetry.h_sum);
                      ("min", J.Float h.Obs.Telemetry.h_min);
                      ("max", J.Float h.Obs.Telemetry.h_max);
                      ("buckets",
                       J.List
                         (Array.to_list
                            (Array.map
                               (fun n -> J.Int n)
                               h.Obs.Telemetry.h_buckets))) ] ))
              rep.Obs.Telemetry.hists));
        ("recording_domains", J.Int rep.Obs.Telemetry.domains);
        ("spans", J.Int (List.length rep.Obs.Telemetry.spans)) ]
  in
  J.to_string_pretty (J.Obj fields)

let write_metrics_json ?report ?jobs t path =
  let oc = open_out path in
  (try output_string oc (to_metrics_json ?report ?jobs t)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "category,module,vunit,property,class,verdict,cause,engine,wall_ms,\
     iterations,bdd_peak,sat_conflicts,cache_hit,replayed,attempts,bug,\
     healed\n";
  List.iter
    (fun r ->
      let verdict, cause =
        match r.outcome.Mc.Engine.verdict with
        | Mc.Engine.Proved -> ("proved", "")
        | Mc.Engine.Proved_bounded d -> (Printf.sprintf "bounded:%d" d, "")
        | Mc.Engine.Failed _ -> ("failed", "")
        | Mc.Engine.Resource_out msg -> ("resource_out", msg)
        | Mc.Engine.Error msg ->
          (* commas would shift the columns; the message is free-form *)
          ("error",
           String.map (fun c -> if c = ',' then ';' else c) msg)
      in
      let p = r.outcome.Mc.Engine.perf in
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%s,%s,%s,%s,%s,%s,%.1f,%d,%d,%d,%b,%b,%d,%s,%b\n"
           r.category r.module_name r.vunit_name r.prop_name
           (Verifiable.Propgen.class_name r.cls)
           verdict cause r.outcome.Mc.Engine.engine_used
           (1000.0 *. r.outcome.Mc.Engine.time_s)
           r.outcome.Mc.Engine.iterations p.Mc.Engine.bdd_peak
           p.Mc.Engine.sat_conflicts r.cache_hit r.replayed r.attempts
           (match r.bug with Some b -> Chip.Bugs.name b | None -> "")
           r.healed))
    t.results;
  Buffer.contents buf

let write_csv t path =
  let oc = open_out path in
  (try output_string oc (to_csv t)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let pp_table2 ppf t =
  Format.fprintf ppf
    "Module    # of   # of   P0     P1     P2     P3     Total  RO     Err    \
     Time(s)@.";
  Format.fprintf ppf
    "Name      Sub    Bug@.";
  let line (r : row) =
    Format.fprintf ppf
      "%-9s %-6d %-6d %-6d %-6d %-6d %-6d %-6d %-6d %-6d %.1f@."
      r.cat r.subs r.bugs_found r.p0 r.p1 r.p2 r.p3 r.total r.resource_out
      r.errors r.time_s
  in
  List.iter line t.rows;
  line t.grand_total;
  match resource_out_causes t with
  | [] -> ()
  | causes ->
    Format.fprintf ppf "resource-out causes:%t@." (fun ppf ->
        List.iter (fun (c, n) -> Format.fprintf ppf " %s=%d" c n) causes)
