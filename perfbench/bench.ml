(* The repository's benchmark: one executable that runs a named workload for
   a fixed time, checks every verdict against a known answer, and prints its
   metrics as one JSON object on the last line of standard output.

     bench.exe --workload table2|bmc-deep|fuzz|pool --seed N --seconds S
               --trace 0|1

   With [--trace 0] the run repeats the workload's round until [--seconds]
   are spent and reports the end-to-end metrics (medians over rounds). With
   [--trace 1] it runs one untraced round, the same round under
   {!Obs.Telemetry}, and for the campaign workloads a third, traced round
   through the layer-probe driver ({!Probe}); it reports the per-layer
   metrics. It runs from the root of a source checkout, normally through
   [perfbench/run.py], which builds it first. *)

module C = Core.Campaign
module E = Mc.Engine
module G = Qa.Gen
module T = Obs.Telemetry
module P = Obs.Profile
module J = Obs.Json

let now = Unix.gettimeofday

(* Elapsed wall-clock and process CPU time (user + system, all domains).
   The end-to-end times are CPU times: on a shared virtual machine the wall
   clock also counts time stolen by other tenants and fsync latency, which
   swing a one-domain run by 20% or more between runs. *)
type clock = { wall : float; cpu : float }

let zero = { wall = 0.0; cpu = 0.0 }
let ( ++ ) a b = { wall = a.wall +. b.wall; cpu = a.cpu +. b.cpu }

let timed f =
  let t0 = now () and c0 = Sys.time () in
  let v = f () in
  (v, { wall = now () -. t0; cpu = Sys.time () -. c0 })

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* the committed known answer, and a directory for journals, removed when
   the run ends *)
let answers_file = "perfbench/expected_failures.txt"
let work_dir = ".perfbench-work"
let work_file name = Filename.concat work_dir name

(* ---- known answers ---- *)

(* "module.property bug" per line of the committed data file *)
let load_answers path =
  let tbl = Hashtbl.create 16 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             let line = String.trim line in
             if line <> "" && line.[0] <> '#' then
               match
                 String.split_on_char ' ' line |> List.filter (( <> ) "")
               with
               | [ key; bug ] -> Hashtbl.replace tbl key bug
               | _ -> failwith (Printf.sprintf "%s: bad line %S" path line)));
  tbl

(* What a campaign phase must answer: [fails] maps the obligations that
   must fail to their seeded bug, every other obligation must satisfy
   [holds]. A resource-out is wrong unless [allow_ro]; an [Error] verdict is
   always wrong. *)
type expect = {
  fails : (string, string) Hashtbl.t;
  holds : E.verdict -> bool;
  allow_ro : bool;
}

let proved = function E.Proved -> true | _ -> false

(* obligations on the paper's chip *)
let chip_obligations = 2047

let verdict_str (o : E.outcome) =
  match o.E.verdict with
  | E.Proved -> "proved"
  | E.Proved_bounded d -> Printf.sprintf "bounded:%d" d
  | E.Failed _ -> "failed"
  | E.Resource_out c -> "resource_out:" ^ c
  | E.Error _ -> "error"

let decided (o : E.outcome) =
  match o.E.verdict with
  | E.Proved | E.Proved_bounded _ | E.Failed _ -> true
  | E.Resource_out _ | E.Error _ -> false

let is_error (o : E.outcome) =
  match o.E.verdict with E.Error _ -> true | _ -> false

let crash_outcome exn =
  { E.verdict = E.Error (Printexc.to_string exn); engine_used = "crash";
    time_s = 0.0; iterations = 0; work_nodes = 0; perf = E.empty_perf }

(* ---- phases and rounds ---- *)

(* One answered obligation; [key] is "module.property". *)
type row = { key : string; bug : string option; outcome : E.outcome }

(* One timed phase of a round and what it answered. *)
type phase = {
  name : string;
  t : clock;
  obligations : int;
  attempted : int;  (** obligations, plus attacked mutants in [fuzz] *)
  verdicts : int;  (** obligations, or engine runs in [fuzz] *)
  decided_n : int;  (** answers that are Proved, Proved_bounded or Failed *)
  wrong : int;  (** answers that differ from the known answer, and errors *)
  digest : string;  (** digest of the verdict vector *)
  hits : int;  (** cache hits *)
}

let digest_of lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let wrong_row ex r =
  match r.outcome.E.verdict with
  | E.Error _ -> true
  | E.Resource_out _ -> not ex.allow_ro
  | E.Failed _ -> (
    match Hashtbl.find_opt ex.fails r.key with
    | Some b -> r.bug <> Some b
    | None -> true)
  | (E.Proved | E.Proved_bounded _) as v ->
    Hashtbl.mem ex.fails r.key || not (ex.holds v)

let explain_wrong name ex rows =
  List.iter
    (fun r ->
      if wrong_row ex r then
        Printf.eprintf "perfbench: %s: wrong verdict %s = %s%s\n%!" name r.key
          (verdict_str r.outcome)
          (if Hashtbl.mem ex.fails r.key then " (must fail)" else ""))
    rows

let campaign_phase_of ~name ~t ~hits ex rows =
  let present = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace present r.key ()) rows;
  (* a missing row or a missing expected failure is a wrong answer too *)
  let missing =
    max 0 (chip_obligations - List.length rows)
    + Hashtbl.fold
        (fun k _ n -> if Hashtbl.mem present k then n else n + 1)
        ex.fails 0
  in
  let wrong = List.length (List.filter (wrong_row ex) rows) + missing in
  if wrong > 0 then explain_wrong name ex rows;
  let n = List.length rows in
  { name; t; obligations = n; attempted = n; verdicts = n;
    decided_n = List.length (List.filter (fun r -> decided r.outcome) rows);
    wrong;
    digest =
      digest_of (List.map (fun r -> r.key ^ "=" ^ verdict_str r.outcome) rows);
    hits }

let rows_of_campaign (c : C.t) =
  List.map
    (fun (r : C.prop_result) ->
      { key = r.C.module_name ^ "." ^ r.C.prop_name;
        bug = Option.map Chip.Bugs.name r.C.bug;
        outcome = r.C.outcome })
    c.C.results

(* The reporting a user sees at the end of a campaign: Table 2, the CSV and
   the metrics JSON. *)
let report (c : C.t) =
  ignore (Sys.opaque_identity (Format.asprintf "%a" C.pp_table2 c));
  ignore (Sys.opaque_identity (C.to_csv c));
  ignore (Sys.opaque_identity (C.to_metrics_json c))

type round = {
  phases : phase list;
  report_t : clock;
  total : clock;  (** phases plus reporting *)
  campaigns : (string * C.t) list;  (** by phase name *)
  fresh : E.outcome list;  (** outcomes of the round's own engine runs *)
}

(* Run one campaign phase: the campaign is timed, then reported. *)
let campaign_phase ~name ex run =
  T.span ~cat:"bench" name @@ fun () ->
  let c, t = timed run in
  let (), report_t =
    timed (fun () -> T.span ~cat:"bench" "report" (fun () -> report c))
  in
  let p =
    campaign_phase_of ~name ~t ~hits:c.C.cache_hits ex (rows_of_campaign c)
  in
  (p, report_t, (name, c))

let round_of parts =
  let phases = List.map (fun (p, _, _) -> p) parts in
  let report_t = List.fold_left (fun a (_, r, _) -> a ++ r) zero parts in
  let campaigns = List.map (fun (_, _, c) -> c) parts in
  let fresh =
    List.concat_map
      (fun (_, (c : C.t)) ->
        List.filter_map
          (fun (r : C.prop_result) ->
            if r.C.attempts > 0 then Some r.C.outcome else None)
          c.C.results)
      campaigns
  in
  { phases; report_t;
    total = List.fold_left (fun a p -> a ++ p.t) report_t phases;
    campaigns; fresh }

let with_journal j f =
  Fun.protect ~finally:(fun () -> Core.Journal.close j) (fun () -> f j)

(* [run] with an unsynced journal at [path] when [capture], else without:
   a traced run reads the campaign's fingerprints back from it *)
let with_capture ~capture path run =
  if capture then
    with_journal (Core.Journal.create ~fsync:false path) (fun j -> run (Some j))
  else run None

(* ---- the workloads ---- *)

type inputs =
  | Chips of { pre : Chip.Generator.t; post : Chip.Generator.t option }
  | Cases of G.case list

let expect_pre answers = { fails = answers; holds = proved; allow_ro = false }

let expect_post =
  { fails = Hashtbl.create 1; holds = proved; allow_ro = false }

(* bmc-deep: the pre-fix chip with incremental BMC at depth 40 *)
let bmc_budget = { E.default_budget with E.bmc_depth = 40 }

let expect_bmc answers =
  { (expect_pre answers) with
    holds = (function E.Proved_bounded 40 -> true | _ -> false) }

(* table2: the paper's bug-hunt loop on one domain with the default Auto
   strategy. Cold fills a cache and a journal, warm re-campaigns the
   post-fix chip against that cache, resume replays the cold journal.
   [capture] gives the warm phase an unsynced journal of its own, so a
   traced run can compare its fingerprints with the probe's. *)
let table2_round ~answers ~capture pre post =
  let cache = Mc.Cache.create () in
  let jpath = work_file "table2.journal" in
  let cold =
    campaign_phase ~name:"cold" (expect_pre answers) (fun () ->
        with_journal (Core.Journal.create jpath) (fun journal ->
            C.run ~cache ~journal pre))
  in
  let warm =
    campaign_phase ~name:"warm" expect_post (fun () ->
        with_capture ~capture (work_file "warm.journal")
          (fun journal -> C.run ~cache ?journal post))
  in
  let resume =
    campaign_phase ~name:"resume" (expect_pre answers) (fun () ->
        with_journal (Core.Journal.create ~resume:true jpath) (fun journal ->
            C.run ~journal pre))
  in
  round_of [ cold; warm; resume ]

let bmc_round ~answers ~capture pre =
  round_of
    [ campaign_phase ~name:"bmc" (expect_bmc answers) (fun () ->
          with_capture ~capture (work_file "bmc.journal")
            (fun journal ->
              C.run ~budget:bmc_budget ~strategy:E.Bmc
                ~cache:(Mc.Cache.create ()) ?journal pre)) ]

(* pool: the racing portfolio, then the starved self-healing campaign, both
   on two domains with fresh caches *)
let starved_budget =
  { E.default_budget with
    E.bdd_node_limit = Some 2_000;
    E.pobdd_node_limit = Some 2_000 }

let pool_round ~answers pre =
  let race =
    campaign_phase ~name:"race" (expect_pre answers) (fun () ->
        C.run ~jobs:2 ~race_jobs:2
          ~portfolio:(E.default_portfolio E.default_budget)
          ~cache:(Mc.Cache.create ()) pre)
  in
  let heal =
    campaign_phase ~name:"heal"
      { (expect_pre answers) with allow_ro = true }
      (fun () ->
        C.run ~jobs:2 ~budget:starved_budget
          ~portfolio:
            (E.portfolio ~name:"bdd-combined"
               [ { E.m_strategy = E.Bdd_combined; m_budget = starved_budget } ])
          ~self_heal:4 ~cache:(Mc.Cache.create ()) pre)
  in
  round_of [ race; heal ]

(* fuzz: one design per cell of a fixed grid of small Qa.Gen shapes, each
   the first design of that shape in the seed's Qa.Gen stream. A fixed grid
   keeps the cost of a round nearly independent of the seed, while the
   seed still picks every design's salt (decoder bug sites, filler entity
   mixes). Sizes stay well inside the differential fuzz budget's wall
   deadline, so every verdict is reproducible. *)
let fuzz_cells =
  let cells t ws ds =
    List.concat_map (fun w -> List.map (fun d -> (t, w, d)) ds) ws
  in
  G.(
    cells Csr [ 2; 3; 4; 5 ] [ 1 ]
    @ cells Fsm_ctrl [ 3; 4; 5; 6; 7; 8 ] [ 1 ]
    @ cells Macro_if [ 2; 3; 4; 5 ] [ 1 ]
    @ cells Datapath [ 2; 3 ] [ 1 ]
    @ cells Decoder [ 3; 4 ] [ 1 ]
    @ cells Counter [ 2; 3; 4 ] [ 1 ]
    @ cells Fifo [ 2 ] [ 2 ]
    @ cells Merge [ 2 ] [ 2; 3; 4; 5 ]
    @ cells Filler [ 3 ] [ 1 ])

let fuzz_cases ~seed =
  List.map
    (fun (t, w, d) ->
      let rec find i =
        let p = G.params_of ~seed ~index:i in
        if p.G.template = t && p.G.width = w && p.G.depth = d then
          G.case_of ~seed ~index:i
        else find (i + 1)
      in
      find 0)
    fuzz_cells

let fuzz_round cases =
  T.span ~cat:"bench" "fuzz" @@ fun () ->
  let lines = ref [] and fresh = ref [] in
  let obligations = ref 0 and mutants = ref 0 and wrong = ref 0 in
  let (), t =
    timed @@ fun () ->
    List.iter
      (fun (case : G.case) ->
        let r = Qa.Differential.check_case case in
        List.iter
          (fun (o : Qa.Differential.obligation_report) ->
            incr obligations;
            List.iter
              (fun (e : Qa.Differential.engine_result) ->
                let out = e.Qa.Differential.outcome in
                fresh := out :: !fresh;
                if is_error out then incr wrong;
                lines :=
                  Printf.sprintf "%s.%s/%s%s=%s" case.G.id
                    o.Qa.Differential.prop_name
                    (E.strategy_name e.Qa.Differential.strategy)
                    (if e.Qa.Differential.scratch then "/scratch" else "")
                    (verdict_str out)
                  :: !lines)
              o.Qa.Differential.engines)
          r.Qa.Differential.obligations;
        List.iter
          (fun (d : Qa.Differential.discrepancy) ->
            incr wrong;
            Printf.eprintf "perfbench: fuzz discrepancy %s %s: %s\n%!"
              (Qa.Differential.kind_name d.Qa.Differential.kind)
              d.Qa.Differential.case_id d.Qa.Differential.detail)
          r.Qa.Differential.discrepancies;
        if G.mutations case.G.params <> [] then
          List.iter
            (fun (k : Qa.Mutate.kill) ->
              incr mutants;
              let bug = Chip.Bugs.name k.Qa.Mutate.bug in
              if not k.Qa.Mutate.detected then begin
                incr wrong;
                Printf.eprintf "perfbench: fuzz mutant %s/%s survived\n%!"
                  case.G.id bug
              end;
              lines :=
                Printf.sprintf "%s/mutant/%s=%b" case.G.id bug
                  k.Qa.Mutate.detected
                :: !lines)
            (Qa.Mutate.run_case case.G.params ~id:case.G.id).Qa.Mutate.kills)
      cases
  in
  let fresh = List.rev !fresh in
  let p =
    { name = "fuzz"; t; obligations = !obligations;
      attempted = !obligations + !mutants;
      verdicts = List.length fresh;
      decided_n = List.length (List.filter decided fresh);
      wrong = !wrong; digest = digest_of (List.rev !lines); hits = 0 }
  in
  { phases = [ p ]; report_t = zero; total = t; campaigns = []; fresh }

(* ---- the layer probe ---- *)

(* Re-drives the campaign's sequential path through public functions, with
   a span around every call into a layer: work items, shared module
   preparation, obligation packaging, fingerprint, journal replay, cache
   lookup, engine run, cache insert and journal append. Its rows must match
   {!Core.Campaign.run} row for row in fingerprint and verdict
   ({!check_rows}), so the split it yields describes the campaign's work. *)
module Probe = struct
  type prow = {
    fp : string;
    row : row;
    hit : bool;
  }

  let sp name f = T.span ~cat:"probe" name f

  let run ?budget ?strategy ~cache ?journal chip =
    let items = sp "probe.work_items" (fun () -> C.work_items chip) in
    let prop_key (w : C.work) = w.C.w_vunit_name ^ "/" ^ w.C.w_prop_name in
    let mname (w : C.work) = w.C.w_mdl.Rtl.Mdl.name in
    let props = Hashtbl.create 64 in
    List.iter
      (fun w ->
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt props (mname w))
        in
        Hashtbl.replace props (mname w)
          ((prop_key w, w.C.w_assert, w.C.w_assumes) :: prev))
      items;
    let prepared = Hashtbl.create 64 in
    let fresh = ref [] in
    let rows =
      List.map
        (fun (w : C.work) ->
          T.span ~cat:"obligation" (mname w ^ "." ^ w.C.w_prop_name)
          @@ fun () ->
          let table =
            match Hashtbl.find_opt prepared (mname w) with
            | Some t -> t
            | None ->
              let t =
                sp "probe.prepare" (fun () ->
                    E.prepare_module w.C.w_mdl
                      ~props:(List.rev (Hashtbl.find props (mname w))))
              in
              Hashtbl.add prepared (mname w) t;
              t
          in
          let ob =
            sp "probe.of_prepared" (fun () ->
                Mc.Obligation.of_prepared ?budget ?strategy
                  (List.assoc (prop_key w) table)
                  ~meta:())
          in
          let key =
            sp "probe.fingerprint" (fun () -> Mc.Obligation.fingerprint ob)
          in
          let append o =
            Option.iter
              (fun j ->
                sp "probe.journal_append" (fun () ->
                    Core.Journal.append j ~key o))
              journal
          in
          let outcome, hit =
            match
              Option.bind journal (fun j ->
                  sp "probe.journal_replay" (fun () ->
                      Core.Journal.replay j ~key))
            with
            | Some o -> (o, false)
            | None -> (
              match
                sp "probe.cache_find" (fun () -> Mc.Cache.find cache ~key)
              with
              | Some o ->
                append o;
                (o, true)
              | None ->
                let o =
                  sp "probe.run" (fun () ->
                      try Mc.Obligation.run ob with e -> crash_outcome e)
                in
                fresh := o :: !fresh;
                if not (is_error o) then begin
                  sp "probe.cache_add" (fun () -> Mc.Cache.add cache ~key o);
                  append o
                end;
                (o, false))
          in
          { fp = key; hit;
            row =
              { key = mname w ^ "." ^ w.C.w_prop_name;
                bug = Option.map Chip.Bugs.name w.C.w_bug; outcome } })
        items
    in
    (rows, List.rev !fresh)

  let open_journal ?resume path =
    sp "probe.journal_open" (fun () -> Core.Journal.create ?resume path)

  let close_journal j =
    sp "probe.journal_close" (fun () -> Core.Journal.close j)

  (* one probe phase, timed and checked like a campaign phase *)
  let phase ~name ex f =
    T.span ~cat:"bench" name @@ fun () ->
    let (rows, fresh), t = timed f in
    let p =
      campaign_phase_of ~name ~t
        ~hits:(List.length (List.filter (fun r -> r.hit) rows))
        ex (List.map (fun r -> r.row) rows)
    in
    (name, p, rows, fresh)

  let table2 ~answers pre post =
    let cache = Mc.Cache.create () in
    let jpath = work_file "probe.journal" in
    let with_j j f =
      Fun.protect ~finally:(fun () -> close_journal j) (fun () -> f j)
    in
    (* sequenced with [let]: a list literal evaluates right to left *)
    let cold =
      phase ~name:"cold" (expect_pre answers) (fun () ->
          with_j (open_journal jpath) (fun journal -> run ~cache ~journal pre))
    in
    let warm = phase ~name:"warm" expect_post (fun () -> run ~cache post) in
    let resume =
      phase ~name:"resume" (expect_pre answers) (fun () ->
          with_j (open_journal ~resume:true jpath) (fun journal ->
              run ~cache:(Mc.Cache.create ()) ~journal pre))
    in
    [ cold; warm; resume ]

  let bmc ~answers pre =
    [ phase ~name:"bmc" (expect_bmc answers)
        (fun () ->
          run ~budget:bmc_budget ~strategy:E.Bmc ~cache:(Mc.Cache.create ())
            pre) ]

  (* Row-for-row comparison with a campaign of the same phase: same
     obligation, same verdict, same fingerprint (read back from the
     campaign's journal), same cache hits. Returns the mismatch count. *)
  let check_rows ~name (c : C.t) ~fingerprints prows =
    let crow = Array.of_list (rows_of_campaign c) in
    let fps = Array.of_list fingerprints in
    let prows = Array.of_list prows in
    let bad = ref 0 in
    let complain fmt =
      incr bad;
      Printf.eprintf ("perfbench: probe %s: " ^^ fmt ^^ "\n%!") name
    in
    if Array.length crow <> Array.length prows then
      complain "%d rows, campaign has %d" (Array.length prows)
        (Array.length crow)
    else if Array.length fps <> Array.length prows then
      complain "%d rows, campaign journal has %d" (Array.length prows)
        (Array.length fps)
    else
      Array.iteri
        (fun i p ->
          let c = crow.(i) in
          if p.row.key <> c.key then
            complain "row %d is %s, campaign has %s" i p.row.key c.key
          else if verdict_str p.row.outcome <> verdict_str c.outcome then
            complain "%s is %s, campaign has %s" c.key
              (verdict_str p.row.outcome) (verdict_str c.outcome)
          else if p.fp <> fps.(i) then
            complain "%s has another fingerprint than the campaign's" c.key)
        prows;
    let hits =
      Array.fold_left (fun n p -> if p.hit then n + 1 else n) 0 prows
    in
    if hits <> c.C.cache_hits then
      complain "%d cache hits, campaign has %d" hits c.C.cache_hits;
    !bad
end

(* ---- per-layer metrics from a traced round ---- *)

let self_ms prof classes =
  List.fold_left
    (fun a (e : P.entry) ->
      if List.mem e.P.e_class classes then a +. (e.P.e_self_us /. 1000.0)
      else a)
    0.0 prof.P.p_entries

let spans prof cls =
  List.fold_left
    (fun a (e : P.entry) -> if e.P.e_class = cls then a + e.P.e_count else a)
    0 prof.P.p_entries

(* upper bound, in ms, of the histogram bucket holding quantile [q] *)
let hist_quantile_ms rep name q =
  match T.hist rep name with
  | None -> 0.0
  | Some h when h.T.h_count = 0 -> 0.0
  | Some h ->
    let target = q *. float_of_int h.T.h_count in
    let rec go i acc =
      if i >= Array.length h.T.h_buckets then h.T.h_max
      else
        let acc = acc + h.T.h_buckets.(i) in
        if float_of_int acc >= target then
          if i < Array.length T.bucket_bounds then
            Float.min T.bucket_bounds.(i) h.T.h_max
          else h.T.h_max
        else go (i + 1) acc
    in
    1000.0 *. go 0 0

type layer_input = {
  layers : T.report;  (** the round the layer split is read from *)
  layers_wall : float;
  campaign : T.report;  (** the traced round of the real code path *)
  overhead : float;  (** traced wall over untraced wall *)
  fresh : E.outcome list;
  healing : C.heal_totals option;
  generate_ms : float;
}

(* Self time of each layer, as profile classes. The probe's spans name the
   layers the program does not span itself. *)
let layer_times =
  [ ("prepare.inline_ms", [ "prepare/prepare.inline" ]);
    ("prepare.prune_ms", [ "prepare/prepare.prune" ]);
    ("prepare.monitor_ms", [ "prepare/prepare.monitor" ]);
    ("prepare.elaborate_ms", [ "prepare/prepare.elaborate" ]);
    ("prepare.coi_ms", [ "prepare/prepare.coi" ]);
    (* work enumeration, prepare_module's own glue, obligation packaging *)
    ("prepare.other_ms",
     [ "probe/probe.work_items"; "probe/probe.prepare";
       "probe/probe.of_prepared" ]);
    ("fingerprint_ms", [ "probe/probe.fingerprint" ]);
    ("cache.lookup_ms", [ "probe/probe.cache_find" ]);
    ("cache.add_ms", [ "probe/probe.cache_add" ]);
    ("journal.append_ms",
     [ "probe/probe.journal_append"; "probe/probe.journal_close" ]);
    ("journal.replay_ms",
     [ "probe/probe.journal_open"; "probe/probe.journal_replay" ]);
    ("engine.bdd_ms",
     [ "engine/bdd-forward"; "engine/bdd-backward"; "engine/bdd-combined" ]);
    ("engine.pobdd_ms", [ "engine/pobdd" ]);
    ("engine.bmc_ms", [ "engine/bmc" ]);
    ("engine.kind_ms", [ "engine/k-induction" ]);
    ("engine.ic3_ms", [ "engine/ic3" ]);
    (* Obligation.run outside the engine spans *)
    ("engine.other_ms", [ "probe/probe.run" ]);
    ("heal_ms", [ "heal" ]);
    ("qa.case_self_ms", [ "qa/qa.case" ]);
    ("qa.mutant_self_ms", [ "qa/qa.mutant" ]) ]

let per_layer li =
  let prof = P.of_report li.layers in
  let ctr name = float_of_int (T.counter li.layers name) in
  let hits = T.counter li.layers "cache.hit"
  and misses = T.counter li.layers "cache.miss" in
  let attempts =
    sum
      (fun (o : E.outcome) -> max 1 (List.length o.E.perf.E.attempts))
      li.fresh
  in
  let useful = List.length (List.filter decided li.fresh) in
  let times =
    List.map
      (fun (name, classes) -> (name, "ms", self_ms prof classes))
      layer_times
  in
  (* self time no layer above names: with the layers it sums to the time
     the round's spans cover on all lanes (its wall time, on one lane) *)
  let named = List.concat_map snd layer_times in
  let unattributed =
    List.fold_left
      (fun a (e : P.entry) ->
        if List.mem e.P.e_class named then a
        else a +. (e.P.e_self_us /. 1000.0))
      0.0 prof.P.p_entries
  in
  let covered = List.fold_left (fun a (_, _, v) -> a +. v) unattributed times in
  times
  @ [ ("unattributed_ms", "ms", unattributed);
      ("attributed_ratio", "ratio",
       if covered > 0.0 then 1.0 -. (unattributed /. covered) else 0.0);
      ("campaign.unattributed_ms", "ms",
       self_ms (P.of_report li.campaign) [ "obligation" ]);
      ("report_ms", "ms", self_ms (P.of_report li.campaign) [ "bench/report" ]);
      ("generate_ms", "ms", li.generate_ms);
      ("traced_wall_ms", "ms", 1000.0 *. li.layers_wall);
      ("trace_overhead", "ratio", li.overhead);
      ("prepare.calls", "count",
       float_of_int (spans prof "prepare/prepare.elaborate"));
      ("fingerprint.calls", "count",
       float_of_int (spans prof "probe/probe.fingerprint"));
      ("cache.hits", "count", float_of_int hits);
      ("cache.misses", "count", float_of_int misses);
      ("cache.hit_ratio", "ratio", ratio hits (hits + misses));
      ("journal.appends", "count", ctr "journal.appends");
      ("journal.replays", "count", ctr "journal.replays");
      ("bdd.nodes", "count", ctr "bdd.nodes");
      ("reach.iterations", "count", ctr "reach.iterations");
      ("sat.decisions", "count", ctr "sat.decisions");
      ("sat.conflicts", "count", ctr "sat.conflicts");
      ("sat.propagations", "count", ctr "sat.propagations");
      ("sat.incremental_reuse", "count", ctr "sat.incremental_reuse");
      ("engine.attempts", "count", ctr "engine.attempts");
      ("engine.useful_ratio", "ratio", ratio useful attempts);
      ("exec.busy_ms", "ms", ctr "exec.busy_us" /. 1000.0);
      ("exec.idle_ms", "ms", ctr "exec.idle_us" /. 1000.0);
      ("race.cancelled", "count", ctr "exec.race_cancelled");
      ("race.cancel_latency_p50_ms", "ms",
       hist_quantile_ms li.layers "exec.race_cancel_s" 0.5);
      ("race.cancel_latency_p99_ms", "ms",
       hist_quantile_ms li.layers "exec.race_cancel_s" 0.99);
      ("heal.pieces_solved", "count", ctr "heal.piece.solved");
      ("heal.pieces_cached", "count", ctr "heal.piece.cached");
      ("heal.spurious_cex", "count", ctr "heal.spurious_cex");
      ("heal.recovered_ratio", "ratio",
       match li.healing with
       | Some h -> ratio h.C.heal_recovered h.C.heal_attempted
       | None -> 0.0);
      ("qa.sim_sequences", "count", ctr "qa.sim_sequences");
      ("diag.replays", "count", ctr "diag.replays") ]

(* ---- driver ---- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "table2"; "bmc-deep"; "fuzz"; "pool" ]

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10
  and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run") ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    Arg.usage spec usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = float_of_int !seconds;
    trace = !trace <> 0 }

(* Set up at least five times and for at least a second (at most 50
   times); the median is reported and the last set-up's inputs are used. *)
let setup_min_reps = 5
let setup_min_s = 1.0
let setup_max_reps = 50

let setup a =
  let build () =
    match a.workload with
    | "fuzz" -> Cases (fuzz_cases ~seed:a.seed)
    | "table2" ->
      Chips
        { pre = Chip.Generator.generate ();
          post = Some (Chip.Generator.generate ~with_bugs:false ()) }
    | _ -> Chips { pre = Chip.Generator.generate (); post = None }
  in
  let t0 = now () in
  let rec go n acc =
    Gc.full_major ();
    let inputs, t = timed build in
    let acc = t.cpu :: acc in
    if
      n >= setup_max_reps
      || (n >= setup_min_reps && now () -. t0 >= setup_min_s)
    then (inputs, List.rev acc)
    else go (n + 1) acc
  in
  go 1 []

let round a answers ~capture inputs =
  match (a.workload, inputs) with
  | "table2", Chips { pre; post = Some post } ->
    table2_round ~answers ~capture pre post
  | "bmc-deep", Chips { pre; _ } -> bmc_round ~answers ~capture pre
  | "pool", Chips { pre; _ } -> pool_round ~answers pre
  | "fuzz", Cases cases -> fuzz_round cases
  | _ -> invalid_arg "round"

(* Repeat rounds until the next one would end after [seconds]. *)
let measure ~seconds f =
  let t0 = now () in
  let rec go acc =
    Gc.full_major ();
    let r = f () in
    let acc = r :: acc in
    if now () -. t0 +. r.total.wall > seconds then List.rev acc else go acc
  in
  go []

let traced f =
  Gc.full_major ();
  T.start ();
  let v, t =
    try timed f
    with e ->
      ignore (T.stop ());
      raise e
  in
  (v, t, T.stop ())

let phase_names r = List.map (fun p -> p.name) r.phases

(* Rounds of a one-domain workload must answer identically. *)
let unsteady_digests rounds =
  match rounds with
  | [] -> 0
  | r0 :: _ ->
    List.fold_left
      (fun n name ->
        let ds =
          List.sort_uniq compare
            (List.concat_map
               (fun r ->
                 List.filter_map
                   (fun p -> if p.name = name then Some p.digest else None)
                   r.phases)
               rounds)
        in
        if List.length ds > 1 then begin
          Printf.eprintf
            "perfbench: phase %s gave %d different verdict vectors\n%!" name
            (List.length ds);
          n + 1
        end
        else n)
      0 (phase_names r0)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* One line per phase: median wall and CPU time over the rounds, and what
   the phase answered. *)
let print_phase_table rounds =
  match rounds with
  | [] -> ()
  | r0 :: _ ->
    List.iter
      (fun name ->
        let ps =
          List.concat_map
            (fun r -> List.filter (fun p -> p.name = name) r.phases)
            rounds
        in
        let p = List.hd ps in
        Printf.printf
          "phase %-6s %s_s wall %.4f s cpu %.4f s (median of %d)  \
           obligations %d  wrong_verdicts %d  cache_hits %d  digest %s\n"
          name name
          (median (List.map (fun p -> p.t.wall) ps))
          (median (List.map (fun p -> p.t.cpu) ps))
          (List.length ps) p.obligations
          (sum (fun p -> p.wrong) ps)
          p.hits p.digest)
      (phase_names r0)

let result_line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics",
          J.Obj
            (List.map
               (fun (name, unit_, v) ->
                 ( name,
                   J.Obj [ ("value", J.Float v); ("unit", J.String unit_) ] ))
               metrics)) ])

let print_metrics =
  List.iter (fun (n, u, v) -> Printf.printf "%s %.6g %s\n" n v u)

let all_phases rounds = List.concat_map (fun r -> r.phases) rounds

let run_untraced a answers inputs setup_times =
  (* the heap peak of one round, before later rounds can add to it *)
  let peak = ref 0.0 in
  let rounds =
    measure ~seconds:a.seconds (fun () ->
        let r = round a answers ~capture:false inputs in
        if !peak = 0.0 then peak := peak_heap_mb ();
        r)
  in
  let phases = all_phases rounds in
  let unsteady = if a.workload = "pool" then 0 else unsteady_digests rounds in
  print_phase_table rounds;
  let failed = sum (fun p -> p.wrong) phases in
  let obligations r = sum (fun p -> p.obligations) r.phases in
  let metrics =
    [ ("setup_s", "s", median setup_times);
      ("cpu_s", "s", median (List.map (fun r -> r.total.cpu) rounds));
      ("obligations_per_cpu_s", "1/s",
       median
         (List.map
            (fun r -> float_of_int (obligations r) /. r.total.cpu)
            rounds));
      ("decided_ratio", "ratio",
       ratio (sum (fun p -> p.decided_n) phases)
         (sum (fun p -> p.verdicts) phases));
      ("peak_heap_mb", "MB", !peak) ]
  in
  Printf.printf
    "rounds %d  obligations %d  wrong_verdicts %d  wall_s %.4f  \
     obligations_per_s %.4g  report_s %.4f\n"
    (List.length rounds)
    (obligations (List.hd rounds))
    failed
    (median (List.map (fun r -> r.total.wall) rounds))
    (median
       (List.map
          (fun r -> float_of_int (obligations r) /. r.total.wall)
          rounds))
    (median (List.map (fun r -> r.report_t.wall) rounds));
  let each f =
    String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (f r)) rounds)
  in
  Printf.printf "round cpu_s: %s\nround wall_s: %s\n"
    (each (fun r -> r.total.cpu))
    (each (fun r -> r.total.wall));
  print_metrics metrics;
  (failed = 0 && unsteady = 0, sum (fun p -> p.attempted) phases, failed,
   metrics)

(* fingerprints of a campaign phase, in row order, from its journal *)
let journal_fps path = List.map fst (Core.Journal.load path)

let run_traced a answers inputs setup_times =
  let capture = true in
  let untraced = round a answers ~capture inputs in
  let camp, _, camp_rep = traced (fun () -> round a answers ~capture inputs) in
  let probe =
    match (a.workload, inputs) with
    | "table2", Chips { pre; post = Some post } ->
      Some (traced (fun () -> Probe.table2 ~answers pre post))
    | "bmc-deep", Chips { pre; _ } ->
      Some (traced (fun () -> Probe.bmc ~answers pre))
    | _ -> None
  in
  (* the probe's rows against the traced campaign round just before it *)
  let mismatches =
    match probe with
    | None -> 0
    | Some (phases, _, _) ->
      List.fold_left
        (fun n (name, _, prows, _) ->
          let fps =
            journal_fps
              (work_file
                 (match name with
                 | "cold" | "resume" -> "table2.journal"
                 | "warm" -> "warm.journal"
                 | _ -> "bmc.journal"))
          in
          n
          + Probe.check_rows ~name (List.assoc name camp.campaigns)
              ~fingerprints:fps prows)
        0 phases
  in
  let probe_round =
    Option.map
      (fun (phases, wall, _) ->
        { phases = List.map (fun (_, p, _, _) -> p) phases; report_t = zero;
          total = wall; campaigns = [];
          fresh = List.concat_map (fun (_, _, _, f) -> f) phases })
      probe
  in
  let rounds = [ untraced; camp ] @ Option.to_list probe_round in
  let unsteady = if a.workload = "pool" then 0 else unsteady_digests rounds in
  print_phase_table rounds;
  let layers, layers_wall, fresh =
    match (probe, probe_round) with
    | Some (_, t, rep), Some pr -> (rep, t.wall, pr.fresh)
    | _ -> (camp_rep, camp.total.wall, camp.fresh)
  in
  let healing =
    List.find_map (fun (_, (c : C.t)) -> c.C.healing) camp.campaigns
  in
  let metrics =
    per_layer
      { layers; layers_wall; campaign = camp_rep;
        overhead = camp.total.wall /. untraced.total.wall; fresh; healing;
        generate_ms = 1000.0 *. median setup_times }
  in
  let phases = all_phases rounds in
  let failed = sum (fun p -> p.wrong) phases + mismatches in
  Printf.printf
    "traced: untraced %.4f s, traced %.4f s, layer round %.4f s, probe \
     mismatches %d\n"
    untraced.total.wall camp.total.wall layers_wall mismatches;
  Format.printf "%a@." (P.pp ~k:40) (P.of_report layers);
  print_metrics metrics;
  ( failed = 0 && unsteady = 0,
    sum (fun p -> p.attempted) phases,
    failed,
    metrics )

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  let a = parse_args () in
  let answers = load_answers answers_file in
  rm_rf work_dir;
  Sys.mkdir work_dir 0o755;
  let inputs, setup_times = setup a in
  Printf.printf "workload %s  seed %d  seconds %.0f  trace %b\n" a.workload
    a.seed a.seconds a.trace;
  Printf.printf "setup: %d runs, cpu_s min %.4f median %.4f max %.4f\n"
    (List.length setup_times)
    (List.fold_left Float.min Float.infinity setup_times)
    (median setup_times)
    (List.fold_left Float.max 0.0 setup_times);
  let correct, attempted, failed, metrics =
    Fun.protect ~finally:(fun () -> rm_rf work_dir) (fun () ->
        if a.trace then run_traced a answers inputs setup_times
        else run_untraced a answers inputs setup_times)
  in
  print_endline (result_line ~correct ~attempted ~failed metrics)
