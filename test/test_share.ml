(* Structure-keyed shared preparation: modules with one structure are
   prepared and fingerprinted once, the cache's first level skips
   preparation across campaigns, and two-domain campaigns give the
   sequential verdicts. *)

module G = Chip.Generator
module C = Core.Campaign
module T = Obs.Telemetry

let pre = lazy (G.generate ())
let post = lazy (G.generate ~with_bugs:false ())

let verdict_key (r : C.prop_result) =
  let verdict =
    match r.C.outcome.Mc.Engine.verdict with
    | Mc.Engine.Proved -> "proved"
    | Mc.Engine.Proved_bounded d -> Printf.sprintf "bounded:%d" d
    | Mc.Engine.Failed _ -> "failed"
    | Mc.Engine.Resource_out m -> "resource:" ^ m
    | Mc.Engine.Error m -> "error:" ^ m
  in
  Printf.sprintf "%s/%s/%s/%s" r.C.module_name r.C.vunit_name r.C.prop_name
    verdict

let verdicts (t : C.t) = List.map verdict_key t.C.results

(* the module structures of a chip, computed independently of the
   campaign: the body with its name cleared, and the ordered properties *)
let structures chip =
  let props = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (w : C.work) ->
      let m = w.C.w_mdl in
      if not (Hashtbl.mem props m.Rtl.Mdl.name) then
        order := m :: !order;
      Hashtbl.replace props m.Rtl.Mdl.name
        ((w.C.w_prop_name, w.C.w_assert, w.C.w_assumes)
        :: Option.value ~default:[] (Hashtbl.find_opt props m.Rtl.Mdl.name)))
    (C.work_items chip);
  List.sort_uniq compare
    (List.map
       (fun (m : Rtl.Mdl.t) ->
         ( { m with Rtl.Mdl.name = "" },
           List.rev (Hashtbl.find props m.Rtl.Mdl.name) ))
       !order)

(* [f]'s campaign, and the number of module preparations it ran *)
let prepares f =
  T.start ();
  let t =
    match f () with
    | t -> t
    | exception e ->
      ignore (T.stop ());
      raise e
  in
  let r = T.stop () in
  let n =
    List.length
      (List.filter
         (fun (s : T.span) ->
           s.T.cat = "obligation" && String.ends_with ~suffix:".prepare" s.T.name)
         r.T.spans)
  in
  (t, n)

(* a fresh sequential campaign with a journal; the journal holds every
   obligation's fingerprint in row order *)
let journaled ?cache chip =
  let path = Filename.temp_file "dicheck_share" ".journal" in
  let j = Core.Journal.create ~fsync:false path in
  let t, n =
    Fun.protect
      ~finally:(fun () -> Core.Journal.close j)
      (fun () -> prepares (fun () -> C.run ?cache ~journal:j chip))
  in
  let fps = List.map fst (Core.Journal.load path) in
  Sys.remove path;
  (t, n, fps)

let check_fingerprints name chip fps =
  let items = C.work_items chip in
  Alcotest.(check int)
    (name ^ ": one fingerprint per obligation")
    (List.length items) (List.length fps);
  List.iter2
    (fun (w : C.work) fp ->
      let alone =
        Mc.Obligation.fingerprint
          (Mc.Obligation.prepare w.C.w_mdl ~assert_:w.C.w_assert
             ~assumes:w.C.w_assumes ~meta:())
      in
      if fp <> alone then
        Alcotest.failf "%s: %s.%s has shared fingerprint %s, alone %s" name
          w.C.w_mdl.Rtl.Mdl.name w.C.w_prop_name fp alone)
    items fps

let test_shared_fingerprints () =
  List.iter
    (fun (name, chip, distinct) ->
      let chip = Lazy.force chip in
      Alcotest.(check int)
        (name ^ ": distinct structures")
        distinct
        (List.length (structures chip));
      let _, n, fps = journaled chip in
      Alcotest.(check int) (name ^ ": one preparation per structure") distinct n;
      check_fingerprints name chip fps)
    [ ("pre-fix", pre, 22); ("post-fix", post, 21) ]

let test_cache_first_level () =
  let pre = Lazy.force pre and post = Lazy.force post in
  let cache = Mc.Cache.create () in
  let cold, n_cold, _ = journaled ~cache pre in
  Alcotest.(check int) "cold run prepares each structure" 22 n_cold;
  let hits = Mc.Cache.hits cache and misses = Mc.Cache.misses cache in
  let warm, n_warm = prepares (fun () -> C.run ~cache pre) in
  Alcotest.(check int) "second campaign prepares nothing" 0 n_warm;
  Alcotest.(check (list string)) "second campaign's rows identical"
    (verdicts cold) (verdicts warm);
  Alcotest.(check int) "every second-campaign verdict is a hit"
    (List.length warm.C.results) warm.C.cache_hits;
  Alcotest.(check int) "first-level lookups are not counted as misses"
    misses (Mc.Cache.misses cache);
  Alcotest.(check int) "hits count verdicts only"
    (hits + List.length warm.C.results)
    (Mc.Cache.hits cache);
  (* the first level is salted like the fingerprint: another strategy on
     the same cache must not reuse the default strategy's verdicts *)
  let other = C.run ~cache ~strategy:Mc.Engine.Bdd_forward pre in
  Alcotest.(check bool) "another strategy gets its own fingerprints" true
    (List.for_all
       (fun (r : C.prop_result) ->
         r.C.outcome.Mc.Engine.engine_used = "bdd-forward")
       other.C.results);
  let fixed, n_fixed = prepares (fun () -> C.run ~cache post) in
  let changed =
    let before = structures pre in
    List.length
      (List.filter (fun s -> not (List.mem s before)) (structures post))
  in
  Alcotest.(check bool) "the fix changed some structures" true
    (changed > 0 && changed < 21);
  Alcotest.(check int) "post-fix campaign prepares only changed structures"
    changed n_fixed;
  let fresh = C.run post in
  Alcotest.(check (list string)) "post-fix rows as from a fresh cache"
    (verdicts fresh) (verdicts fixed)

let test_seq_pool_sharing () =
  let pre = Lazy.force pre in
  let seq = C.run pre in
  let pool, n = prepares (fun () -> C.run ~jobs:2 pre) in
  Alcotest.(check int) "pool prepares each structure once" 22 n;
  Alcotest.(check (list string)) "pool verdicts = sequential" (verdicts seq)
    (verdicts pool)

(* ---- the persisted first level ---- *)

let outcome verdict =
  { Mc.Engine.verdict; engine_used = "test"; time_s = 0.0; iterations = 0;
    work_nodes = 0; perf = Mc.Engine.empty_perf }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* run [f] with stderr captured; returns what it wrote *)
let capture_stderr f =
  let path = Filename.temp_file "dicheck_stderr" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved;
        Unix.close fd)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, text)

let test_index_round_trip () =
  let path = Filename.temp_file "dicheck_cache" ".bin" in
  let c = Mc.Cache.create () in
  Mc.Cache.add c ~key:"fp0" (outcome Mc.Engine.Proved);
  Mc.Cache.add_fingerprint c ~module_key:"m" ~pos:0 ~salt:"s" "fp0";
  Mc.Cache.add_fingerprint c ~module_key:"m" ~pos:1 ~salt:"s" "fp1";
  Mc.Cache.save c path;
  (match Mc.Cache.load path with
   | None -> Alcotest.fail "saved cache did not load"
   | Some c2 ->
     let find pos salt =
       Mc.Cache.find_fingerprint c2 ~module_key:"m" ~pos ~salt
     in
     Alcotest.(check (option string)) "position 0" (Some "fp0") (find 0 "s");
     Alcotest.(check (option string)) "position 1" (Some "fp1") (find 1 "s");
     Alcotest.(check (option string)) "another salt" None (find 0 "t");
     Alcotest.(check int) "entries round-trip" 1 (Mc.Cache.length c2);
     Alcotest.(check (pair int int)) "index lookups leave the counters"
       (0, 0)
       (Mc.Cache.hits c2, Mc.Cache.misses c2));
  (* a file of the previous format: entries only, behind the v3 tag *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "dicheck-cache-v3\n";
      Marshal.to_channel oc [ ("fp0", outcome Mc.Engine.Proved) ] []);
  let loaded, err = capture_stderr (fun () -> Mc.Cache.load path) in
  Alcotest.(check bool) "v3 file rejected" true (loaded = None);
  Alcotest.(check bool) "with the format-version warning" true
    (contains err "from another format version");
  Sys.remove path

(* ---- two domains, sequential verdicts ---- *)

(* the BMC portfolio raced on two domains: both domains build bit-level
   expressions at once, which once let two nodes share an id *)
let test_two_domain_bmc () =
  let pre = Lazy.force pre in
  let bmc =
    Mc.Engine.portfolio ~name:"bmc"
      [ { Mc.Engine.m_strategy = Mc.Engine.Bmc;
          m_budget = Mc.Engine.default_budget } ]
  in
  let seq = verdicts (C.run ~portfolio:bmc pre) in
  for run = 1 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "run %d: two-domain verdicts = sequential" run)
      seq
      (verdicts (C.run ~jobs:2 ~portfolio:bmc pre))
  done

let () =
  Alcotest.run "share"
    [ ("share",
       [ Alcotest.test_case "shared fingerprints match per-module preparation"
           `Slow test_shared_fingerprints;
         Alcotest.test_case "cache first level skips preparation" `Slow
           test_cache_first_level;
         Alcotest.test_case "sequential matches pool with sharing" `Slow
           test_seq_pool_sharing;
         Alcotest.test_case "index round-trips and v3 is rejected" `Quick
           test_index_round_trip ]);
      ("race",
       [ Alcotest.test_case "two-domain BMC portfolio matches sequential"
           `Slow test_two_domain_bmc ]) ]
