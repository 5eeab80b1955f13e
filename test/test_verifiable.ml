(* The methodology core: integrity entities, the Verifiable-RTL transform,
   stereotype property generation, and Figure 7 partitioning soundness. *)

module E = Rtl.Expr
module M = Rtl.Mdl
module T = Verifiable.Transform
module PG = Verifiable.Propgen

let bv = Bitvec.of_string

(* two-entity leaf: parity-protected FSM and counter plus one plain reg *)
let sample_module () =
  let m = M.create "samp" in
  let m = M.add_input m "EN" 1 in
  let m = M.add_input m "DATA" 5 in
  let m = M.add_output m "HE" 2 in
  let m = M.add_output m "OUT" 5 in
  let payload w e = E.slice e ~hi:(w - 2) ~lo:0 in
  let fsm_next =
    Verifiable.Parity.encode
      E.(mux (var "EN")
           (payload 4 (var "fsm_q") +: of_int ~width:3 1)
           (payload 4 (var "fsm_q")))
  in
  let m =
    M.add_reg ~cls:M.Fsm ~parity_protected:true ~reset:(bv "1000") m "fsm_q" 4
      fsm_next
  in
  let m =
    M.add_reg ~cls:M.Counter ~parity_protected:true ~reset:(bv "10000") m
      "cnt_q" 5 (E.var "DATA")
  in
  let m = M.add_reg m "plain_q" 1 (E.var "EN") in
  (* the input checker is latched independently of the (injectable) capture
     register, as in the chip archetypes *)
  let m = M.add_reg m "chk_in_q" 1 (Verifiable.Parity.violated (E.var "DATA")) in
  let m =
    M.add_assign m "HE"
      (E.concat
         E.(Verifiable.Parity.violated (var "cnt_q") |: var "chk_in_q")
         (Verifiable.Parity.violated (E.var "fsm_q")))
  in
  M.add_assign m "OUT" (E.var "cnt_q")

let spec =
  { PG.he = "HE"; he_map = [ ("fsm_q", 0); ("cnt_q", 1); ("DATA", 1) ];
    parity_inputs = [ "DATA" ]; parity_outputs = [ "OUT" ];
    extra = [ ("pTrue", Psl.Ast.Always (Psl.Ast.Bool E.tru)) ] }

let test_entity_discovery () =
  let entities = Verifiable.Entity.discover (sample_module ()) in
  Alcotest.(check int) "two entities" 2 (List.length entities);
  Alcotest.(check (list string)) "names and order" [ "fsm_q"; "cnt_q" ]
    (List.map (fun (e : Verifiable.Entity.t) -> e.Verifiable.Entity.reg_name)
       entities);
  Alcotest.(check bool) "plain reg excluded" true
    (not
       (List.exists
          (fun (e : Verifiable.Entity.t) ->
            e.Verifiable.Entity.reg_name = "plain_q")
          entities))

let test_parity_builders () =
  let env name = if name = "x" then bv "0110" else Alcotest.fail "unbound" in
  let encoded = E.eval ~env (Verifiable.Parity.encode (E.var "x")) in
  Alcotest.(check bool) "encode yields odd parity" true
    (Bitvec.has_odd_parity encoded);
  Alcotest.(check int) "encode widens" 5 (Bitvec.width encoded);
  let ok = E.eval ~env (Verifiable.Parity.ok (Verifiable.Parity.encode (E.var "x"))) in
  Alcotest.(check bool) "ok accepts" true (Bitvec.get ok 0)

let test_transform () =
  let info = T.apply (sample_module ()) in
  Alcotest.(check int) "EC width = entity count" 2
    (M.signal_width info.T.mdl info.T.ec_port);
  Alcotest.(check int) "ED width = widest entity" 5
    (M.signal_width info.T.mdl info.T.ed_port);
  (* injection muxes present on entity regs, absent on plain regs *)
  let next_of name =
    match M.find_reg info.T.mdl name with
    | Some r -> r.M.next
    | None -> Alcotest.failf "no reg %s" name
  in
  (match next_of "fsm_q" with
   | E.Mux (_, _, _) -> ()
   | _ -> Alcotest.fail "fsm_q has no selector");
  (match next_of "plain_q" with
   | E.Mux (_, _, _) -> Alcotest.fail "plain_q must not get a selector"
   | _ -> ());
  (* tie-offs are zero constants of the right widths *)
  (match T.tie_offs info with
   | [ (ec, M.Expr (E.Const c)); (ed, M.Expr (E.Const d)) ] ->
     Alcotest.(check string) "ec port" info.T.ec_port ec;
     Alcotest.(check string) "ed port" info.T.ed_port ed;
     Alcotest.(check bool) "zeros" true (Bitvec.is_zero c && Bitvec.is_zero d)
   | _ -> Alcotest.fail "unexpected tie-off shape");
  Alcotest.(check bool) "idempotence rejected" true
    (match T.apply info.T.mdl with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "no entities rejected" true
    (match T.apply (M.add_reg (M.create "e") "r" 1 E.tru) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_transform_preserves_behavior () =
  (* with the injection ports tied to zero the transformed module behaves
     exactly like the original over random runs *)
  let original = sample_module () in
  let info = T.apply original in
  let nl0 =
    Rtl.Elaborate.run (Rtl.Design.of_modules [ original ]) ~top:"samp"
  in
  let nl1 =
    Rtl.Elaborate.run (Rtl.Design.of_modules [ info.T.mdl ]) ~top:"samp"
  in
  let sim0 = Sim.Simulator.create nl0 and sim1 = Sim.Simulator.create nl1 in
  Sim.Simulator.reset sim0;
  Sim.Simulator.reset sim1;
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    let en = Bitvec.of_bool (Random.State.bool st) in
    let data = Sim.Stimulus.odd_parity 5 st in
    Sim.Simulator.cycle sim0 [ ("EN", en); ("DATA", data) ];
    Sim.Simulator.cycle sim1
      [ ("EN", en); ("DATA", data);
        (info.T.ec_port, Bitvec.zero 2); (info.T.ed_port, Bitvec.zero 5) ];
    Alcotest.(check bool) "OUT agrees" true
      (Bitvec.equal (Sim.Simulator.peek sim0 "OUT") (Sim.Simulator.peek sim1 "OUT"));
    Alcotest.(check bool) "HE agrees" true
      (Bitvec.equal (Sim.Simulator.peek sim0 "HE") (Sim.Simulator.peek sim1 "HE"))
  done

let test_propgen_counts () =
  let info = T.apply (sample_module ()) in
  let p0, p1, p2, p3 = PG.counts info spec in
  Alcotest.(check int) "P0 = entities + parity inputs" 3 p0;
  Alcotest.(check int) "P1 = HE bits" 2 p1;
  Alcotest.(check int) "P2 = parity outputs" 1 p2;
  Alcotest.(check int) "P3 = extras" 1 p3;
  Alcotest.(check int) "class names distinct" 4
    (List.length
       (List.sort_uniq compare
          (List.map PG.class_name [ PG.P0; PG.P1; PG.P2; PG.P3 ])))

let test_propgen_shapes () =
  let info = T.apply (sample_module ()) in
  let ed = PG.edetect_vunit info spec in
  Alcotest.(check int) "edetect asserts" 3 (PG.assert_count ed);
  Alcotest.(check (list string)) "edetect names"
    [ "pCheck_fsm_q"; "pCheck_cnt_q"; "pCheckIn_DATA" ]
    (List.map fst (Psl.Ast.asserts ed));
  let sound = PG.soundness_vunit info spec in
  Alcotest.(check int) "soundness assumes" 2
    (List.length (Psl.Ast.assumes sound));
  Alcotest.(check int) "soundness asserts one per HE bit" 2
    (PG.assert_count sound);
  let integ = PG.integrity_vunit info spec in
  Alcotest.(check (list string)) "integrity asserts" [ "pIntegrityO_OUT" ]
    (List.map fst (Psl.Ast.asserts integ));
  (* generated vunits print as parseable PSL *)
  List.iter
    (fun (_, v) ->
      let printed = Psl.Print.vunit_to_string v in
      match Psl.Parser.vunits_of_string printed with
      | [ v' ] ->
        Alcotest.(check int)
          ("roundtrip asserts " ^ v.Psl.Ast.vunit_name)
          (PG.assert_count v) (PG.assert_count v')
      | _ -> Alcotest.fail "reprint did not parse")
    (PG.all info spec)

let test_generated_properties_verify () =
  (* the bug-free sample module passes its entire stereotype set *)
  let info = T.apply (sample_module ()) in
  List.iter
    (fun (_, vunit) ->
      List.iter
        (fun (name, (o : Mc.Engine.outcome)) ->
          match o.Mc.Engine.verdict with
          | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ -> ()
          | Mc.Engine.Failed _ -> Alcotest.failf "%s failed" name
          | Mc.Engine.Resource_out msg ->
            Alcotest.failf "%s resource out: %s" name msg
          | Mc.Engine.Error msg -> Alcotest.failf "%s error: %s" name msg)
        (Mc.Engine.check_vunit info.T.mdl vunit))
    (PG.all info spec)

let test_partition_soundness () =
  (* Figure 7 on the merge archetype: the sub-properties and the final
     property all hold, and so does the original (on a small instance) *)
  let leaf = Chip.Archetype.merge ~name:"pmerge" ~payload_width:4 () in
  let info = T.apply leaf.Chip.Archetype.mdl in
  let pspec =
    { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
      parity_inputs = leaf.Chip.Archetype.parity_inputs;
      parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
  in
  let plan =
    Verifiable.Partition.partition info pspec ~output:"OUT"
      ~cuts:[ "chk0"; "chk1"; "chk2" ]
  in
  let check_one mdl vunit =
    List.iter
      (fun (name, (o : Mc.Engine.outcome)) ->
        match o.Mc.Engine.verdict with
        | Mc.Engine.Proved -> ()
        | Mc.Engine.Proved_bounded _ | Mc.Engine.Failed _
        | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
          Alcotest.failf "%s not proved" name)
      (Mc.Engine.check_vunit ~strategy:Mc.Engine.Bdd_forward mdl vunit)
  in
  check_one info.T.mdl plan.Verifiable.Partition.original;
  List.iter (fun (_, v) -> check_one info.T.mdl v)
    plan.Verifiable.Partition.sub_vunits;
  check_one plan.Verifiable.Partition.cut_mdl
    plan.Verifiable.Partition.final_vunit;
  (* the cut module frees the checkpoints into inputs *)
  Alcotest.(check bool) "chk0 became input" true
    (match M.find_port plan.Verifiable.Partition.cut_mdl "chk0" with
     | Some p -> p.M.dir = M.Input
     | None -> false)

let test_partition_agreement_across_engines () =
  (* the partition-soundness property, quantified over engines and instance
     sizes: every sub-property and the freed-cut final check must agree
     with the monolithic verdict (all proved on the clean merge archetype)
     whichever complete engine decides them *)
  List.iter
    (fun payload_width ->
      let leaf =
        Chip.Archetype.merge
          ~name:(Printf.sprintf "pagree%d" payload_width)
          ~payload_width ()
      in
      let info = T.apply leaf.Chip.Archetype.mdl in
      let pspec =
        { PG.he = leaf.Chip.Archetype.he; he_map = leaf.Chip.Archetype.he_map;
          parity_inputs = leaf.Chip.Archetype.parity_inputs;
          parity_outputs = leaf.Chip.Archetype.parity_outputs; extra = [] }
      in
      let plan =
        Verifiable.Partition.partition info pspec ~output:"OUT"
          ~cuts:[ "chk0"; "chk1"; "chk2" ]
      in
      List.iter
        (fun (label, strategy) ->
          let check_one mdl vunit =
            List.iter
              (fun (name, (o : Mc.Engine.outcome)) ->
                match o.Mc.Engine.verdict with
                | Mc.Engine.Proved -> ()
                | Mc.Engine.Proved_bounded _ | Mc.Engine.Failed _
                | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
                  Alcotest.failf "w=%d %s: %s not proved" payload_width label
                    name)
              (Mc.Engine.check_vunit ~strategy mdl vunit)
          in
          check_one info.T.mdl plan.Verifiable.Partition.original;
          List.iter (fun (_, v) -> check_one info.T.mdl v)
            plan.Verifiable.Partition.sub_vunits;
          check_one plan.Verifiable.Partition.cut_mdl
            plan.Verifiable.Partition.final_vunit)
        [ ("bdd-forward", Mc.Engine.Bdd_forward);
          ("bdd-backward", Mc.Engine.Bdd_backward);
          ("bdd-combined", Mc.Engine.Bdd_combined);
          ("pobdd", Mc.Engine.Pobdd); ("ic3", Mc.Engine.Ic3);
          ("auto", Mc.Engine.auto Mc.Engine.default_budget) ])
    [ 3; 4 ]

let test_mine_cuts () =
  (* automatic checkpoint discovery recovers the hand-picked Figure 7 cuts *)
  let leaf = Chip.Archetype.merge ~name:"pmine" ~payload_width:4 () in
  let info = T.apply leaf.Chip.Archetype.mdl in
  let mined = Verifiable.Partition.mine_cuts info.T.mdl ~roots:[ "OUT" ] in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " mined") true (List.mem c mined))
    [ "chk0"; "chk1"; "chk2" ];
  (* every mined candidate honours the free_cuts contract *)
  List.iter
    (fun c -> ignore (Verifiable.Partition.free_cuts info.T.mdl [ c ]))
    mined;
  Alcotest.(check int) "max_cuts caps the yield" 2
    (List.length
       (Verifiable.Partition.mine_cuts ~max_cuts:2 info.T.mdl
          ~roots:[ "OUT" ]));
  Alcotest.(check (list string)) "an empty cone mines nothing" []
    (Verifiable.Partition.mine_cuts info.T.mdl ~roots:[])

let test_free_cuts_contract () =
  (* a protected register frees into a primary input of the same width;
     ports and unknown names are rejected with Invalid_argument *)
  let m = sample_module () in
  let freed = Verifiable.Partition.free_cuts m [ "cnt_q" ] in
  (match M.find_port freed "cnt_q" with
   | Some p ->
     Alcotest.(check bool) "reg became an input" true (p.M.dir = M.Input);
     Alcotest.(check int) "width preserved" 5 (M.signal_width freed "cnt_q")
   | None -> Alcotest.fail "cnt_q is not a port of the freed module");
  Alcotest.(check bool) "reg dropped" true (M.find_reg freed "cnt_q" = None);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (match Verifiable.Partition.free_cuts m [ bad ] with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ "DATA" (* already an input *); "HE" (* an output *); "missing" ]

let test_partition_cut_validation () =
  let leaf = Chip.Archetype.merge ~name:"pmerge2" ~payload_width:4 () in
  let info = T.apply leaf.Chip.Archetype.mdl in
  let pspec =
    { PG.he = "HE"; he_map = []; parity_inputs = [ "S0"; "S1"; "S2" ];
      parity_outputs = [ "OUT" ]; extra = [] }
  in
  Alcotest.(check bool) "bad cut rejected" true
    (match
       Verifiable.Partition.partition info pspec ~output:"OUT"
         ~cuts:[ "not_a_wire" ]
     with
     | _ -> false
     | exception Invalid_argument _ -> true)


(* ---- automatic specification extraction ---- *)

let test_spec_infer_matches_archetypes () =
  (* inference must recover the hand-written integrity interface *)
  List.iter
    (fun (leaf : Chip.Archetype.leaf) ->
      match Verifiable.Spec_infer.infer leaf.Chip.Archetype.mdl with
      | Error msg ->
        Alcotest.failf "%s: inference failed: %s" leaf.Chip.Archetype.mdl.M.name
          msg
      | Ok inferred ->
        let name = leaf.Chip.Archetype.mdl.M.name in
        Alcotest.(check string) (name ^ " he") leaf.Chip.Archetype.he
          inferred.PG.he;
        Alcotest.(check (slist string compare))
          (name ^ " parity inputs")
          leaf.Chip.Archetype.parity_inputs inferred.PG.parity_inputs;
        Alcotest.(check (slist string compare))
          (name ^ " parity outputs")
          leaf.Chip.Archetype.parity_outputs inferred.PG.parity_outputs;
        (* every hand-written HE mapping must be recovered *)
        List.iter
          (fun (src, bit) ->
            Alcotest.(check (option int))
              (Printf.sprintf "%s he_map %s" name src)
              (Some bit)
              (List.assoc_opt src inferred.PG.he_map))
          leaf.Chip.Archetype.he_map)
    [ Chip.Archetype.fsm_ctrl ~name:"si_fsm" ();
      Chip.Archetype.counter ~name:"si_cnt" ();
      Chip.Archetype.csr ~name:"si_csr" ();
      Chip.Archetype.datapath ~name:"si_alu" ();
      Chip.Archetype.decoder ~name:"si_dec" ();
      Chip.Archetype.filler ~name:"si_fil" ~n_fsm:1 ~n_cnt:1 ~n_dp:1
        ~n_parity_in:2 ~n_parity_out:3 ~he_bits:2 ~n_extra:0 ]

let test_spec_infer_errors () =
  let no_he = M.add_reg ~cls:M.Counter ~parity_protected:true
      (M.create "nohe") "c" 2 (E.var "c") in
  Alcotest.(check bool) "missing HE rejected" true
    (Result.is_error (Verifiable.Spec_infer.infer no_he));
  let no_ent = M.add_output (M.create "noent") "HE" 1 in
  Alcotest.(check bool) "no entities rejected" true
    (Result.is_error (Verifiable.Spec_infer.infer no_ent))

let test_spec_infer_properties_verify () =
  (* the inferred spec's generated properties hold on a clean archetype *)
  let leaf = Chip.Archetype.counter ~name:"si_cnt2" () in
  match Verifiable.Spec_infer.infer leaf.Chip.Archetype.mdl with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    let info = T.apply leaf.Chip.Archetype.mdl in
    List.iter
      (fun (_, vunit) ->
        List.iter
          (fun (name, (o : Mc.Engine.outcome)) ->
            match o.Mc.Engine.verdict with
            | Mc.Engine.Proved | Mc.Engine.Proved_bounded _ -> ()
            | Mc.Engine.Failed _ | Mc.Engine.Resource_out _
            | Mc.Engine.Error _ ->
              Alcotest.failf "%s did not prove" name)
          (Mc.Engine.check_vunit info.T.mdl vunit))
      (PG.all info spec)


(* ---- SECDED ECC ---- *)

let test_ecc_scheme () =
  let s4 = Verifiable.Ecc.scheme ~data_width:4 in
  Alcotest.(check int) "4-bit payload needs 3 check bits" 3
    s4.Verifiable.Ecc.check_bits;
  Alcotest.(check int) "code width" 8 s4.Verifiable.Ecc.code_width;
  let s8 = Verifiable.Ecc.scheme ~data_width:8 in
  Alcotest.(check int) "8-bit payload needs 4 check bits" 4
    s8.Verifiable.Ecc.check_bits;
  Alcotest.(check int) "code width 13" 13 s8.Verifiable.Ecc.code_width

let prop_ecc_roundtrip =
  QCheck.Test.make ~name:"ECC encode/decode roundtrip" ~count:200
    (QCheck.int_bound 255) (fun n ->
      let s = Verifiable.Ecc.scheme ~data_width:8 in
      let payload = Bitvec.of_int ~width:8 n in
      let d = Verifiable.Ecc.decode_bv s (Verifiable.Ecc.encode_bv s payload) in
      Bitvec.equal d.Verifiable.Ecc.payload payload
      && (not d.Verifiable.Ecc.corrected)
      && not d.Verifiable.Ecc.uncorrectable)

let prop_ecc_corrects_single =
  QCheck.Test.make ~name:"ECC corrects every single-bit error" ~count:300
    (QCheck.pair (QCheck.int_bound 255) (QCheck.int_bound 12))
    (fun (n, bit) ->
      let s = Verifiable.Ecc.scheme ~data_width:8 in
      let payload = Bitvec.of_int ~width:8 n in
      let code = Verifiable.Ecc.encode_bv s payload in
      let d = Verifiable.Ecc.decode_bv s (Bitvec.corrupt_bit code bit) in
      Bitvec.equal d.Verifiable.Ecc.payload payload
      && d.Verifiable.Ecc.corrected
      && not d.Verifiable.Ecc.uncorrectable)

let prop_ecc_detects_double =
  QCheck.Test.make ~name:"ECC detects every double-bit error" ~count:300
    (QCheck.triple (QCheck.int_bound 255) (QCheck.int_bound 12)
       (QCheck.int_bound 12))
    (fun (n, b1, b2) ->
      QCheck.assume (b1 <> b2);
      let s = Verifiable.Ecc.scheme ~data_width:8 in
      let payload = Bitvec.of_int ~width:8 n in
      let code = Verifiable.Ecc.encode_bv s payload in
      let d =
        Verifiable.Ecc.decode_bv s
          (Bitvec.corrupt_bit (Bitvec.corrupt_bit code b1) b2)
      in
      d.Verifiable.Ecc.uncorrectable && not d.Verifiable.Ecc.corrected)

let prop_ecc_circuit_matches_reference =
  QCheck.Test.make ~name:"ECC circuit matches reference" ~count:200
    (QCheck.pair (QCheck.int_bound 15) (QCheck.int_bound 255))
    (fun (n, corrupt) ->
      let s = Verifiable.Ecc.scheme ~data_width:4 in
      let payload = Bitvec.of_int ~width:4 n in
      let word =
        Bitvec.logxor
          (Verifiable.Ecc.encode_bv s payload)
          (Bitvec.of_int ~width:8 corrupt)
      in
      let env name =
        match name with
        | "w" -> word
        | "p" -> payload
        | _ -> Alcotest.failf "unbound %s" name
      in
      (* encoder circuit agrees with encode_bv *)
      let enc = E.eval ~env (Verifiable.Ecc.encode s (E.var "p")) in
      let circuit_matches_encoder =
        Bitvec.equal enc (Verifiable.Ecc.encode_bv s payload)
      in
      (* decoder circuit agrees with decode_bv on arbitrary words *)
      let dpay, dce, due = Verifiable.Ecc.decode s (E.var "w") in
      let d = Verifiable.Ecc.decode_bv s word in
      circuit_matches_encoder
      && Bitvec.equal (E.eval ~env dpay) d.Verifiable.Ecc.payload
      && Bitvec.get (E.eval ~env dce) 0 = d.Verifiable.Ecc.corrected
      && Bitvec.get (E.eval ~env due) 0 = d.Verifiable.Ecc.uncorrectable)

let test_ecc_reg_properties_prove () =
  let mdl, props = Chip.Archetype.ecc_reg ~name:"eccr" () in
  List.iter
    (fun (name, assert_) ->
      match
        (Mc.Engine.check_property mdl ~assert_ ~assumes:[]).Mc.Engine.verdict
      with
      | Mc.Engine.Proved -> ()
      | Mc.Engine.Proved_bounded _ | Mc.Engine.Failed _
      | Mc.Engine.Resource_out _ | Mc.Engine.Error _ ->
        Alcotest.failf "%s did not prove" name)
    props

let () =
  Alcotest.run "verifiable"
    [ ("entities",
       [ Alcotest.test_case "discovery" `Quick test_entity_discovery;
         Alcotest.test_case "parity builders" `Quick test_parity_builders ]);
      ("transform",
       [ Alcotest.test_case "structure" `Quick test_transform;
         Alcotest.test_case "behavior preserved under tie-off" `Quick
           test_transform_preserves_behavior ]);
      ("propgen",
       [ Alcotest.test_case "counts" `Quick test_propgen_counts;
         Alcotest.test_case "shapes and roundtrip" `Quick test_propgen_shapes;
         Alcotest.test_case "clean module verifies" `Quick
           test_generated_properties_verify ]);
      ("partition",
       [ Alcotest.test_case "figure 7 soundness" `Quick test_partition_soundness;
         Alcotest.test_case "agreement across engines" `Slow
           test_partition_agreement_across_engines;
         Alcotest.test_case "cut mining" `Quick test_mine_cuts;
         Alcotest.test_case "free_cuts contract" `Quick test_free_cuts_contract;
         Alcotest.test_case "cut validation" `Quick test_partition_cut_validation ]);
      ("spec inference",
       [ Alcotest.test_case "matches archetypes" `Quick
           test_spec_infer_matches_archetypes;
         Alcotest.test_case "errors" `Quick test_spec_infer_errors;
         Alcotest.test_case "inferred properties verify" `Quick
           test_spec_infer_properties_verify ]);
      ("ecc",
       [ Alcotest.test_case "scheme sizing" `Quick test_ecc_scheme;
         QCheck_alcotest.to_alcotest prop_ecc_roundtrip;
         QCheck_alcotest.to_alcotest prop_ecc_corrects_single;
         QCheck_alcotest.to_alcotest prop_ecc_detects_double;
         QCheck_alcotest.to_alcotest prop_ecc_circuit_matches_reference;
         Alcotest.test_case "SECDED register proves" `Slow
           test_ecc_reg_properties_prove ]) ]
