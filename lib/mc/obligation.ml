type 'meta t = {
  nl : Rtl.Netlist.t;
  ok_signal : string;
  constraint_signal : string option;
  budget : Engine.budget;
  strategy : Engine.strategy;
  meta : 'meta;
}

let of_prepared ?(budget = Engine.default_budget) ?strategy
    (nl, ok_signal, constraint_signal) ~meta =
  let strategy = Option.value strategy ~default:(Engine.auto budget) in
  { nl; ok_signal; constraint_signal; budget; strategy; meta }

let prepare ?budget ?strategy mdl ~assert_ ~assumes ~meta =
  if not (Rtl.Mdl.is_leaf mdl) then
    invalid_arg
      (Printf.sprintf
         "Obligation.prepare: %s is not a leaf module; the methodology \
          checks leaf modules only"
         mdl.Rtl.Mdl.name);
  of_prepared ?budget ?strategy
    (Engine.instrumented_netlist mdl ~assert_ ~assumes)
    ~meta

let of_vunit ?budget ?strategy mdl vunit ~meta =
  let assumes = List.map snd (Psl.Ast.assumes vunit) in
  List.map
    (fun (prop_name, assert_) ->
      prepare ?budget ?strategy mdl ~assert_ ~assumes ~meta:(meta ~prop_name))
    (Psl.Ast.asserts vunit)

let budget_salt (b : Engine.budget) =
  let lim = function None -> "-" | Some n -> string_of_int n in
  let sec = function None -> "-" | Some s -> Printf.sprintf "%g" s in
  Printf.sprintf "%s/%s/%d/%d/%d/%d/%d/%s" (lim b.Engine.bdd_node_limit)
    (lim b.Engine.pobdd_node_limit)
    b.Engine.pobdd_split_vars b.Engine.bmc_depth b.Engine.induction_max_k
    b.Engine.sat_max_conflicts b.Engine.ic3_max_frames
    (sec b.Engine.wall_deadline_s)

(* A portfolio's key must cover its members and their budgets — two
   portfolios under one name but different member caps answer different
   questions. The salt is the same whether the portfolio is then raced or
   run sequentially, so racing never changes a cache or journal key. *)
let rec strategy_salt = function
  | Engine.Portfolio p ->
    Printf.sprintf "portfolio:%s[%s]" p.Engine.p_name
      (String.concat ";"
         (List.map
            (fun (m : Engine.member) ->
              Printf.sprintf "%s@%s"
                (strategy_salt m.Engine.m_strategy)
                (budget_salt m.Engine.m_budget))
            p.Engine.p_members))
  | s -> Engine.strategy_name s

let key_salt ?(budget = Engine.default_budget) ?strategy () =
  let strategy = Option.value strategy ~default:(Engine.auto budget) in
  Printf.sprintf "%s|%s" (strategy_salt strategy) (budget_salt budget)

let fingerprint ?salt o =
  let salt =
    key_salt ~budget:o.budget ~strategy:o.strategy ()
    ^ match salt with None -> "" | Some s -> "|" ^ s
  in
  let roots =
    o.ok_signal
    :: (match o.constraint_signal with Some c -> [ c ] | None -> [])
  in
  Rtl.Canon.fingerprint ~salt ~roots o.nl

let run o =
  Engine.check_netlist ~budget:o.budget ?constraint_signal:o.constraint_signal
    ~strategy:o.strategy o.nl ~ok_signal:o.ok_signal

let degrade o =
  let strategy =
    match o.strategy with
    | Engine.Portfolio p ->
      let degrade_member (m : Engine.member) =
        { m with Engine.m_budget = Engine.degrade_budget m.Engine.m_budget }
      in
      Engine.Portfolio
        { p with Engine.p_members = List.map degrade_member p.Engine.p_members }
    | s -> s
  in
  { o with budget = Engine.degrade_budget o.budget; strategy }

let size o =
  let state = Rtl.Netlist.state_bits o.nl in
  let inputs =
    List.fold_left (fun acc (_, w) -> acc + w) 0 o.nl.Rtl.Netlist.inputs
  in
  (state, inputs)

let map_meta f o = { o with meta = f o.meta }
