module Int_tbl = Hashtbl.Make (Int)

type ctx = {
  mutable next_var : int;
  mutable clauses : int list list;
  mutable num_clauses : int;
  node_lit : int Int_tbl.t;  (* Bexpr node id -> literal *)
  inputs : int Int_tbl.t;    (* Bexpr input variable -> DIMACS variable *)
  mutable const_true : int option;  (* variable forced true, lazily made *)
  on_clause : (int list -> unit) option;
      (* streaming sink: clauses go straight to a live solver instead of
         being accumulated for to_cnf *)
}

let create ?on_clause () =
  { next_var = 0; clauses = []; num_clauses = 0;
    node_lit = Int_tbl.create 256; inputs = Int_tbl.create 64;
    const_true = None; on_clause }

let fresh_var ctx =
  ctx.next_var <- ctx.next_var + 1;
  ctx.next_var

let input_var ctx v =
  match Int_tbl.find ctx.inputs v with
  | cv -> cv
  | exception Not_found ->
    let cv = fresh_var ctx in
    Int_tbl.replace ctx.inputs v cv;
    cv

let find_input ctx v = Int_tbl.find_opt ctx.inputs v

let add_clause ctx lits =
  (match ctx.on_clause with
   | Some sink -> sink lits
   | None -> ctx.clauses <- lits :: ctx.clauses);
  ctx.num_clauses <- ctx.num_clauses + 1

let assert_lit ctx lit = add_clause ctx [ lit ]

let true_lit ctx =
  match ctx.const_true with
  | Some v -> v
  | None ->
    let v = fresh_var ctx in
    assert_lit ctx v;
    ctx.const_true <- Some v;
    v

let lit_of_bexpr ctx var_map root =
  (* The cache key is the Bexpr node id, so shared nodes encode once. Note
     the cache lives in the context: re-encoding the same DAG is free. *)
  let rec go (e : Rtl.Bexpr.t) =
    match Int_tbl.find ctx.node_lit (Rtl.Bexpr.id e) with
    | l -> l
    | exception Not_found ->
      let l =
        match e.node with
        | Rtl.Bexpr.True -> true_lit ctx
        | Rtl.Bexpr.False -> -true_lit ctx
        | Rtl.Bexpr.Var v -> var_map v
        | Rtl.Bexpr.Not a -> -go a
        | Rtl.Bexpr.And (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ -o; la ];
          add_clause ctx [ -o; lb ];
          add_clause ctx [ o; -la; -lb ];
          o
        | Rtl.Bexpr.Or (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ o; -la ];
          add_clause ctx [ o; -lb ];
          add_clause ctx [ -o; la; lb ];
          o
        | Rtl.Bexpr.Xor (a, b) ->
          let la = go a and lb = go b in
          let o = fresh_var ctx in
          add_clause ctx [ -o; la; lb ];
          add_clause ctx [ -o; -la; -lb ];
          add_clause ctx [ o; -la; lb ];
          add_clause ctx [ o; la; -lb ];
          o
        | Rtl.Bexpr.Ite (c, t, f) ->
          let lc = go c and lt = go t and lf = go f in
          let o = fresh_var ctx in
          add_clause ctx [ -o; -lc; lt ];
          add_clause ctx [ -o; lc; lf ];
          add_clause ctx [ o; -lc; -lt ];
          add_clause ctx [ o; lc; -lf ];
          (* redundant but propagation-strengthening clauses *)
          add_clause ctx [ -o; lt; lf ];
          add_clause ctx [ o; -lt; -lf ];
          o
      in
      Int_tbl.replace ctx.node_lit (Rtl.Bexpr.id e) l;
      l
  in
  go root

let to_cnf ctx =
  if ctx.on_clause <> None then
    invalid_arg "Tseitin.to_cnf: context streams clauses to a sink";
  Cnf.create ~nvars:ctx.next_var (List.rev ctx.clauses)
let num_vars ctx = ctx.next_var
let num_clauses ctx = ctx.num_clauses
