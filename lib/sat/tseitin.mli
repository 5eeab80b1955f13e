(** Tseitin transformation from {!Bexpr} DAGs to CNF.

    Each distinct DAG node gets one CNF variable; sharing in the DAG is
    preserved, so the encoding is linear in DAG size. A context accumulates
    clauses across multiple roots — the bounded model checker encodes every
    unrolled frame into one context. *)

type ctx

val create : ?on_clause:(int list -> unit) -> unit -> ctx
(** With [on_clause], every generated clause is streamed to the sink
    (typically {!Solver.add_clause} on a live incremental solver) instead of
    being accumulated; {!to_cnf} is then unavailable. *)

val fresh_var : ctx -> int
(** A fresh DIMACS variable (returned positive). *)

val input_var : ctx -> int -> int
(** [input_var ctx v] is the DIMACS variable standing for [Bexpr] input
    variable [v] in this context, allocated with {!fresh_var} on first
    use. [lit_of_bexpr ctx (input_var ctx)] encodes a DAG over the
    context's own inputs. *)

val find_input : ctx -> int -> int option
(** The variable {!input_var} allocated for [v], if any. [None] means
    [input_var] was never asked for [v] in this context, so no clause or
    assumption of this context mentions it. *)

val lit_of_bexpr : ctx -> (int -> int) -> Rtl.Bexpr.t -> int
(** [lit_of_bexpr ctx var_map e] encodes [e], mapping each [Bexpr] input
    variable [v] to the DIMACS variable [var_map v] (which must already be
    allocated in this context), and returns the literal equisatisfiably
    equal to [e]. *)

val assert_lit : ctx -> int -> unit
(** Add the unit clause [lit]. *)

val add_clause : ctx -> int list -> unit

val to_cnf : ctx -> Cnf.t
(** Raises [Invalid_argument] on a context created with [on_clause]. *)

val num_vars : ctx -> int
val num_clauses : ctx -> int
