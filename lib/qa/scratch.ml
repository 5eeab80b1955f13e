module E = Mc.Engine
module D = Mc.Deadline

(* Runs an oracle under the engine's span name. [finish i v] stamps verdict
   [v], reached at depth or k [i]; [cut cause] is the verdict of a solve
   stopped by [max_conflicts] or by the deadline. *)
let run ~engine ~deadline f =
  Obs.Telemetry.span ~cat:"engine" engine @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish iterations verdict =
    { E.verdict; engine_used = engine; time_s = Unix.gettimeofday () -. t0;
      iterations; work_nodes = 0; perf = E.empty_perf }
  in
  let cut cause =
    E.Resource_out (if D.expired deadline then E.ro_deadline else cause)
  in
  try f ~finish ~cut (D.checker deadline)
  with D.Expired -> finish 0 (E.Resource_out E.ro_deadline)

let bmc ?(max_conflicts = max_int) ?(deadline = D.none) ?constraint_signal nl
    ~ok_signal ~depth =
  run ~engine:"bmc" ~deadline @@ fun ~finish ~cut should_stop ->
  let rec go d =
    if d > depth then finish depth (E.Proved_bounded depth)
    else begin
      D.check deadline;
      let inc = Mc.Bmc.create_inc ?constraint_signal nl ~ok_signal in
      let result, _ =
        Mc.Bmc.solve_depth ~max_conflicts ~should_stop inc ~depth:d
      in
      match result with
      | `No_violation -> go (d + 1)
      | `Violation trace -> finish d (E.Failed trace)
      | `Unknown -> finish d (cut E.ro_sat_conflicts)
    end
  in
  go 0

let kind ?(max_conflicts = max_int) ?(deadline = D.none) ?constraint_signal nl
    ~ok_signal ~max_k =
  run ~engine:"k-induction" ~deadline @@ fun ~finish ~cut should_stop ->
  let rec iterate k =
    if k > max_k then finish max_k (E.Resource_out E.ro_kind_inconclusive)
    else begin
      D.check deadline;
      let base = Mc.Bmc.create_inc ?constraint_signal nl ~ok_signal in
      let result, _ =
        Mc.Bmc.solve_depth ~max_conflicts ~should_stop base ~depth:k
      in
      match result with
      | `Violation trace -> finish k (E.Failed trace)
      | `Unknown -> finish k (cut E.ro_kind_inconclusive)
      | `No_violation -> (
        let step = Mc.Induction.create_step ?constraint_signal nl ~ok_signal in
        let result, _ =
          Mc.Induction.solve_step ~max_conflicts ~should_stop step ~k
        in
        match result with
        | `Inductive -> finish k E.Proved
        | `Not_inductive -> iterate (k + 1)
        | `Unknown -> finish k (cut E.ro_kind_inconclusive))
    end
  in
  iterate 0
