(* The benchmark command.

     bench.exe --workload l2_read|dtw_read|served_churn --seed N --seconds S --trace 0|1
     bench.exe --spec        print BENCHMARK.json

   Prints a line of run information (machine, seed, sizes, per-phase
   counts), then, as the last line, the result object: every end-to-end
   metric with --trace 0, every per-layer metric with --trace 1.  Exits
   1 when an output check failed (the result then says "correct":
   false), and 2 on any other error, before printing a result. *)

open Common
module Catalog = Perfbench_core.Catalog

(* Measurement processes per end-to-end run: each sets up once and
   measures a share of the run's seconds. *)
let reps = 3

let run_workload (spec : 'a Workload.spec) ~seed ~seconds ~trace =
  let data = spec.generate seed in
  let o = outcome () in
  info o "sizes"
    (Json.Obj
       [
         ("db", Json.Num (float_of_int (Array.length data.db)));
         ("queries", Json.Num (float_of_int (Array.length data.queries)));
         ("fresh", Json.Num (float_of_int (Array.length data.fresh)));
       ]);
  (* The driver forks before any domain exists; so do the measurement
     processes of an end-to-end run. *)
  let driver =
    if spec.served || trace then
      Some
        (Driver.start ~seed
           ~queries:(Array.map spec.encode data.queries)
           ~fresh:(Array.map spec.encode data.fresh))
    else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Driver.stop driver) (fun () ->
      match driver with
      | Some driver when trace ->
          Dbh_util.Pool.with_pool ~domains:(Machine.nproc ()) (fun pool ->
              Layers.run spec data ~seed ~seconds ~driver ~pool o)
      | Some driver -> Served.run spec data ~seconds ~reps ~driver o
      | None -> Local.run spec data ~seconds ~reps o);
  o

let main workload seed seconds trace =
  let total0, steal0 = Machine.cpu_ticks () in
  let o =
    match workload with
    | "l2_read" -> run_workload Workload.l2_read ~seed ~seconds ~trace
    | "dtw_read" -> run_workload Workload.dtw_read ~seed ~seconds ~trace
    | "served_churn" -> run_workload Workload.served_churn ~seed ~seconds ~trace
    | w -> failwith ("unknown workload " ^ w)
  in
  let attempted = attempted o and failed = failed o in
  if not trace then
    metric o "success_ratio" (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
  let values =
    List.filter_map
      (fun (m : Catalog.metric) ->
        Option.map (fun v -> (m.name, v)) (List.assoc_opt m.name o.metrics))
      (Catalog.metrics ~trace)
  in
  let total1, steal1 = Machine.cpu_ticks () in
  (* Share of CPU time the hypervisor gave to other guests during the
     run: the main source of run-to-run drift on a shared VM. *)
  info o "host_steal_share"
    (Json.Num (float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))));
  let correct = correct o in
  let run_info =
    Json.Obj
      ([
         ("workload", Json.Str workload);
         ("seed", Json.Num (float_of_int seed));
         ("seconds", Json.Num seconds);
         ("trace", Json.Bool trace);
         ("machine", Machine.json ());
         ("phases", phases_json o);
       ]
      @ List.rev o.info)
  in
  List.iter (fun n -> prerr_endline ("wrong answer: " ^ n)) (List.rev o.wrong_notes);
  let result = Catalog.result_line ~correct ~attempted ~failed values in
  (* The result must name exactly what BENCHMARK.json declares. *)
  (if Sys.file_exists "BENCHMARK.json" then
     let spec =
       let ic = open_in_bin "BENCHMARK.json" in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
           Json.parse (really_input_string ic (in_channel_length ic)))
     in
     match Catalog.check_result ~spec ~trace (Json.parse (Json.to_string result)) with
     | Ok () -> ()
     | Error msg -> failwith ("result does not match BENCHMARK.json: " ^ msg));
  print_endline (Json.to_string (Json.Obj [ ("run", run_info) ]));
  print_endline (Json.to_string result);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int Catalog.run_seconds) in
  let trace = ref 0 and spec = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME l2_read, dtw_read or served_churn");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spec", Arg.Set spec, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !spec then print_endline (Json.to_string (Catalog.spec ()))
  else
    try main !workload !seed !seconds (!trace = 1)
    with e ->
      prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
      exit 2
