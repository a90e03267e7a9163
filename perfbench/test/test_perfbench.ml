(* The benchmark's own arithmetic and output schema. *)

open Perfbench_core

let feq = Alcotest.float 1e-12

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name data want =
    Alcotest.(check (array feq)) name want (Stats.quartiles data)
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) [| 2.75; 5.5; 8.25 |];
  check "two samples extrapolate" [| 2.; 1. |] [| 0.75; 1.5; 2.25 |];
  check "1..5" [| 3.; 1.; 2.; 5.; 4. |] [| 1.5; 3.; 4.5 |];
  Alcotest.check feq "iqr ratio" 1. (Stats.iqr_ratio (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check feq "constant sample has no spread" 0. (Stats.iqr_ratio (Array.make 10 7.))

let test_chunks () =
  let a = Array.init 2500 float_of_int in
  let cs = Stats.chunks ~size:1000 a in
  Alcotest.(check int) "two chunks of at least 1000" 2 (Array.length cs);
  Alcotest.(check (array feq)) "chunks tile the sample in order" a (Array.concat (Array.to_list cs));
  Alcotest.(check int) "small sample is one chunk" 1 (Array.length (Stats.chunks ~size:1000 (Array.make 10 0.)));
  (* A burst confined to one of three chunks moves that chunk only. *)
  let quiet () = Array.init 1000 (fun i -> float_of_int (i mod 10)) in
  let burst = Array.map (fun x -> x +. 100.) (quiet ()) in
  Alcotest.check feq "median over chunks ignores one burst" 9.
    (Stats.chunked_percentile ~size:1000 [ quiet (); burst; quiet () ] 99.);
  let steady = Array.make 1000 0.002 in
  Alcotest.check feq "closed-loop rate is operations / time" 500.
    (Stats.chunked_rate ~size:200 [ steady; Array.make 1000 0.004; steady ])

let test_histogram_quantile () =
  let h = [| (1., 2); (2., 2); (infinity, 0) |] in
  Alcotest.(check (option feq)) "median at a bucket edge" (Some 1.) (Stats.histogram_quantile h 0.5);
  Alcotest.(check (option feq)) "interpolated inside a bucket" (Some 1.5)
    (Stats.histogram_quantile h 0.75);
  Alcotest.(check (option feq)) "overflow bucket reports its lower edge" (Some 2.)
    (Stats.histogram_quantile [| (1., 0); (2., 0); (infinity, 3) |] 0.5);
  Alcotest.(check (option feq)) "empty" None (Stats.histogram_quantile [| (1., 0); (infinity, 0) |] 0.5)

let test_self_time () =
  let s = Spans.create 8 in
  let root = Spans.record s ~name:"online" ~start:0. ~stop:10. ~parent:(-1) ~request:1 in
  let child = Spans.record s ~name:"index" ~start:10. ~stop:16. ~parent:root ~request:1 in
  let _ = Spans.record s ~name:"hash" ~start:16. ~stop:17. ~parent:child ~request:1 in
  let _ = Spans.record s ~name:"refine" ~start:17. ~stop:19. ~parent:child ~request:1 in
  let self = Spans.self_times s in
  Alcotest.check feq "parent: span - child span" 4. self.(root);
  Alcotest.check feq "child: span - its children" 3. self.(child);
  Alcotest.check feq "leaf: its own span" 2. self.(3);
  Alcotest.(check (array feq)) "by name" [| 3. |] (Spans.self_times_of s "index");
  Alcotest.(check (array feq)) "durations by name" [| 6. |] (Spans.durations_of s "index");
  let sum = Array.fold_left ( +. ) 0. self in
  Alcotest.check feq "self times add up to the root span" (Spans.duration s root) sum;
  let full = Spans.create 1 in
  ignore (Spans.record full ~name:"a" ~start:0. ~stop:1. ~parent:(-1) ~request:0);
  Alcotest.(check int) "full log drops" (-1)
    (Spans.record full ~name:"b" ~start:1. ~stop:2. ~parent:(-1) ~request:0);
  Alcotest.(check int) "drop is counted" 1 (Spans.dropped full)

let test_json () =
  Alcotest.(check string) "integers print bare" "34503" (Json.number 34503.);
  Alcotest.(check string) "shortest round trip" "1.2034" (Json.number 1.2034);
  let x = 0.1 +. 0.2 in
  Alcotest.check feq "all digits kept" x (float_of_string (Json.number x));
  let v = Json.Obj [ ("a", Json.Arr [ Json.Num 1.5; Json.Null; Json.Bool true ]); ("b", Json.Str "q\"\\\n") ] in
  Alcotest.(check bool) "parse inverts print" true (Json.parse (Json.to_string v) = v)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let spec_file () = Json.parse (read_file "../../BENCHMARK.json")

let test_spec_matches_catalog () =
  Alcotest.(check bool) "BENCHMARK.json = Catalog.spec (regenerate with bench.exe --spec)" true
    (spec_file () = Catalog.spec ())

let valid_name n =
  String.length n >= 1
  && String.length n <= 64
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) n

let valid_unit u =
  String.length u >= 1
  && String.length u <= 16
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       u

let test_catalog_rules () =
  let all = Catalog.end_to_end @ Catalog.per_layer in
  let names = List.map (fun (m : Catalog.metric) -> m.name) all @ List.map fst Catalog.workloads in
  Alcotest.(check int) "names are unique" (List.length names) (List.length (List.sort_uniq compare names));
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (valid_name n)) names;
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) ("unit of " ^ m.name) true (valid_unit m.unit);
      Alcotest.(check bool) ("layer of " ^ m.name) true (m.layer <> ""))
    all;
  let setup = List.find (fun (m : Catalog.metric) -> m.name = "setup_s") Catalog.end_to_end in
  Alcotest.(check bool) "setup_s in s, lower" true (setup.unit = "s" && setup.better = Catalog.Lower);
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) ("bound of " ^ m.name) true (m.bound > 0. && m.bound <= 0.25 && m.bound <= setup.bound))
    Catalog.end_to_end;
  List.iter
    (fun (m : Catalog.metric) ->
      if not (String.starts_with ~prefix:"trace." m.name) then
        Alcotest.(check bool) ("moves of " ^ m.name) true
          (List.exists (fun (w, _) -> String.ends_with ~suffix:(" on " ^ w) m.moves) Catalog.workloads))
    Catalog.per_layer;
  List.iter
    (fun (_, why) -> Alcotest.(check bool) "why fits" true (String.length why <= 200 && not (String.contains why '\n')))
    Catalog.workloads

let fake_values ~trace = List.map (fun (m : Catalog.metric) -> (m.name, 1.25)) (Catalog.metrics ~trace)

let test_result_schema () =
  let spec = spec_file () in
  List.iter
    (fun trace ->
      let line = Json.to_string (Catalog.result_line ~correct:true ~attempted:10 ~failed:0 (fake_values ~trace)) in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      (match Catalog.check_result ~spec ~trace (Json.parse line) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let short = List.tl (fake_values ~trace) in
      let line = Catalog.result_line ~correct:true ~attempted:10 ~failed:0 short in
      Alcotest.(check bool) "a missing metric is caught" true
        (Result.is_error (Catalog.check_result ~spec ~trace line)))
    [ false; true ];
  let wrong_mode = Catalog.result_line ~correct:true ~attempted:1 ~failed:0 (fake_values ~trace:true) in
  Alcotest.(check bool) "per-layer metrics are not end-to-end" true
    (Result.is_error (Catalog.check_result ~spec ~trace:false wrong_mode));
  let zero = Catalog.result_line ~correct:true ~attempted:0 ~failed:0 (fake_values ~trace:false) in
  Alcotest.(check bool) "attempted must be at least 1" true
    (Result.is_error (Catalog.check_result ~spec ~trace:false zero))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles and IQR" `Quick test_quartiles;
          Alcotest.test_case "chunked percentiles" `Quick test_chunks;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
        ] );
      ("spans", [ Alcotest.test_case "self time = span - child spans" `Quick test_self_time ]);
      ( "schema",
        [
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_spec_matches_catalog;
          Alcotest.test_case "catalog rules" `Quick test_catalog_rules;
          Alcotest.test_case "result names every declared metric" `Quick test_result_schema;
        ] );
    ]
