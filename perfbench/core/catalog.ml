(* Every metric the benchmark reports, with its unit, its better
   direction, the layer it measures and — for per-layer metrics — the
   end-to-end metric and workload it is expected to move.  BENCHMARK.json
   is generated from these tables ([bench.exe --spec]) and the test
   suite checks that the two agree. *)

type better = Higher | Lower

(* Seconds one run measures (BENCHMARK.json "run_seconds"). *)
let run_seconds = 10

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of the median *)
  layer : string;
  moves : string;  (** per-layer only: "<end-to-end metric> on <workload>" *)
}

let workloads =
  [
    ( "l2_read",
      "4000 L2 16-d vectors, Online at accuracy 0.9: a distance costs ~30 ns, so hashing, \
       probing and layer glue dominate a query; the DTW kernel is bypassed" );
    ( "dtw_read",
      "1000 pen trajectories under DTW, Online at accuracy 0.9: one distance costs ~30 us, \
       so kernel and refine make up most of a query; hashing changes should not move it" );
    ( "served_churn",
      "Server on 2 Durable shards (fsync off), 4000 L2-16d, 2 conns: 90% search, 5% insert, \
       5% delete; closed loop for qps and latency, open loop at 200 req/s reported" );
  ]

let e2e name unit better bound layer = { name; unit; better; bound; layer; moves = "" }

(* Timing bounds sit at the largest allowed share: on a 2-vCPU VM the
   host's speed drifts by a fifth over minutes.  99th percentiles move
   with host CPU steal by several times, so the run line reports them
   (query_p99_us, insert_p99_us) without a bound. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25 "set-up: dataset in memory to ready to answer";
    e2e "query_p50_us" "us" Lower 0.25 "query latency, median";
    e2e "query_p90_us" "us" Lower 0.25 "query latency, 90th percentile";
    e2e "qps" "1/s" Higher 0.25 "single closed-loop caller (served: 2-connection goodput)";
    e2e "batch_qps" "1/s" Higher 0.25 "pooled search_batch (served: 8 pipelined per connection)";
    e2e "recall_at_1" "ratio" Higher 0.05 "answers whose distance equals the exact NN distance";
    e2e "dists_per_query" "count" Lower 0.25 "distance computations per query (paper Eq. 12-14)";
    e2e "insert_p50_us" "us" Lower 0.25 "insert latency, median";
    e2e "insert_p90_us" "us" Lower 0.25 "insert latency, 90th percentile";
    e2e "heap_mb" "MB" Lower 0.2 "live heap after set-up";
    e2e "success_ratio" "ratio" Higher 0.01 "operations answered in full, share of attempted";
  ]

let layer name unit better layer moves = { name; unit; better; bound = 0.; layer; moves }

let per_layer =
  [
    layer "kernel.ns_per_distance" "ns" Lower "kernel: Space.distance (Minkowski, Dtw)"
      "query_p50_us on dtw_read";
    layer "kernel.minor_words_per_distance" "words" Lower "kernel: Space.distance"
      "query_p50_us on dtw_read";
    layer "hash.us_per_query" "us" Lower "Hash_family: cache + pivot_distance, all pivots"
      "query_p50_us on l2_read";
    layer "hash.distances_per_query" "count" Lower "Hash_family" "dists_per_query on l2_read";
    layer "probe.us_per_query" "us" Lower "Index probe: candidates_into, level 0"
      "query_p50_us on l2_read";
    layer "probe.buckets_per_query" "count" Lower "Index probe" "query_p50_us on l2_read";
    layer "probe.candidates_per_query" "count" Lower "Index probe" "query_p50_us on l2_read";
    layer "refine.us_per_query" "us" Lower "Index refine: exact distances over the candidates"
      "query_p50_us on dtw_read";
    layer "refine.candidates_per_hit" "count" Lower "Index refine" "query_p50_us on dtw_read";
    layer "index.glue_us_per_query" "us" Lower "Index: search - (hash + probe + refine)"
      "query_p50_us on l2_read";
    layer "index.minor_words_per_query" "words" Lower "Index: search" "query_p50_us on l2_read";
    layer "hierarchical.us_per_query" "us" Lower "Hierarchical: search - level-0 Index.search"
      "query_p50_us on l2_read";
    layer "hierarchical.levels_per_query" "count" Lower "Hierarchical" "query_p50_us on l2_read";
    layer "online.us_per_query" "us" Lower "Online: search - Hierarchical.search"
      "query_p50_us on l2_read";
    layer "breaker.us_per_query" "us" Lower "Breaker: search - Online.search"
      "query_p50_us on served_churn";
    layer "breaker.fallback_ratio" "ratio" Lower "Breaker" "query_p50_us on served_churn";
    layer "online.insert_us" "us" Lower "Online: insert" "insert_p50_us on served_churn";
    layer "online.delete_us" "us" Lower "Online: delete" "insert_p50_us on served_churn";
    layer "wal.append_us" "us" Lower "Durable: insert - Online.insert"
      "insert_p50_us on served_churn";
    layer "online.rebuilds" "count" Lower "Online" "insert_p90_us on served_churn";
    layer "online.delta_entries" "count" Lower "Online" "query_p50_us on served_churn";
    layer "online.tombstones" "count" Lower "Online" "query_p50_us on served_churn";
    layer "shards.search_many_us_per_query" "us" Lower "Shards: search_many, in process"
      "qps on served_churn";
    layer "protocol.encode_us" "us" Lower "Protocol: encode, per frame"
      "query_p50_us on served_churn";
    layer "protocol.decode_us" "us" Lower "Protocol: decode, per frame"
      "query_p50_us on served_churn";
    layer "server.request_us_p50" "us" Lower "Server: admission to reply written (/metrics)"
      "query_p50_us on served_churn";
    layer "server.batch_size_mean" "count" Higher "Server: micro-batcher (/metrics)"
      "batch_qps on served_churn";
    layer "admission.shed_ratio" "ratio" Lower "Admission (/metrics)"
      "success_ratio on served_churn";
    layer "net.residual_us" "us" Lower "socket + client: mean RTT - mean server request time"
      "query_p50_us on served_churn";
    layer "loadgen.late_p99_us" "us" Lower "load generator: send time - due time"
      "query_p90_us on served_churn";
    layer "build.family_s" "s" Lower "Builder: Hash_family.make" "setup_s on dtw_read";
    layer "build.pivot_table_s" "s" Lower "Builder: Hash_family.pivot_table" "setup_s on dtw_read";
    layer "build.prepare_s" "s" Lower "Builder: prepare (family, pivot table, model fit)"
      "setup_s on dtw_read";
    layer "build.index_s" "s" Lower "Builder: hierarchical tables" "setup_s on l2_read";
    layer "pool.busy_fraction" "ratio" Higher "Pool: telemetry over set-up and batch"
      "batch_qps on l2_read";
    layer "pool.steals" "count" Lower "Pool: telemetry over set-up and batch" "setup_s on dtw_read";
    layer "gc.minor_words_per_query" "words" Lower "GC: Gc.quick_stat delta, Online.search"
      "query_p90_us on l2_read";
    layer "gc.major_collections_per_1k_queries" "count" Lower "GC: Gc.quick_stat delta"
      "query_p90_us on l2_read";
    layer "trace.unexplained_ratio" "ratio" Lower
      "reconciliation: (query p50 - sum of stage self times) / query p50" "";
    layer "trace.overhead_ratio" "ratio" Lower "tracing: traced / untraced Online.search p50" "";
  ]

let metrics ~trace = if trace then per_layer else end_to_end
let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
let better_string = function Higher -> "higher" | Lower -> "lower"

(* The BENCHMARK.json document. *)
let spec () =
  let open Json in
  Obj
    [
      ("command", Arr [ Str "python3"; Str "perfbench/run.py" ]);
      ("paths", Arr [ Str "perfbench" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr (List.map (fun (name, why) -> Obj [ ("name", Str name); ("why", Str why) ]) workloads)
      );
      ( "end_to_end",
        Arr
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", Str m.name);
                   ("unit", Str m.unit);
                   ("better", Str (better_string m.better));
                   ("bound", Num m.bound);
                 ])
             end_to_end) );
      ( "per_layer",
        Arr
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", Str m.name); ("unit", Str m.unit); ("better", Str (better_string m.better));
                 ])
             per_layer) );
    ]

(* The last line of a run: the four keys the contract names, metrics in
   catalog order with their catalog units. *)
let result_line ~correct ~attempted ~failed values =
  let open Json in
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Num (float_of_int attempted));
      ("failed", Num (float_of_int failed));
      ( "metrics",
        Obj
          (List.map
             (fun (name, v) ->
               let unit = match find name with Some m -> m.unit | None -> "" in
               (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
             values) );
    ]

(* Check a parsed result line against a parsed BENCHMARK.json: exactly
   the four keys, and exactly the declared metrics of the mode, each a
   finite number in its declared unit. *)
let check_result ~spec ~trace result =
  let ( let* ) = Result.bind in
  let names_units key =
    match Json.member key spec with
    | Some (Json.Arr l) ->
        Ok
          (List.filter_map
             (fun m ->
               match (Json.member "name" m, Json.member "unit" m) with
               | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
               | _ -> None)
             l)
    | _ -> Error (Printf.sprintf "BENCHMARK.json has no %s list" key)
  in
  let* declared = names_units (if trace then "per_layer" else "end_to_end") in
  let* () =
    match result with
    | Json.Obj fields ->
        let keys = List.sort compare (List.map fst fields) in
        if keys = [ "attempted"; "correct"; "failed"; "metrics" ] then Ok ()
        else Error ("result keys: " ^ String.concat "," keys)
    | _ -> Error "result is not an object"
  in
  let* () =
    match (Json.member "correct" result, Json.member "attempted" result, Json.member "failed" result) with
    | Some (Json.Bool _), Some (Json.Num a), Some (Json.Num f)
      when Float.is_integer a && Float.is_integer f && a >= 1. && f >= 0. ->
        Ok ()
    | _ -> Error "correct/attempted/failed malformed"
  in
  match Json.member "metrics" result with
  | Some (Json.Obj ms) ->
      let got = List.sort compare (List.map fst ms) in
      let want = List.sort compare (List.map fst declared) in
      if got <> want then
        let missing = List.filter (fun n -> not (List.mem n got)) want in
        let extra = List.filter (fun n -> not (List.mem n want)) got in
        Error
          (Printf.sprintf "metrics differ from BENCHMARK.json: missing [%s], undeclared [%s]"
             (String.concat "," missing) (String.concat "," extra))
      else
        List.fold_left
          (fun acc (name, v) ->
            let* () = acc in
            match (Json.member "value" v, Json.member "unit" v) with
            | Some (Json.Num x), Some (Json.Str u) when Float.is_finite x ->
                if u = List.assoc name declared then Ok ()
                else Error (Printf.sprintf "%s: unit %s, declared %s" name u (List.assoc name declared))
            | _ -> Error (name ^ ": value or unit malformed"))
          (Ok ()) ms
  | _ -> Error "metrics is not an object"
