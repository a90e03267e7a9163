(* The traced run: per-layer metrics.

   Each layer's public entry point is called on the same query in turn
   — Breaker.search, Online.search, Hierarchical.search, the level-0
   Index.search, then the index's three stages by hand (hashing every
   pivot, Index.candidates_into, exact refine over the candidate
   buffer).  Each call is one span whose parent is the call one layer
   up, so a layer's self time is its span minus its child spans.  Spans
   stay in memory and are written to perfbench/.out at the end. *)

open Common
module H = Dbh.Hash_family
module Index = Dbh.Index
module Hier = Dbh.Hierarchical
module Online = Dbh.Online
module Durable = Dbh.Online.Durable
module Breaker = Dbh_robust.Breaker
module Scratch = Dbh.Scratch
module Store = Dbh.Store
module Pool = Dbh_util.Pool
module Rng = Dbh_util.Rng
module Spans = Perfbench_core.Spans
module P = Dbh_serve.Protocol
module Shards = Dbh_serve.Shards
module Server = Dbh_serve.Server
module Registry = Dbh_obs.Registry

(* Set-up split: the builder's stages, each timed on its own. *)
let build_split (spec : 'a Workload.spec) ~pool db o =
  let c = spec.config and space = spec.space in
  let rng () = Rng.create Workload.dataset_seed in
  let family, t_family =
    time (fun () ->
        H.make ~pool ~rng:(rng ()) ~space ~num_pivots:c.num_pivots
          ~threshold_sample:c.threshold_sample ?max_functions:c.max_functions ~selector:c.selector
          db)
  in
  let _, t_pivot = time (fun () -> H.pivot_table ~pool family db) in
  let prepared, t_prepare = time (fun () -> Dbh.Builder.prepare ~pool ~rng:(rng ()) ~space ~config:c db) in
  let _, t_index =
    time (fun () ->
        Dbh.Builder.hierarchical ~pool ~rng:(rng ()) ~prepared ~db
          ~target_accuracy:Workload.target_accuracy ~config:c ())
  in
  metric o "build.family_s" t_family;
  metric o "build.pivot_table_s" t_pivot;
  metric o "build.prepare_s" t_prepare;
  metric o "build.index_s" t_index

type probe_counts = {
  mutable queries : int;
  mutable levels : int;
  mutable fallbacks : int;
  mutable buckets : int;
  mutable candidates : int;
  mutable hits : int;
  mutable hash_distances : int;
  mutable index_words : float;
}

(* One query through every layer, one span per call. *)
let decompose spans ~request (space : 'a Dbh_space.Space.t) breaker online ~exact ~scratch ~row
    counts q =
  let span name parent f =
    let t0 = now () in
    let y = f () in
    let t1 = now () in
    (y, Spans.record spans ~name ~start:t0 ~stop:t1 ~parent ~request)
  in
  let outcome, b = span "breaker.search" (-1) (fun () -> Breaker.search breaker q) in
  let _, on = span "online.search" b (fun () -> Online.search online q) in
  let hier = Online.index online in
  let hr, hs = span "hierarchical.search" on (fun () -> Hier.search hier q) in
  let idx = (Hier.indexes hier).(0) in
  let w0 = Gc.minor_words () in
  let _, is = span "index.search" hs (fun () -> Index.search idx q) in
  counts.index_words <- counts.index_words +. (Gc.minor_words () -. w0);
  let family = Index.family idx in
  let m = H.num_pivots family in
  let cache, _ =
    span "hash" is (fun () ->
        let c = H.cache family q in
        for p = 0 to m - 1 do
          row.(p) <- H.pivot_distance family c p
        done;
        c)
  in
  let store = Index.store idx in
  Scratch.ensure scratch (Store.length store);
  let with_dists = H.cache_with_distances family q row in
  let buckets = ref 0 in
  ignore
    (span "probe" is (fun () -> Index.candidates_into ~probe_counter:buckets idx with_dists ~scratch));
  let n = Scratch.count scratch in
  let best, _ =
    span "refine" is (fun () ->
        let best = ref infinity in
        for j = 0 to n - 1 do
          let d = space.distance q (Store.get store (Scratch.get scratch j)) in
          if d < !best then best := d
        done;
        !best)
  in
  Scratch.reset scratch;
  counts.queries <- counts.queries + 1;
  counts.levels <- counts.levels + hr.levels_probed;
  if outcome.served_by = `Linear_scan then counts.fallbacks <- counts.fallbacks + 1;
  counts.buckets <- counts.buckets + !buckets;
  counts.candidates <- counts.candidates + n;
  counts.hash_distances <- counts.hash_distances + H.cache_cost cache;
  if is_exact ~exact best then counts.hits <- counts.hits + 1

let per_query counts x = x /. float_of_int (max 1 counts.queries)
let median_self spans name = Stats.median (Spans.self_times_of spans name)

(* Distance kernel: rounds of back-to-back calls, median ns per call. *)
let kernel (space : 'a Dbh_space.Space.t) db queries ~seconds o =
  let sink = ref 0. in
  let round n =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for k = 0 to n - 1 do
      sink := !sink +. space.distance db.(k mod Array.length db) queries.(k mod Array.length queries)
    done;
    let dt = now () -. t0 in
    (dt /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n)
  in
  let per_call, _ = round 200 in
  let n = max 200 (int_of_float (0.05 /. Float.max per_call 1e-9)) in
  let rounds = max 3 (int_of_float (seconds /. 0.05)) in
  let results = Array.init rounds (fun _ -> round n) in
  metric o "kernel.ns_per_distance" (1e9 *. Stats.median (Array.map fst results));
  metric o "kernel.minor_words_per_distance" (Stats.median (Array.map snd results));
  ignore (Sys.opaque_identity !sink)

(* Protocol: encode and decode a SEARCH frame carrying each query and a
   RESULT frame, in rounds; median µs per frame. *)
let protocol (spec : 'a Workload.spec) queries ~seconds o =
  let reqs =
    Array.map
      (fun q ->
        P.Search
          { tenant = ""; deadline_ms = 1000; budget = 0; probes = 0; radius = 0; payload = spec.encode q })
      queries
  in
  let resp = P.Result { found = true; handle = 123_456; dist = 0.25; cost = 321; truncated = false } in
  let frames =
    Array.mapi
      (fun i r ->
        ( Bytes.of_string (P.encode_request ~id:(Int64.of_int i) r),
          Bytes.of_string (P.encode_response ~id:(Int64.of_int i) resp) ))
      reqs
  in
  let n = Array.length reqs in
  let decode b ok =
    match P.decode_frame b ~off:0 ~len:(Bytes.length b) with
    | `Frame (f, _) -> ok f
    | `Need_more | `Corrupt _ -> failwith "protocol: a frame it encoded does not decode"
  in
  let rounds = max 3 (int_of_float (seconds /. 0.02)) in
  let enc = Array.make rounds 0. and dec = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let t0 = now () in
    Array.iteri
      (fun i req ->
        ignore (Sys.opaque_identity (P.encode_request ~id:(Int64.of_int i) req));
        ignore (Sys.opaque_identity (P.encode_response ~id:(Int64.of_int i) resp)))
      reqs;
    let t1 = now () in
    Array.iter
      (fun (rq, rs) ->
        decode rq (fun f -> ignore (Sys.opaque_identity (P.request_of_frame f)));
        decode rs (fun f -> ignore (Sys.opaque_identity (P.response_of_frame f))))
      frames;
    let t2 = now () in
    enc.(r) <- (t1 -. t0) /. float_of_int (2 * n);
    dec.(r) <- (t2 -. t1) /. float_of_int (2 * n)
  done;
  metric o "protocol.encode_us" (us (Stats.median enc));
  metric o "protocol.decode_us" (us (Stats.median dec));
  us (Stats.median enc) +. us (Stats.median dec)

(* Server-side histograms and counters, read between phases from the
   server's registry (the same numbers /metrics exposes). *)
type server_snapshot = {
  request_buckets : (float * int) array;
  request_count : int;
  request_sum : float;
  batch_count : int;
  batch_sum : float;
  requests : int;
  shed : int;
}

let snapshot server =
  let m = Server.metrics server in
  let open Dbh_serve.Serve_metrics in
  {
    request_buckets = Registry.histogram_buckets m.request_seconds;
    request_count = Registry.histogram_count m.request_seconds;
    request_sum = Registry.histogram_sum m.request_seconds;
    batch_count = Registry.histogram_count m.batch_size;
    batch_sum = Registry.histogram_sum m.batch_size;
    requests = Registry.counter_value m.requests_total;
    shed =
      Registry.counter_value m.shed_rate_total
      + Registry.counter_value m.shed_queue_total
      + Registry.counter_value m.shed_drain_total;
  }

(* The served probe: a short closed loop and open loop against a server
   over [db]; returns the client round-trip p50 in µs. *)
let served_probe (spec : 'a Workload.spec) ~driver ~pool ~db ~queries ~fresh ~seconds o =
  let root = work_dir (spec.name ^ "-probe") in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let shards = Served.open_shards spec ~dir:root db in
  Served.with_server ~pool spec shards @@ fun server ->
  let port = Server.port server in
  let churn = Served.churn () in
  let baseline = Served.verify o spec shards ~driver ~port ~queries ~fresh churn in
  let phase =
    Served.phase o spec shards ~driver ~port ~queries ~fresh churn ~expect:(Churn baseline)
  in
  ignore (phase "probe_warmup" (Driver.Closed { window = 1; seconds = 0.2 }));
  let before = snapshot server in
  let closed = phase "probe_closed" (Driver.Closed { window = 1; seconds = 0.2 *. seconds }) in
  let after = snapshot server in
  let buckets =
    Array.mapi (fun i (ub, c) -> (ub, c - snd before.request_buckets.(i))) after.request_buckets
  in
  let request_p50 = Option.value ~default:0. (Stats.histogram_quantile buckets 0.5) in
  let request_mean =
    (after.request_sum -. before.request_sum) /. float_of_int (max 1 (after.request_count - before.request_count))
  in
  let batch_mean =
    (after.batch_sum -. before.batch_sum) /. float_of_int (max 1 (after.batch_count - before.batch_count))
  in
  metric o "server.request_us_p50" (us request_p50);
  metric o "server.batch_size_mean" batch_mean;
  metric o "admission.shed_ratio"
    (float_of_int (after.shed - before.shed) /. float_of_int (max 1 (after.requests - before.requests)));
  metric o "net.residual_us" (us (Stats.mean closed.all_lat -. request_mean));
  let rate = Float.max 10. (0.5 *. float_of_int closed.ok /. closed.elapsed) in
  let opened = phase "probe_open" (Driver.Open { rate; seconds = 0.1 *. seconds }) in
  metric o "loadgen.late_p99_us" (us (Stats.percentile opened.late 99.));
  (* Shards.search_many in process, at the server's mean batch size,
     while the server is idle. *)
  let b = max 1 (int_of_float (Float.round batch_mean)) in
  let q = { Shards.budget = Driver.budget; probes = 0; radius = 0 } in
  let nq = Array.length queries in
  let n = ref 0 in
  let stop = now () +. (0.1 *. seconds) in
  let t0 = now () in
  while !n < nq || now () < stop do
    let batch = Array.init b (fun i -> (queries.((!n + i) mod nq), q)) in
    ignore (Shards.search_many shards batch);
    n := !n + b
  done;
  metric o "shards.search_many_us_per_query" (us ((now () -. t0) /. float_of_int !n));
  Served.settle o spec shards ~driver ~port ~queries ~fresh churn ~baseline;
  us (Stats.median closed.search_lat)

let spans_dir = Filename.concat "perfbench" ".out"

let run (spec : 'a Workload.spec) (data : 'a Workload.data) ~seed ~seconds ~driver ~pool o =
  let space = spec.space in
  (* served_churn's in-process stack mirrors one shard: every other
     object, under the shards' build configuration. *)
  let db =
    if spec.served then Array.of_list (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list data.db))
    else data.db
  in
  let queries = data.queries in
  let exact =
    Ground_truth.exact_nn ~pool ~workload:spec.name ~encode:spec.encode ~reference:spec.reference db
      queries
  in
  Pool.reset_telemetry pool;
  let t_pool = now () in
  build_split spec ~pool db o;
  let root = work_dir (spec.name ^ "-durable") in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let durable, _ =
    Durable.open_or_create ~pool ~fsync:false ~rng:(Rng.create Workload.dataset_seed) ~space ~config:spec.config
      ~target_accuracy:Workload.target_accuracy ~encode:spec.encode ~decode:spec.decode ~dir:root
      ~data:db ()
  in
  Fun.protect ~finally:(fun () -> Durable.close durable) @@ fun () ->
  let online = Durable.online durable in
  let breaker = Breaker.create online in
  (* Pooled batches, for the pool's telemetry over set-up + batch. *)
  let stop = now () +. (0.05 *. seconds) in
  let nb = ref 0 in
  while !nb = 0 || now () < stop do
    ignore (Online.search_batch online queries);
    incr nb
  done;
  let tel = Pool.telemetry pool in
  let wall = now () -. t_pool in
  metric o "pool.busy_fraction"
    (Array.fold_left ( +. ) 0. tel.busy_seconds /. (wall *. float_of_int (Pool.size pool)));
  metric o "pool.steals" (float_of_int (Array.fold_left ( + ) 0 tel.steals));
  (* Untraced and traced queries alternate in blocks, so both see the
     same heap and machine state.  The untraced blocks are the
     end-to-end query loop (Online.search with default options) and
     carry the GC deltas. *)
  let nq = Array.length queries in
  let plain = Stats.Buf.create () in
  let minor = ref 0. and majors = ref 0 in
  let spans = Spans.create 50_000 in
  let scratch = Scratch.create () in
  let row = Array.make (H.num_pivots (Hier.family (Online.index online))) 0. in
  let counts =
    {
      queries = 0;
      levels = 0;
      fallbacks = 0;
      buckets = 0;
      candidates = 0;
      hits = 0;
      hash_distances = 0;
      index_words = 0.;
    }
  in
  let block = 20 in
  let origin = now () in
  let stop = origin +. (0.35 *. seconds) in
  while counts.queries < nq || now () < stop do
    let first = counts.queries in
    let g0 = Gc.quick_stat () in
    for i = first to first + block - 1 do
      let t = now () in
      ignore (Online.search online queries.(i mod nq));
      Stats.Buf.push plain (now () -. t)
    done;
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.minor_words -. g0.minor_words);
    majors := !majors + (g1.major_collections - g0.major_collections);
    for i = first to first + block - 1 do
      let qi = i mod nq in
      decompose spans ~request:i space breaker online ~exact:exact.(qi) ~scratch ~row counts
        queries.(qi)
    done
  done;
  let untraced = float_of_int (Stats.Buf.length plain) in
  let untraced_p50 = us (Stats.median (Stats.Buf.to_array plain)) in
  metric o "gc.minor_words_per_query" (!minor /. untraced);
  metric o "gc.major_collections_per_1k_queries" (1000. *. float_of_int !majors /. untraced);
  let self name = us (median_self spans name) in
  let hash = self "hash" and probe = self "probe" and refine = self "refine" in
  let glue = self "index.search" and hier = self "hierarchical.search" in
  let onl = self "online.search" in
  metric o "hash.us_per_query" hash;
  metric o "hash.distances_per_query" (per_query counts (float_of_int counts.hash_distances));
  metric o "probe.us_per_query" probe;
  metric o "probe.buckets_per_query" (per_query counts (float_of_int counts.buckets));
  metric o "probe.candidates_per_query" (per_query counts (float_of_int counts.candidates));
  metric o "refine.us_per_query" refine;
  metric o "refine.candidates_per_hit"
    (float_of_int counts.candidates /. float_of_int (max 1 counts.hits));
  metric o "index.glue_us_per_query" glue;
  metric o "index.minor_words_per_query" (per_query counts counts.index_words);
  metric o "hierarchical.us_per_query" hier;
  metric o "hierarchical.levels_per_query" (per_query counts (float_of_int counts.levels));
  metric o "online.us_per_query" onl;
  metric o "breaker.us_per_query" (self "breaker.search");
  metric o "breaker.fallback_ratio" (per_query counts (float_of_int counts.fallbacks));
  let traced_p50 = us (Stats.median (Spans.durations_of spans "online.search")) in
  metric o "trace.overhead_ratio" (traced_p50 /. untraced_p50);
  count o ~sent:counts.queries ~ok:counts.queries "traced";
  (* Writes: Online.insert and Durable.insert alternate on fresh objects
     (the difference is the WAL append); each insert is deleted 16
     writes later, alternating Online.delete and Durable.delete. *)
  let ins_online = Stats.Buf.create () and ins_durable = Stats.Buf.create () in
  let dels = Stats.Buf.create () in
  let pending = Queue.create () in
  let fresh = data.fresh in
  let n = ref 0 in
  let stop = now () +. (0.1 *. seconds) in
  while !n < 200 || now () < stop do
    let x = fresh.(!n mod Array.length fresh) in
    let t = now () in
    let h = if !n mod 2 = 0 then Online.insert online x else Durable.insert durable x in
    Stats.Buf.push (if !n mod 2 = 0 then ins_online else ins_durable) (now () -. t);
    Queue.push h pending;
    if Queue.length pending > 16 then begin
      let h = Queue.pop pending in
      let t = now () in
      if !n mod 2 = 0 then Online.delete online h else Durable.delete durable h;
      Stats.Buf.push dels (now () -. t)
    end;
    incr n
  done;
  count o ~sent:!n ~ok:!n "writes";
  let med b = us (Stats.median (Stats.Buf.to_array b)) in
  metric o "online.insert_us" (med ins_online);
  metric o "online.delete_us" (med dels);
  metric o "wal.append_us" (med ins_durable -. med ins_online);
  metric o "online.rebuilds" (float_of_int (Online.rebuilds online));
  metric o "online.delta_entries" (float_of_int (Online.delta_size online));
  metric o "online.tombstones" (float_of_int (Online.tombstones online));
  kernel space db queries ~seconds:(0.05 *. seconds) o;
  let protocol_us = protocol spec queries ~seconds:(0.05 *. seconds) o in
  (* The served tier over this workload's objects. *)
  let served_db = if spec.served then data.db else Array.sub data.db 0 spec.served_db in
  let rtt_p50 =
    served_probe spec ~driver ~pool ~db:served_db ~queries
      ~fresh:data.fresh ~seconds o
  in
  (* Reconciliation against the end-to-end query: in process, the
     untraced Online.search p50 against the sum of its stages' self
     times; served, the client round trip against in-process search
     plus a request and a reply frame each way. *)
  let unexplained =
    if spec.served then
      let shards_us = List.assoc "shards.search_many_us_per_query" o.metrics in
      (rtt_p50 -. (shards_us +. (2. *. protocol_us))) /. rtt_p50
    else (untraced_p50 -. (hash +. probe +. refine +. glue +. hier +. onl)) /. untraced_p50
  in
  metric o "trace.unexplained_ratio" unexplained;
  Ground_truth.mkdir_p spans_dir;
  let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" spec.name seed) in
  let oc = open_out path in
  Spans.write_jsonl spans ~origin oc;
  close_out oc;
  info o "spans" (Json.Obj [ ("file", Json.Str path); ("count", Json.Num (float_of_int (Spans.length spans))); ("dropped", Json.Num (float_of_int (Spans.dropped spans))) ])
