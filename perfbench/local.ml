(* End-to-end run of an in-process workload (l2_read, dtw_read):
   Online.create on a pool, then one closed-loop caller through
   Online.search with default options, pooled Online.search_batch, and
   steady-state inserts.  Each repetition runs in its own process. *)

open Common
module Online = Dbh.Online
module Rng = Dbh_util.Rng

type sample = {
  setup : float;
  heap : float;
  latencies : float array;  (** single caller, seconds *)
  batches : float array;  (** seconds per pooled search_batch call *)
  inserts : float array;  (** seconds *)
  recall : float;
  dists : float;
}

let rep (spec : 'a Workload.spec) (data : 'a Workload.data) ~seconds ~reps =
  let o = outcome () in
  let floor = (min_samples + reps - 1) / reps in
  Dbh_util.Pool.with_pool ~domains:(Machine.nproc ()) @@ fun pool ->
  let space = spec.space in
  let queries = data.queries in
  let nq = Array.length queries in
  let exact =
    Ground_truth.exact_nn ~pool ~workload:spec.name ~encode:spec.encode ~reference:spec.reference
      data.db queries
  in
  Gc.compact ();
  let online, setup =
    time (fun () ->
        Online.create ~pool ~rng:(Rng.create Workload.dataset_seed) ~space ~config:spec.config
          ~target_accuracy:Workload.target_accuracy data.db)
  in
  let heap = heap_mb () in
  for i = 0 to min nq 100 - 1 do
    ignore (Online.search online queries.(i))
  done;
  (* One closed-loop caller.  The first pass over the queries always
     completes; its answers give recall and distances per query. *)
  let lat = Stats.Buf.create () in
  let answers = Array.make nq None in
  let n = ref 0 and ok = ref 0 and truncated = ref 0 in
  let stop = now () +. (0.6 *. seconds) in
  while !n < nq || !n < floor || now () < stop do
    let qi = !n mod nq in
    let t = now () in
    let r = Online.search online queries.(qi) in
    Stats.Buf.push lat (now () -. t);
    if r.nn <> None then incr ok;
    if r.truncated then incr truncated;
    if !n < nq then answers.(qi) <- Some r;
    incr n
  done;
  let singles = !n in
  let answers = Array.map Option.get answers in
  let wrong_single = ref 0 and hits = ref 0 and cost = ref 0 in
  let bad msg =
    incr wrong_single;
    wrong o msg
  in
  Array.iteri
    (fun qi (r : _ Online.result) ->
      cost := !cost + Dbh.Index.total_cost r.stats;
      match r.nn with
      | None -> ()
      | Some (h, d) ->
          let d' = spec.reference queries.(qi) (Online.get online h) in
          if not (Reference.agrees ~reference:d' d) then
            bad (Printf.sprintf "query %d: reported %h, reference %h" qi d d')
          else if d < exact.(qi) && not (is_exact ~exact:d exact.(qi)) then
            bad (Printf.sprintf "query %d: distance %h below the exact NN %h" qi d exact.(qi))
          else if is_exact ~exact:exact.(qi) d then incr hits)
    answers;
  count o ~truncated:!truncated ~wrong:!wrong_single ~sent:singles ~ok:!ok "single_caller";
  (* Pooled batches.  The first (untimed) batch must match the single
     caller's answers bit for bit. *)
  let wrong_batch = ref 0 in
  Array.iteri
    (fun qi (r : _ Online.result) ->
      let s = answers.(qi) in
      if not (same_nn r.nn s.nn && r.stats = s.stats && r.truncated = s.truncated) then begin
        incr wrong_batch;
        wrong o (Printf.sprintf "query %d: pooled batch answer differs from the single caller's" qi)
      end)
    (Online.search_batch online queries);
  let nb = ref 0 and ok_b = ref 0 and trunc_b = ref 0 in
  let batches = Stats.Buf.create () in
  let stop = now () +. (0.4 *. seconds) in
  while !nb = 0 || now () < stop do
    let t = now () in
    let rs = Online.search_batch online queries in
    Stats.Buf.push batches (now () -. t);
    Array.iter
      (fun (r : _ Online.result) ->
        if r.nn <> None then incr ok_b;
        if r.truncated then incr trunc_b)
      rs;
    nb := !nb + nq
  done;
  count o ~truncated:!trunc_b ~wrong:!wrong_batch ~sent:!nb ~ok:!ok_b "pooled_batch";
  (* Steady-state inserts of fresh objects, each deleted 16 inserts
     later so the size (and the rebuild trigger) stays put. *)
  let count_inserts = (spec.inserts + reps - 1) / reps in
  let fresh = data.fresh in
  let ins = Stats.Buf.create () in
  let pending = Queue.create () in
  let n = ref 0 in
  while !n < count_inserts do
    let x = fresh.(!n mod Array.length fresh) in
    let t = now () in
    let h = Online.insert online x in
    Stats.Buf.push ins (now () -. t);
    Queue.push h pending;
    if Queue.length pending > 16 then Online.delete online (Queue.pop pending);
    incr n
  done;
  count o ~sent:!n ~ok:!n "inserts";
  if Online.rebuilds online > 0 then wrong o "the insert phase triggered a rebuild";
  ( o,
    {
      setup;
      heap;
      latencies = Stats.Buf.to_array lat;
      batches = Stats.Buf.to_array batches;
      inserts = Stats.Buf.to_array ins;
      recall = float_of_int !hits /. float_of_int nq;
      dists = float_of_int !cost /. float_of_int nq;
    } )

let run (spec : 'a Workload.spec) (data : 'a Workload.data) ~seconds ~reps o =
  let samples =
    List.init reps (fun index ->
        let child, s = Fork.in_child (fun () -> rep spec data ~seconds:(seconds /. float_of_int reps) ~reps) in
        absorb o ~index child;
        s)
  in
  let s0 = List.hd samples in
  if List.exists (fun s -> s.recall <> s0.recall || s.dists <> s0.dists) samples then
    wrong o "repeated seeded builds answered differently";
  (* Medians over processes, over chunks of the single caller's
     latencies, or over batch calls. *)
  let per f = List.map f samples in
  metric o "setup_s" (median_of (per (fun s -> s.setup)));
  metric o "heap_mb" (median_of (per (fun s -> s.heap)));
  metric o "query_p50_us" (chunked_us (per (fun s -> s.latencies)) 50.);
  metric o "query_p90_us" (chunked_us (per (fun s -> s.latencies)) 90.);
  info o "query_p99_us" (Json.Num (chunked_us (per (fun s -> s.latencies)) 99.));
  chunk_spread o "query" (per (fun s -> s.latencies));
  metric o "qps" (Stats.chunked_rate ~size:chunk (per (fun s -> s.latencies)));
  metric o "batch_qps"
    (float_of_int (Array.length data.queries)
    /. Stats.median (Array.concat (per (fun s -> s.batches))));
  metric o "recall_at_1" s0.recall;
  metric o "dists_per_query" s0.dists;
  metric o "insert_p50_us" (chunked_us (per (fun s -> s.inserts)) 50.);
  metric o "insert_p90_us" (chunked_us (per (fun s -> s.inserts)) 90.);
  info o "insert_p99_us" (Json.Num (chunked_us (per (fun s -> s.inserts)) 99.))
