(* The served tier: Server.start on loopback over 2 Shards of Durable
   (fsync off), driven by the forked Driver.  Used end to end by
   served_churn and, smaller, by every workload's traced run. *)

open Common
module Shards = Dbh_serve.Shards
module Server = Dbh_serve.Server
module Admission = Dbh_serve.Admission

(* Rate limits open, queue deep, deadlines long: nothing is shed or
   truncated unless the program misbehaves. *)
let server_config =
  let admission =
    {
      Admission.default_config with
      queue_capacity = 4096;
      default_deadline = 30.;
      max_deadline = 60.;
      default_class = { Admission.rate = 1e9; burst = 1e9; max_budget = Driver.budget };
    }
  in
  { Server.default_config with admission }

let open_rate = 200.
let shard_count = 2

let open_shards (spec : 'a Workload.spec) ~dir db =
  fst
    (Shards.open_or_create ~fsync:false ~build:Workload.small_config ~seed:Workload.dataset_seed
       ~shards:shard_count
       ~target_accuracy:Workload.target_accuracy ~space:spec.space ~encode:spec.encode
       ~decode:spec.decode ~dir ~data:db ())

(* What the churn did so far: the fresh object behind each handle the
   driver inserted, and when each of its deletes was acknowledged. *)
type churn = { inserted : (int, int) Hashtbl.t; deleted : (int, float) Hashtbl.t }

let churn () = { inserted = Hashtbl.create 1024; deleted = Hashtbl.create 1024 }

(* What a phase's answers are held to, beyond the per-answer checks. *)
type expect =
  | Quiet  (** the first pass, before any churn *)
  | Churn of Driver.found array
      (** found whenever the quiet pass found.  Not "no farther than the
          quiet pass": an insert within a level's distance threshold can
          stop the hierarchical search a level early, and the shards'
          merge then returns it, so a closer database object found one
          level down is legitimately missed. *)
  | Settled of Driver.found array  (** the quiet pass's answers, to the bit *)

(* Check every search answer of a phase.  The handle re-read through
   Shards.get (or, once deleted, the object the driver inserted under
   it) must give the reported distance under the reference kernel, and
   must not have been returned after its delete was acknowledged — so
   every answer is a live object at its true distance, never below the
   exact nearest neighbor of what was live. *)
let check_found (spec : 'a Workload.spec) shards ~queries ~fresh churn ~expect
    (found : Driver.found array) notes =
  let wrong = ref 0 in
  let bad msg =
    incr wrong;
    notes msg
  in
  Array.iter
    (fun (f : Driver.found) ->
      (if f.handle >= 0 then
         let obj =
           match Shards.get shards f.handle with
           | x -> Some x
           | exception Invalid_argument _ ->
               Option.map (fun fi -> fresh.(fi)) (Hashtbl.find_opt churn.inserted f.handle)
         in
         match obj with
         | None -> bad (Printf.sprintf "query %d: handle %d unknown" f.query f.handle)
         | Some x -> (
             let d = spec.reference queries.(f.query) x in
             if not (Reference.agrees ~reference:d f.dist) then
               bad (Printf.sprintf "query %d: reported %h, reference %h" f.query f.dist d)
             else
               match Hashtbl.find_opt churn.deleted f.handle with
               | Some t when t < f.sent ->
                   bad (Printf.sprintf "query %d: handle %d returned after its delete" f.query f.handle)
               | _ -> ()));
      match expect with
      | Quiet -> ()
      | Churn b ->
          if f.handle < 0 && b.(f.query).handle >= 0 then
            bad (Printf.sprintf "query %d: answer lost under churn" f.query)
      | Settled b ->
          let b = b.(f.query) in
          if b.handle <> f.handle || not (Int64.equal (Int64.bits_of_float b.dist) (Int64.bits_of_float f.dist))
          then bad (Printf.sprintf "query %d: answer after the churn differs from the quiet pass's" f.query))
    found;
  !wrong

(* Run [f] with a server over [shards]; always stops it. *)
let with_server ~pool (spec : 'a Workload.spec) shards f =
  let server = Server.start ~pool ~decode:spec.decode server_config shards in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

(* Run one phase and account for it. *)
let phase o (spec : 'a Workload.spec) shards ~driver ~port ~queries ~fresh churn ~expect name p =
  let r : Driver.report = Driver.run driver ~port p in
  Array.iter (fun (h, fi) -> Hashtbl.replace churn.inserted h fi) r.inserted;
  Array.iter (fun (h, t) -> Hashtbl.replace churn.deleted h t) r.deleted;
  let wrong = check_found spec shards ~queries ~fresh churn ~expect r.found (wrong o) in
  count o ~shed:r.shed ~timed_out:r.timed_out ~truncated:r.truncated ~errors:r.errors ~wrong
    ~sent:r.sent ~ok:r.ok name;
  r

let by_query ~queries (r : Driver.report) =
  let a =
    Array.make (Array.length queries)
      { Driver.query = -1; handle = -1; dist = nan; cost = 0; sent = 0. }
  in
  Array.iter (fun (f : Driver.found) -> a.(f.query) <- f) r.found;
  a

(* The quiet pass: every query once, before any churn.  Its answers are
   the baseline later phases are held to. *)
let verify o spec shards ~driver ~port ~queries ~fresh churn =
  by_query ~queries
    (phase o spec shards ~driver ~port ~queries ~fresh churn ~expect:Quiet "verify" Driver.Verify)

(* After the churn: delete every object the driver inserted and still
   holds, then ask every query again.  Tombstoned objects are never
   candidates and the size never moves far enough to rebuild, so each
   shard searches exactly what the quiet pass searched. *)
let settle o spec shards ~driver ~port ~queries ~fresh churn ~baseline =
  let live =
    Hashtbl.fold (fun h _ acc -> if Hashtbl.mem churn.deleted h then acc else h :: acc) churn.inserted []
  in
  let run = phase o spec shards ~driver ~port ~queries ~fresh churn in
  ignore (run ~expect:Quiet "cleanup" (Driver.Cleanup (Array.of_list (List.sort compare live))));
  ignore (run ~expect:(Settled baseline) "settled" Driver.Verify)

type sample = {
  setup : float;
  heap : float;
  recall : float;
  dists : float;
  closed_ok : int;
  closed_time : float;
  piped_ok : int;
  piped_time : float;
  searches : float array;  (** closed loop, seconds from send *)
  inserts : float array;  (** closed loop, seconds from send *)
  open_searches : float array;  (** open loop, seconds from due time *)
  late : float array;  (** open loop, send time - due time *)
}

let rep (spec : 'a Workload.spec) (data : 'a Workload.data) ~seconds ~driver ~index =
  let o = outcome () in
  let queries = data.queries and fresh = data.fresh in
  Dbh_util.Pool.with_pool ~domains:(Machine.nproc ()) @@ fun pool ->
  let exact =
    Ground_truth.exact_nn ~pool ~workload:spec.name ~encode:spec.encode ~reference:spec.reference
      data.db queries
  in
  let dir = work_dir (Printf.sprintf "%s-%d" spec.name index) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Gc.compact ();
  let shards, setup = time (fun () -> open_shards spec ~dir data.db) in
  let heap = heap_mb () in
  with_server ~pool spec shards @@ fun server ->
  let port = Server.port server in
  let churn = churn () in
  let baseline = verify o spec shards ~driver ~port ~queries ~fresh churn in
  let hits = ref 0 and cost = ref 0 in
  Array.iteri
    (fun qi (f : Driver.found) ->
      cost := !cost + f.cost;
      if f.handle >= 0 && is_exact ~exact:exact.(qi) f.dist then incr hits)
    baseline;
  let nq = float_of_int (Array.length queries) in
  let phase = phase o spec shards ~driver ~port ~queries ~fresh churn ~expect:(Churn baseline) in
  ignore (phase "warmup" (Driver.Closed { window = 1; seconds = 0.3 }));
  let closed = phase "closed_loop" (Driver.Closed { window = 1; seconds = 0.3 *. seconds }) in
  let piped = phase "pipelined" (Driver.Closed { window = 8; seconds = 0.2 *. seconds }) in
  let opened = phase "open_loop" (Driver.Open { rate = open_rate; seconds = 0.5 *. seconds }) in
  settle o spec shards ~driver ~port ~queries ~fresh churn ~baseline;
  ( o,
    {
      setup;
      heap;
      recall = float_of_int !hits /. nq;
      dists = float_of_int !cost /. nq;
      closed_ok = closed.ok;
      closed_time = closed.elapsed;
      piped_ok = piped.ok;
      piped_time = piped.elapsed;
      searches = closed.search_lat;
      inserts = closed.insert_lat;
      open_searches = opened.search_lat;
      late = opened.late;
    } )

let run (spec : 'a Workload.spec) (data : 'a Workload.data) ~seconds ~reps ~driver o =
  let samples =
    List.init reps (fun index ->
        let child, s =
          Fork.in_child (fun () ->
              rep spec data ~seconds:(seconds /. float_of_int reps) ~driver ~index)
        in
        absorb o ~index child;
        s)
  in
  let s0 = List.hd samples in
  if List.exists (fun s -> s.recall <> s0.recall || s.dists <> s0.dists) samples then
    wrong o "repeated seeded builds answered differently";
  let per f = List.map f samples in
  metric o "setup_s" (median_of (per (fun s -> s.setup)));
  metric o "heap_mb" (median_of (per (fun s -> s.heap)));
  metric o "recall_at_1" s0.recall;
  metric o "dists_per_query" s0.dists;
  metric o "qps" (median_of (per (fun s -> float_of_int s.closed_ok /. s.closed_time)));
  metric o "batch_qps" (median_of (per (fun s -> float_of_int s.piped_ok /. s.piped_time)));
  (* Gated latencies come from the closed loop: timed from the due time,
     the open loop's queueing turns a few ms of host CPU steal into tens
     of ms, so its figures go on the run line. *)
  metric o "query_p50_us" (chunked_us (per (fun s -> s.searches)) 50.);
  metric o "query_p90_us" (chunked_us (per (fun s -> s.searches)) 90.);
  info o "query_p99_us" (Json.Num (chunked_us (per (fun s -> s.searches)) 99.));
  chunk_spread o "query" (per (fun s -> s.searches));
  metric o "insert_p50_us" (chunked_us (per (fun s -> s.inserts)) 50.);
  metric o "insert_p90_us" (chunked_us (per (fun s -> s.inserts)) 90.);
  info o "insert_p99_us" (Json.Num (chunked_us (per (fun s -> s.inserts)) 99.));
  let open_us p = Json.Num (chunked_us (per (fun s -> s.open_searches)) p) in
  info o "open_loop"
    (Json.Obj
       [
         ("rate", Json.Num open_rate);
         ("searches", Json.Num (float_of_int (List.fold_left (fun n s -> n + Array.length s.open_searches) 0 samples)));
         ("p50_us", open_us 50.);
         ("p90_us", open_us 90.);
         ("p99_us", open_us 99.);
         ("late_p99_us", Json.Num (chunked_us (per (fun s -> s.late)) 99.));
       ])
