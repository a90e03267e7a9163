module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Binio = Dbh_util.Binio

type stats = {
  hash_cost : int;
  lookup_cost : int;
  probes : int;
}

let total_cost s = s.hash_cost + s.lookup_cost

let add_stats a b =
  {
    hash_cost = a.hash_cost + b.hash_cost;
    lookup_cost = a.lookup_cost + b.lookup_cost;
    probes = a.probes + b.probes;
  }

type 'a result = {
  nn : (int * float) option;
  stats : stats;
  truncated : bool;
  levels_probed : int;
}

(* One metrics recording per completed query, from the query's own
   stats — never from raw distance calls — so the counters are logical:
   dbh_distance_computations_total is exactly the sum of per-query
   total_cost, whatever the domain count, and build/baseline distances
   never leak in.  Shared by every serving entry point (single-level,
   cascade, breaker fallback). *)
let observe_query ?metrics ?seconds ?(cache_hits = 0) ?nn_distance ~(stats : stats)
    ~truncated ~levels_probed () =
  match Dbh_obs.Metrics.resolve metrics with
  | None -> ()
  | Some m ->
      let module R = Dbh_obs.Registry in
      R.inc m.Dbh_obs.Metrics.queries_total;
      if truncated then R.inc m.Dbh_obs.Metrics.queries_truncated_total;
      R.add m.Dbh_obs.Metrics.distance_computations_total (total_cost stats);
      R.add m.Dbh_obs.Metrics.hash_distance_computations_total stats.hash_cost;
      R.add m.Dbh_obs.Metrics.lookup_distance_computations_total stats.lookup_cost;
      R.add m.Dbh_obs.Metrics.bucket_probes_total stats.probes;
      R.add m.Dbh_obs.Metrics.levels_probed_total levels_probed;
      R.add m.Dbh_obs.Metrics.pivot_cache_misses_total stats.hash_cost;
      R.add m.Dbh_obs.Metrics.pivot_cache_hits_total cache_hits;
      R.observe m.Dbh_obs.Metrics.query_cost (float_of_int (total_cost stats));
      (match nn_distance with
      | Some d -> R.observe m.Dbh_obs.Metrics.query_nn_distance d
      | None -> ());
      (match seconds with Some s -> R.observe m.Dbh_obs.Metrics.query_seconds s | None -> ())

type 'a t = {
  family : 'a Hash_family.t;
  store : 'a Store.t;
  k : int;
  l : int;
  fn_ids : int array array;  (* l rows of k function indices *)
  distinct_fns : int array;  (* deduplicated function indices *)
  fn_slots : int array array;  (* fn_ids mapped to positions in distinct_fns *)
  tables : Csr.t array;  (* frozen CSR base + insert delta, one per row *)
}

let k t = t.k
let l t = t.l
let store t = t.store
let family t = t.family
let size t = Store.alive_count t.store

let distinct_of fn_ids =
  let seen = Hashtbl.create 64 in
  Array.iter (Array.iter (fun id -> Hashtbl.replace seen id ())) fn_ids;
  Array.of_seq (Hashtbl.to_seq_keys seen)

let slots_of fn_ids distinct_fns =
  let slot = Hashtbl.create (Array.length distinct_fns) in
  Array.iteri (fun i fn_id -> Hashtbl.replace slot fn_id i) distinct_fns;
  Array.map (Array.map (Hashtbl.find slot)) fn_ids

(* Evaluate every distinct function once, in [distinct_fns] order (so
   cache misses and hash_cost never depend on the caller), into a byte
   row indexed by slot. *)
let eval_bits family distinct_fns cache bits =
  Array.iteri
    (fun i fn_id ->
      Bytes.unsafe_set bits i
        (if Hash_family.eval family cache fn_id then '\001' else '\000'))
    distinct_fns

(* Pack one table's k bits, read from the row [eval_bits] filled. *)
let key_of_slots slots bits : Key.t =
  let key = ref Key.zero in
  for j = 0 to Array.length slots - 1 do
    key := Key.push_bit !key (Bytes.unsafe_get bits (Array.unsafe_get slots j) <> '\000')
  done;
  !key

(* Per-bit flip margins, filled after [eval_bits]: every projection the
   margins need was just computed through the same cache, so this costs
   zero additional distance computations (and charges no budget). *)
let eval_margins t cache margins =
  Array.iteri
    (fun i fn_id -> margins.(i) <- Hash_family.margin t.family cache fn_id)
    t.distinct_fns

(* All l bucket keys of one hashed object. *)
let keys_of_cache ~family ~distinct_fns ~fn_slots cache =
  let bits = Bytes.create (Array.length distinct_fns) in
  eval_bits family distinct_fns cache bits;
  Array.map (fun slots -> key_of_slots slots bits) fn_slots

let insert_id t cache id =
  Array.iteri
    (fun row (key : Key.t) -> Csr.add t.tables.(row) (key :> int) id)
    (keys_of_cache ~family:t.family ~distinct_fns:t.distinct_fns ~fn_slots:t.fn_slots cache)

(* All l bucket keys of one object, through a private distance cache —
   pure given the store and pivot table, so it can run on any domain. *)
let keys_of_id ~family ~store ~distinct_fns ~fn_slots pivot_table id =
  let cache =
    match pivot_table with
    | Some table -> Hash_family.cache_with_distances family (Store.get store id) table.(id)
    | None -> Hash_family.cache family (Store.get store id)
  in
  keys_of_cache ~family ~distinct_fns ~fn_slots cache

let build_on ?pool ~rng ~family ~store ?pivot_table ~k ~l () =
  (try Key.check_width k
   with Invalid_argument _ ->
     invalid_arg (Printf.sprintf "Index.build: k must be in [1, %d]" Key.max_bits));
  if l < 1 then invalid_arg "Index.build: l must be >= 1";
  if Store.length store = 0 then invalid_arg "Index.build: empty database";
  (match pivot_table with
  | Some table when Array.length table <> Store.length store ->
      invalid_arg "Index.build: pivot_table length mismatch"
  | _ -> ());
  let fn_ids = Array.init l (fun _ -> Hash_family.sample_fn_indices ~rng family k) in
  let distinct_fns = distinct_of fn_ids in
  let fn_slots = slots_of fn_ids distinct_fns in
  let n = Store.length store in
  (* Build cons-list buckets first (ascending id order, so each list ends
     up newest-first exactly as the incremental tables always were), then
     freeze every row into CSR form. *)
  let buckets = Array.init l (fun _ -> Hashtbl.create n) in
  let push row key id =
    let bucket = try Hashtbl.find buckets.(row) key with Not_found -> [] in
    Hashtbl.replace buckets.(row) key (id :: bucket)
  in
  let keys_of = keys_of_id ~family ~store ~distinct_fns ~fn_slots pivot_table in
  (match pool with
  | None ->
      for id = 0 to n - 1 do
        if Store.is_alive store id then
          Array.iteri (fun row (key : Key.t) -> push row (key :> int) id) (keys_of id)
      done
  | Some pool ->
      (* Hashing dominates the build cost and is pure per object, so it
         fans out; insertion then replays sequentially in ascending id
         order, reproducing the sequential bucket lists exactly. *)
      let keys = Array.make n [||] in
      let space = Hash_family.space family in
      let cost =
        if Space.has_item_cost space then
          Some
            (fun id ->
              if Store.is_alive store id then Space.item_cost space (Store.get store id) else 1)
        else None
      in
      Dbh_util.Pool.parallel_for ?cost pool n (fun id ->
          if Store.is_alive store id then keys.(id) <- keys_of id);
      for id = 0 to n - 1 do
        Array.iteri (fun row (key : Key.t) -> push row (key :> int) id) keys.(id)
      done);
  {
    family;
    store;
    k;
    l;
    fn_ids;
    distinct_fns;
    fn_slots;
    tables = Array.map Csr.freeze buckets;
  }

let build ?pool ~rng ~family ~db ?pivot_table ~k ~l () =
  build_on ?pool ~rng ~family ~store:(Store.of_array db) ?pivot_table ~k ~l ()

(* O(1): maintained by the CSR tables (dead entries included, exactly as
   the list buckets counted before). *)
let bucket_count t = Array.fold_left (fun acc tbl -> acc + Csr.bucket_count tbl) 0 t.tables

let largest_bucket t =
  Array.fold_left (fun acc tbl -> max acc (Csr.largest_bucket tbl)) 0 t.tables

let delta_size t = Array.fold_left (fun acc tbl -> acc + Csr.delta_size tbl) 0 t.tables
let approx_table_words t =
  Array.fold_left (fun acc tbl -> acc + Csr.approx_words tbl) 0 t.tables

let compact t =
  let is_alive = Store.is_alive t.store in
  Array.iter (fun tbl -> Csr.compact ~is_alive tbl) t.tables

(* Pure counterpart for atomic publication: fresh tables, everything
   else (store, family, function choices) shared. *)
let compacted t =
  let is_alive = Store.is_alive t.store in
  { t with tables = Array.map (Csr.compacted ~is_alive) t.tables }

let iter_buckets t f =
  Array.iteri (fun row tbl -> Csr.iter_buckets tbl (fun key ids -> f row key ids)) t.tables

(* --------------------------------------------------------------- queries *)

let check_probe_knobs ~probes ~radius =
  if probes < 1 then invalid_arg "Index: probes_per_table must be >= 1";
  if radius < 0 || radius > Key.max_radius then
    invalid_arg
      (Printf.sprintf "Index: hamming_radius must be in [0, %d]" Key.max_radius)

let record_probe trace ~level ~row table key =
  match trace with
  | Some tr ->
      Dbh_obs.Trace.record tr
        (Dbh_obs.Trace.Bucket_probe
           { level; table = row; key; found = Csr.bucket_size table key })
  | None -> ()

(* The extra-probe engine, shared by every query path.  After the base
   buckets, each table probes up to [probes - 1] Hamming-adjacent keys
   within [radius] bit flips of its base key.  When the probe budget
   covers the whole radius ball the keys are served by code-only range
   scans over the sorted directory (one scan per consecutive-key run);
   otherwise the probe heap emits keys one by one in increasing
   flip-penalty order, cheapest bits — the projections that landed
   nearest their thresholds — first.  Margins reuse the pivot distances
   [eval_bits] already cached, so extra probes cost zero additional
   hash distance computations.  [counter] counts probed buckets: one
   per emitted key on the heap path, the full ball (claimed upfront) on
   the range path. *)
let probe_extras ~trace ~level t cache scratch bits ~probes ~radius ~counter visit =
  let extra = probes - 1 in
  let margins = Scratch.margin_row scratch (Array.length t.distinct_fns) in
  eval_margins t cache margins;
  let ball = Key.ball_size ~width:t.k ~radius in
  let ps = Scratch.probe_seq scratch in
  for row = 0 to t.l - 1 do
    let base = key_of_slots t.fn_slots.(row) bits in
    let table = t.tables.(row) in
    if extra >= ball then begin
      counter := !counter + ball;
      match trace with
      | None ->
          Csr.iter_within table ~width:t.k ~radius (base :> int) (fun _ id -> visit id)
      | Some _ ->
          (* The range scan only surfaces non-empty keys; record one
             probe event per distinct key it visits. *)
          let last = ref min_int in
          Csr.iter_within table ~width:t.k ~radius (base :> int) (fun key id ->
              if key <> !last then begin
                last := key;
                record_probe trace ~level ~row table key
              end;
              visit id)
    end
    else begin
      let slots = t.fn_slots.(row) in
      let penalty j = margins.(Array.unsafe_get slots j) in
      Probe_seq.generate ps ~base ~width:t.k ~radius ~max_probes:extra ~penalty
        ~emit:(fun pk ->
          incr counter;
          record_probe trace ~level ~row table (pk :> int);
          Csr.iter_bucket table (pk :> int) visit)
    end
  done

(* Mark this index's fresh alive candidates below [limit].  Base probes
   are claimed before any hash evaluation — the historical accounting: a
   budget that dies inside [eval_bits] still counts this index's l
   probes. *)
let mark_candidates ~trace ~level ~limit ~probes ~radius ~probed t cache scratch =
  probed := !probed + t.l;
  let bits = Scratch.bit_row scratch (Array.length t.distinct_fns) in
  eval_bits t.family t.distinct_fns cache bits;
  let visit id =
    if id < limit && Store.is_alive t.store id then ignore (Scratch.mark scratch id)
  in
  for row = 0 to t.l - 1 do
    let key = (key_of_slots t.fn_slots.(row) bits :> int) in
    record_probe trace ~level ~row t.tables.(row) key;
    Csr.iter_bucket t.tables.(row) key visit
  done;
  if probes > 1 && radius > 0 then
    probe_extras ~trace ~level t cache scratch bits ~probes ~radius ~counter:probed visit

let candidates_into ?trace ?(level = 0) ?(limit = max_int) ?(probes = 1) ?(radius = 0)
    ?probe_counter t cache ~scratch =
  check_probe_knobs ~probes ~radius;
  (* The live store length can exceed the capacity the caller ensured
     when a writer inserts mid-query; admission is bounded by [limit]
     then, so only the visible prefix must fit the mask. *)
  if Scratch.capacity scratch < min limit (Store.length t.store) then
    invalid_arg "Index.candidates_into: scratch smaller than the store";
  let probed = match probe_counter with Some c -> c | None -> ref 0 in
  mark_candidates ~trace ~level ~limit:(min limit (Scratch.capacity scratch)) ~probes ~radius
    ~probed t cache scratch

type accumulator =
  | Nearest
  | Top_k of int Dbh_util.Bounded_heap.t
  | Within of float * (int * float) list ref

type 'a query = {
  q : 'a;
  db : 'a Store.t;
  distance : 'a -> 'a -> float;
  budget : Budget.t option;
  trace : Dbh_obs.Trace.t option;
  acc : accumulator;
  probed : int ref;
  mutable levels : int;
  mutable lookup : int;
  mutable best_id : int;
  mutable best_d : float;
}

(* The one candidate-refine step: every walk over the scratch — the
   single-level probe loop, each cascade level, top-k and range — feeds
   its candidates through here.  The budget is charged before the
   distance is computed, so the spend never exceeds the limit. *)
let refine r id =
  (match r.budget with Some b -> Budget.charge b | None -> ());
  r.lookup <- r.lookup + 1;
  let d = r.distance r.q (Store.get r.db id) in
  let improved = d < r.best_d in
  (match r.trace with
  | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Candidate { id; distance = d; improved })
  | None -> ());
  if improved then begin
    r.best_id <- id;
    r.best_d <- d
  end;
  match r.acc with
  | Nearest -> ()
  | Top_k heap -> ignore (Dbh_util.Bounded_heap.push heap d id)
  | Within (radius, hits) -> if d <= radius then hits := (id, d) :: !hits

(* Mark one index's fresh candidates, then refine them newest mark
   first.  Tie-breaking between equal distances depends on this order,
   and the golden storage fixture pins it. *)
let refine_fresh ~level ~limit ~probes ~radius t cache scratch r =
  let start = Scratch.count scratch in
  mark_candidates ~trace:r.trace ~level ~limit ~probes ~radius ~probed:r.probed t cache
    scratch;
  for i = Scratch.count scratch - 1 downto start do
    refine r (Scratch.get scratch i)
  done

(* The query pipeline around every walk: Query_start, the domain's
   scratch, the pivot-distance cache, the walk under the budget, then
   stats, Query_done and one metrics recording.  [walk] sees the ids
   visible when the query started ([limit]: the store length, capped by
   the caller's published bound), so ids a racing writer appends are
   never admitted.  Trace events are recorded only behind a [match] on
   the trace option, so the untraced path allocates nothing for them. *)
let run (opts : Query_opts.t) ~kind ~family ~store ~limit ~acc q walk =
  let budget = Option.map Budget.create opts.budget in
  let trace = opts.trace in
  let metrics = Dbh_obs.Metrics.resolve opts.metrics in
  let t0 = match metrics with Some _ -> Dbh_obs.Metrics.now () | None -> 0. in
  (match trace with
  | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Query_start { kind = kind () })
  | None -> ());
  Scratch.with_local (fun scratch ->
      let limit = min limit (Store.length store) in
      Scratch.ensure scratch limit;
      let cache =
        Hash_family.cache_in ?budget ?trace family
          ~dists:(Scratch.pivot_dists scratch (Hash_family.num_pivots family))
          q
      in
      let r =
        {
          q;
          db = store;
          distance = (Hash_family.space family).Space.distance;
          budget;
          trace;
          acc;
          probed = ref 0;
          levels = 0;
          lookup = 0;
          best_id = -1;
          best_d = infinity;
        }
      in
      (try walk scratch cache ~limit r
       with Budget.Exhausted -> (
         match (trace, budget) with
         | Some tr, Some b ->
             Dbh_obs.Trace.record tr (Dbh_obs.Trace.Budget_exhausted { spent = Budget.spent b })
         | _ -> ()));
      let truncated = match budget with Some b -> Budget.exhausted b | None -> false in
      let stats =
        { hash_cost = Hash_family.cache_cost cache; lookup_cost = r.lookup; probes = !(r.probed) }
      in
      (match trace with
      | Some tr ->
          Dbh_obs.Trace.record tr
            (Dbh_obs.Trace.Query_done
               {
                 hash_cost = stats.hash_cost;
                 lookup_cost = stats.lookup_cost;
                 probes = stats.probes;
                 levels_probed = r.levels;
                 truncated;
               })
      | None -> ());
      let nn = if r.best_id < 0 then None else Some (r.best_id, r.best_d) in
      let seconds =
        match metrics with Some _ -> Some (Dbh_obs.Metrics.now () -. t0) | None -> None
      in
      observe_query ?metrics ?seconds ~cache_hits:(Hash_family.cache_hits cache)
        ?nn_distance:(match acc with Nearest -> Option.map snd nn | _ -> None)
        ~stats ~truncated ~levels_probed:r.levels ();
      { nn; stats; truncated; levels_probed = r.levels })

(* The one pooled batch runner behind every layer's [search_batch]:
   metrics resolved once and shared (their counters are atomic), the
   trace dropped (traces are single-domain by design), a fresh budget
   per query (each [query] call builds its own from [opts.budget]), and
   the queries chunked by estimated cost across [opts.pool]. *)
let run_batch ~space query (opts : Query_opts.t) qs =
  let opts = { opts with metrics = Dbh_obs.Metrics.resolve opts.metrics; trace = None } in
  match opts.pool with
  | None -> Array.map (query opts) qs
  | Some pool ->
      Dbh_util.Pool.parallel_map_array ?cost:(Space.cost_estimator space qs) pool (query opts) qs

(* The single-level walk: buckets are probed row by row and candidates
   refined as they are marked (equivalent to collecting the union first:
   the candidate set, lookup cost and best answer are identical), so
   that when a budget runs out mid-query the best-so-far over everything
   already paid for is returned, with only the rows reached counted as
   probed. *)
let nearest (opts : Query_opts.t) t q =
  let probes = opts.probes_per_table and radius = opts.hamming_radius in
  check_probe_knobs ~probes ~radius;
  run opts ~family:t.family ~store:t.store ~limit:max_int ~acc:Nearest q
    ~kind:(fun () -> Printf.sprintf "index(k=%d,l=%d)" t.k t.l)
    (fun scratch cache ~limit r ->
      r.levels <- 1;
      let bits = Scratch.bit_row scratch (Array.length t.distinct_fns) in
      eval_bits t.family t.distinct_fns cache bits;
      (* One visitor closure for the whole query: allocating it inside
         the row loop would cost a closure per probe. *)
      let visit id =
        if id < limit && Store.is_alive t.store id && Scratch.mark scratch id then refine r id
      in
      for row = 0 to t.l - 1 do
        incr r.probed;
        let key = (key_of_slots t.fn_slots.(row) bits :> int) in
        record_probe r.trace ~level:0 ~row t.tables.(row) key;
        Csr.iter_bucket t.tables.(row) key visit
      done;
      if probes > 1 && radius > 0 then
        probe_extras ~trace:r.trace ~level:0 t cache scratch bits ~probes ~radius
          ~counter:r.probed visit)

let search ?(opts = Query_opts.default) t q = nearest opts t q

let search_batch ?(opts = Query_opts.default) t qs =
  run_batch ~space:(Hash_family.space t.family) (fun opts q -> nearest opts t q) opts qs

(* Top-k and range refine the whole candidate set newest mark first,
   with no budget (their results carry no truncation flag). *)
let refine_all ~acc (opts : Query_opts.t) t q =
  let probes = opts.probes_per_table and radius = opts.hamming_radius in
  check_probe_knobs ~probes ~radius;
  run { opts with budget = None } ~family:t.family ~store:t.store ~limit:max_int ~acc q
    ~kind:(fun () -> Printf.sprintf "index(k=%d,l=%d)" t.k t.l)
    (fun scratch cache ~limit r ->
      r.levels <- 1;
      refine_fresh ~level:0 ~limit ~probes ~radius t cache scratch r)

let query_knn ?(opts = Query_opts.default) t m q =
  if m < 1 then invalid_arg "Index.query_knn: m must be >= 1";
  let heap = Dbh_util.Bounded_heap.create m in
  let r = refine_all ~acc:(Top_k heap) opts t q in
  let sorted = Dbh_util.Bounded_heap.to_sorted_list heap |> List.map (fun (d, i) -> (i, d)) in
  (Array.of_list sorted, r.stats)

let query_range ?(opts = Query_opts.default) t radius q =
  if radius < 0. then invalid_arg "Index.query_range: negative radius";
  let hits = ref [] in
  let r = refine_all ~acc:(Within (radius, hits)) opts t q in
  (List.sort (fun (_, a) (_, b) -> compare a b) !hits, r.stats)

(* -------------------------------------------------------------- updates *)

let index_existing t id =
  if not (Store.is_alive t.store id) then invalid_arg "Index.index_existing: dead or unknown id";
  let cache = Hash_family.cache t.family (Store.get t.store id) in
  insert_id t cache id

let insert t obj =
  let id = Store.add t.store obj in
  index_existing t id;
  id

let delete t id = Store.delete t.store id

(* ----------------------------------------------------------- persistence *)

(* v1 bodies store bit-packed keys — k bits per indexed object per
   table — rather than bucket lists: for realistic (k, l) this is an
   order of magnitude smaller than naive int encoding, and buckets
   rebuild exactly from the keys.  Objects that are dead at save time are
   dropped (compaction); their ids stay reserved.  The v2 body (used by
   the packed Online.Durable snapshots) instead dumps the live CSR
   arrays directly, which loads without any re-bucketing. *)

let pack_keys buf ~k keys =
  let n = Array.length keys in
  let total_bits = n * k in
  let bytes = Bytes.make ((total_bits + 7) / 8) '\000' in
  let bit = ref 0 in
  Array.iter
    (fun key ->
      for b = k - 1 downto 0 do
        if key lsr b land 1 = 1 then begin
          let byte = !bit / 8 and off = !bit mod 8 in
          Bytes.set bytes byte (Char.chr (Char.code (Bytes.get bytes byte) lor (1 lsl off)))
        end;
        incr bit
      done)
    keys;
  Binio.write_int buf n;
  Binio.write_string buf (Bytes.to_string bytes)

let unpack_keys r ~k =
  let n = Binio.read_int r in
  if n < 0 then raise (Binio.Corrupt "negative key count");
  let data = Binio.read_string r in
  if String.length data < (n * k + 7) / 8 then raise (Binio.Corrupt "truncated key block");
  let bit = ref 0 in
  Array.init n (fun _ ->
      let key = ref 0 in
      for _ = 1 to k do
        let byte = !bit / 8 and off = !bit mod 8 in
        key := (!key lsl 1) lor (Char.code data.[byte] lsr off land 1);
        incr bit
      done;
      !key)

(* Ids this index holds, alive only, ascending; every indexed object
   appears in every table, so membership of the first table suffices. *)
let present_ids t =
  let members = Hashtbl.create 256 in
  Csr.iter_buckets t.tables.(0) (fun key bucket ->
      List.iter
        (fun id -> if Store.is_alive t.store id then Hashtbl.replace members id key)
        bucket);
  let ids = Array.of_seq (Hashtbl.to_seq_keys members) in
  Array.sort compare ids;
  ids

let keys_of_table table ids =
  let key_of = Hashtbl.create (Array.length ids) in
  Csr.iter_buckets table (fun key bucket ->
      List.iter (fun id -> Hashtbl.replace key_of id key) bucket);
  Array.map
    (fun id ->
      match Hashtbl.find_opt key_of id with
      | Some key -> key
      | None -> raise (Invalid_argument "Index.write: object missing from a table"))
    ids

let write_fn_ids buf t =
  Binio.write_int buf t.k;
  Binio.write_int buf t.l;
  Array.iter (fun row -> Binio.write_int_array buf row) t.fn_ids

let read_fn_ids ~family r =
  let k = Binio.read_int r in
  let l = Binio.read_int r in
  if k < 1 || k > Key.max_bits || l < 1 || l > Binio.remaining r then
    raise (Binio.Corrupt "invalid k or l");
  let fn_ids =
    Array.init l (fun _ ->
        let row = Binio.read_int_array r in
        if Array.length row <> k then raise (Binio.Corrupt "bad fn row length");
        Array.iter
          (fun id ->
            if id < 0 || id >= Hash_family.size family then
              raise (Binio.Corrupt "function id out of range"))
          row;
        row)
  in
  (k, l, fn_ids)

let write_body buf t =
  write_fn_ids buf t;
  let ids = present_ids t in
  Binio.write_int_array buf ids;
  Array.iter (fun table -> pack_keys buf ~k:t.k (keys_of_table table ids)) t.tables

let read_body ~family ~store r =
  let n = Store.length store in
  let k, l, fn_ids = read_fn_ids ~family r in
  let ids = Binio.read_int_array r in
  Array.iter
    (fun id -> if id < 0 || id >= n then raise (Binio.Corrupt "object id out of range"))
    ids;
  let tables =
    Array.init l (fun _ ->
        let keys = unpack_keys r ~k in
        if Array.length keys <> Array.length ids then
          raise (Binio.Corrupt "key block does not match id list");
        let table = Hashtbl.create (max 16 (Array.length ids)) in
        Array.iteri
          (fun pos id ->
            let key = keys.(pos) in
            let bucket = try Hashtbl.find table key with Not_found -> [] in
            Hashtbl.replace table key (id :: bucket))
          ids;
        Csr.freeze table)
  in
  let distinct_fns = distinct_of fn_ids in
  { family; store; k; l; fn_ids; distinct_fns; fn_slots = slots_of fn_ids distinct_fns; tables }

(* v2 body: the live CSR arrays verbatim.  Loading re-validates every
   structural invariant (sorted directory, in-range packed keys, offsets
   covering the ids, no duplicate id per table) so a corrupt or
   hand-edited snapshot cannot materialise a broken index. *)
let write_body_packed buf t =
  write_fn_ids buf t;
  let is_alive = Store.is_alive t.store in
  Array.iter (fun table -> Csr.write buf ~is_alive table) t.tables

let read_body_packed ~family ~store r =
  let n = Store.length store in
  let k, l, fn_ids = read_fn_ids ~family r in
  let seen = Bytes.create n in
  let validate_key key =
    try ignore (Key.of_int ~width:k key)
    with Invalid_argument _ -> raise (Binio.Corrupt "packed key out of range")
  in
  let tables = Array.init l (fun _ -> Csr.read r ~validate_key ~max_id:n ~seen) in
  let distinct_fns = distinct_of fn_ids in
  { family; store; k; l; fn_ids; distinct_fns; fn_slots = slots_of fn_ids distinct_fns; tables }

let write_store ~encode buf store =
  Binio.write_int buf (Store.length store);
  for id = 0 to Store.length store - 1 do
    Binio.write_string buf (encode (Store.get store id))
  done;
  let dead =
    List.filter (fun id -> not (Store.is_alive store id))
      (List.init (Store.length store) Fun.id)
  in
  Binio.write_int_array buf (Array.of_list dead)

let read_store ~decode r =
  let n = Binio.read_int r in
  (* Each stored object costs at least a length prefix; bound n before
     allocating so corrupt inputs cannot trigger huge allocations. *)
  if n < 0 || n > Binio.remaining r then raise (Binio.Corrupt "implausible store size");
  let objects = Array.init n (fun _ -> Binio.guard_decode decode (Binio.read_string r)) in
  let store = Store.of_array objects in
  let dead = Binio.read_int_array r in
  Array.iter (fun id -> Store.delete store id) dead;
  store

let format_tag = "DBH-index-v1"

let write ~encode buf t =
  Binio.write_string buf format_tag;
  Hash_family.write ~encode buf t.family;
  write_store ~encode buf t.store;
  write_body buf t

let read ~decode ~space r =
  let tag = Binio.read_string r in
  if tag <> format_tag then
    raise (Binio.Corrupt (Printf.sprintf "expected %s, found %S" format_tag tag));
  let family = Hash_family.read ~decode ~space r in
  let store = read_store ~decode r in
  read_body ~family ~store r

let snapshot_kind = "index"
let snapshot_version = 1

let save ~encode ~path t =
  let buf = Buffer.create 4096 in
  write ~encode buf t;
  Dbh_persist.Envelope.save ~path ~kind:snapshot_kind ~version:snapshot_version
    (Buffer.contents buf)

let load ~decode ~space ~path =
  let payload =
    Dbh_persist.Envelope.read_expect ~kind:snapshot_kind ~version:snapshot_version ~path
  in
  let r = Binio.reader payload in
  let t = read ~decode ~space r in
  if not (Binio.at_end r) then
    raise (Binio.Corrupt "trailing bytes after index payload");
  t
