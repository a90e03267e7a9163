(* The three workloads' inputs.  Each workload indexes one fixed
   dataset, built with one fixed generator seed — like a standard
   benchmark collection — so every run sets up the same index; the run's
   seed draws the held-out queries, the objects to insert and the churn
   sequence.  (Letting the seed redraw the dataset moved the index's
   table count, and with it query latency, by a fifth from seed to
   seed.)  The program under test only ever sees the generated
   objects. *)

module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio
module Space = Dbh_space.Space
module Pen = Dbh_datasets.Pen_digits

type 'a data = {
  db : 'a array;  (** indexed at set-up *)
  queries : 'a array;  (** held out, never indexed *)
  fresh : 'a array;  (** inserted by the write phases *)
}

type 'a spec = {
  name : string;
  space : 'a Space.t;
  encode : 'a -> string;
  decode : string -> 'a;
  reference : 'a -> 'a -> float;
      (** the distance [space] should compute, from {!Reference}: ground
          truth and answer checks use it, never [space.distance] *)
  generate : int -> 'a data;
  config : Dbh.Builder.config;  (** the index every in-process phase queries *)
  served_db : int;  (** objects the traced run serves (all of [db] on served_churn) *)
  served : bool;  (** the end-to-end run goes over the wire *)
  inserts : int;
      (** in-process inserts timed per end-to-end run: a fixed count, so
          every run leaves the index in the same state *)
}

let target_accuracy = 0.9

(* Generator seed of every dataset and of every index build. *)
let dataset_seed = 2008

(* The paper's 100 pivots and 5 strata; [l_max = 60] keeps the table
   count, and with it set-up time, within the run budget. *)
let config = { Dbh.Builder.default_config with l_max = 60 }

(* Each shard's index whenever a workload is served. *)
let small_config =
  { config with num_pivots = 40; num_sample_queries = 80; db_sample = 200 }

let encode_vec (v : float array) =
  let buf = Buffer.create (8 * (Array.length v + 1)) in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode_vec s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

let vectors ~name ~n ~queries ~fresh ~served ~served_db ~inserts ~config =
  {
    name;
    space = Dbh_metrics.Minkowski.l2_space;
    encode = encode_vec;
    decode = decode_vec;
    reference = Reference.l2;
    generate =
      (fun seed ->
        (* The mixture's held-out part is a pool twice the size a run
           needs; the seed picks the queries and fresh objects from it. *)
        let all, _ =
          Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create dataset_seed) ~num_clusters:25
            ~dim:16
            (n + (2 * (queries + fresh)))
        in
        let held_out = Rng.shuffle (Rng.create seed) (Array.sub all n (2 * (queries + fresh))) in
        { db = Array.sub all 0 n; queries = Array.sub held_out 0 queries; fresh = Array.sub held_out queries fresh });
    config;
    served_db;
    served;
    inserts;
  }

let l2_read =
  vectors ~name:"l2_read" ~n:4000 ~queries:1000 ~fresh:1000 ~served:false ~served_db:1000
    ~inserts:1500 ~config

let served_churn =
  vectors ~name:"served_churn" ~n:4000 ~queries:500 ~fresh:1000 ~served:true ~served_db:4000
    ~inserts:0
    ~config:small_config

(* Pen digits slightly harder than the library defaults (as in the
   repository's bench harness), so nearest-neighbor distances spread
   enough to stratify. *)
let pen_params =
  { Pen.default_params with control_jitter = 0.05; noise_sigma = 0.02; warp_strength = 0.3 }

let encode_pen (inst : Pen.instance) =
  let buf = Buffer.create 600 in
  Binio.write_int buf inst.label;
  Binio.write_int buf (Array.length inst.points);
  Array.iter
    (fun (p : Dbh_metrics.Geom.point) ->
      Binio.write_float buf p.x;
      Binio.write_float buf p.y)
    inst.points;
  Buffer.contents buf

let decode_pen s =
  let r = Binio.reader s in
  let label = Binio.read_int r in
  let n = Binio.read_int r in
  if n < 0 || n > 100_000 then raise (Binio.Corrupt "pen instance: bad point count");
  let points =
    Array.init n (fun _ ->
        let x = Binio.read_float r in
        let y = Binio.read_float r in
        { Dbh_metrics.Geom.x; y })
  in
  if not (Binio.at_end r) then raise (Binio.Corrupt "pen instance: trailing bytes");
  { Pen.label; points }

let dtw_read =
  {
    name = "dtw_read";
    space = Pen.space;
    encode = encode_pen;
    decode = decode_pen;
    reference = (fun a b -> Reference.dtw_points a.Pen.points b.Pen.points);
    generate =
      (fun seed ->
        let set rng n = Pen.generate_set ~rng ~params:pen_params n in
        let rng = Rng.create seed in
        { db = set (Rng.create dataset_seed) 1000; queries = set rng 200; fresh = set rng 1000 });
    config = { config with num_pivots = 60; num_sample_queries = 100 };
    served_db = 200;
    served = false;
    inserts = 600;
  }
