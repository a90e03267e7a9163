(* Quickstart: index a vector database under L2 and answer nearest
   neighbor queries with a tuned hierarchical DBH index.

   Run with:  dune exec examples/quickstart.exe *)

module Rng = Dbh_util.Rng

let () =
  let rng = Rng.create 42 in

  (* 1. A database: 5000 points from a Gaussian mixture in R^16, plus 100
     held-out queries from the same distribution. *)
  let all, _labels =
    Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim:16 5100
  in
  let db = Array.sub all 0 5000 in
  let queries = Array.sub all 5000 100 in
  let space = Dbh_metrics.Minkowski.l2_space in

  (* 2. Build a tuned index in one call.  [auto] samples pivots, fits the
     collision-rate model on the database, picks (k, l) per stratum for
     the requested accuracy, and builds the hash tables. *)
  Printf.printf "Building DBH index over %d objects (space: %s)...\n%!"
    (Array.length db) space.Dbh_space.Space.name;
  let index = Dbh.Builder.auto ~rng ~space ~target_accuracy:0.95 db in
  Array.iteri
    (fun i level ->
      Printf.printf "  level %d: k=%d l=%d  (radius <= %.3f)\n" i
        level.Dbh.Hierarchical.k level.Dbh.Hierarchical.l
        level.Dbh.Hierarchical.d_threshold)
    (Dbh.Hierarchical.levels index);

  (* 3. Query.  Each result carries the retrieved neighbor and the number
     of distance computations spent (the paper's cost measure). *)
  let truth = Dbh_eval.Ground_truth.compute ~space ~db ~queries () in
  let answers = Array.map (fun q -> Dbh.Hierarchical.search index q) queries in
  let accuracy =
    Dbh_eval.Ground_truth.accuracy truth
      (Array.map (fun r -> r.Dbh.Index.nn) answers)
  in
  let mean_cost =
    Dbh_util.Stats.mean
      (Array.map
         (fun r -> float_of_int (Dbh.Index.total_cost r.Dbh.Index.stats))
         answers)
  in
  Printf.printf "\n%d queries:\n" (Array.length queries);
  Printf.printf "  accuracy            : %.3f (fraction retrieving the true NN)\n" accuracy;
  Printf.printf "  distances per query : %.1f (brute force: %d)\n" mean_cost (Array.length db);
  Printf.printf "  speedup             : %.1fx\n"
    (float_of_int (Array.length db) /. mean_cost);

  (* 4. Indexes are dynamic and persistent. *)
  let new_point = Array.make 16 3.5 in
  let id = Dbh.Hierarchical.insert index new_point in
  (match (Dbh.Hierarchical.search index new_point).Dbh.Index.nn with
  | Some (found, _) when found = id -> Printf.printf "\ninserted object %d is retrievable\n" id
  | _ -> print_endline "\nunexpected: inserted object not found");
  Dbh.Hierarchical.delete index id;
  let encode v =
    let buf = Buffer.create 64 in
    Dbh_util.Binio.write_float_array buf v;
    Buffer.contents buf
  in
  let decode s = Dbh_util.Binio.read_float_array (Dbh_util.Binio.reader s) in
  let path = Filename.temp_file "dbh_quickstart" ".idx" in
  Dbh.Hierarchical.save ~encode ~path index;
  let reloaded = Dbh.Hierarchical.load ~decode ~space ~path in
  Sys.remove path;
  let same =
    (Dbh.Hierarchical.search reloaded queries.(0)).Dbh.Index.nn
    = (Dbh.Hierarchical.search index queries.(0)).Dbh.Index.nn
  in
  Printf.printf "index saved and reloaded; answers identical: %b\n" same;

  (* 5. Indexes also answer k-NN and range queries (single-level shown).
     Both are checked against exact distances; a wrong answer exits 1. *)
  let prepared = Dbh.Builder.prepare ~rng ~space db in
  match Dbh.Builder.single ~rng ~prepared ~db ~target_accuracy:0.9 () with
  | None -> ()
  | Some (single, choice) ->
      Printf.printf "\nSingle-level index (%s):\n"
        (Format.asprintf "%a" Dbh.Params.pp_choice choice);
      let q = queries.(0) in
      let exact (i, d) = d = space.Dbh_space.Space.distance q db.(i) in
      let knn, stats = Dbh.Index.query_knn single 5 q in
      Printf.printf "  5-NN of query 0 (cost %d):\n" (Dbh.Index.total_cost stats);
      Array.iter (fun (i, d) -> Printf.printf "    db[%d] at distance %.4f\n" i d) knn;
      let radius = if Array.length knn = 0 then 1. else snd knn.(Array.length knn - 1) in
      let hits, _ = Dbh.Index.query_range single radius q in
      Printf.printf "  %d objects within %.4f of query 0\n" (List.length hits) radius;
      let sorted l = List.sort compare (List.map snd l) = List.map snd l in
      let ok =
        Array.length knn > 0
        && Array.for_all exact knn
        && sorted (Array.to_list knn)
        && List.for_all (fun (i, d) -> exact (i, d) && d <= radius) hits
        && sorted hits
        (* Same candidate set: every k-NN answer lies within its own radius. *)
        && Array.for_all (fun h -> List.mem h hits) knn
      in
      if not ok then begin
        prerr_endline "k-NN / range answers disagree with exact distances";
        exit 1
      end
