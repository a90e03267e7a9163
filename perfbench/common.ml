(* Shared plumbing: clocks, the run's outcome, per-phase accounting. *)

module Json = Perfbench_core.Json
module Stats = Perfbench_core.Stats

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

let us s = s *. 1e6

(* Latency percentiles are taken per chunk of [chunk] samples (a 90th
   percentile then has 20 samples beyond it); an in-process run times
   at least [min_samples] single-caller queries. *)
let chunk = 200
let min_samples = 500

type phase_count = {
  phase : string;
  sent : int;
  ok : int;
  shed : int;
  timed_out : int;
  truncated : int;
  errors : int;
  wrong : int;
}

type outcome = {
  mutable phases : phase_count list;  (** newest first *)
  mutable wrong_notes : string list;
  mutable metrics : (string * float) list;  (** newest first *)
  mutable info : (string * Json.t) list;
}

let outcome () = { phases = []; wrong_notes = []; metrics = []; info = [] }
let metric o name v = o.metrics <- (name, v) :: o.metrics
let info o key v = o.info <- (key, v) :: o.info

let count o ?(shed = 0) ?(timed_out = 0) ?(truncated = 0) ?(errors = 0) ?(wrong = 0) ~sent ~ok
    phase =
  o.phases <- { phase; sent; ok; shed; timed_out; truncated; errors; wrong } :: o.phases

let median_of l = Stats.median (Array.of_list l)

(* Percentile in µs over chunks of [chunk] samples, chunks taken within
   each measurement process's samples (seconds). *)
let chunked_us arrays p = us (Stats.chunked_percentile ~size:chunk arrays p)

(* How steady a run was inside: IQR / median of its chunk medians. *)
let chunk_spread o name arrays =
  let v = Stats.chunk_percentiles ~size:chunk arrays 50. in
  if Array.length v >= 2 then info o (name ^ "_chunk_spread") (Json.Num (Stats.iqr_ratio v))

(* Fold measurement process [index]'s accounting into the run's. *)
let absorb o ~index (child : outcome) =
  o.phases <-
    List.map (fun p -> { p with phase = Printf.sprintf "%s.%d" p.phase index }) child.phases
    @ o.phases;
  o.wrong_notes <- child.wrong_notes @ o.wrong_notes;
  o.info <- child.info @ o.info

let wrong o msg = if List.length o.wrong_notes < 20 then o.wrong_notes <- msg :: o.wrong_notes

(* An operation fails when it was not answered in full: not ok, or ok
   but truncated or wrong. *)
let attempted o = List.fold_left (fun s p -> s + p.sent) 0 o.phases

let failed o =
  List.fold_left (fun s p -> s + (p.sent - p.ok) + p.truncated + p.wrong) 0 o.phases

let correct o = o.wrong_notes = [] && List.for_all (fun p -> p.wrong = 0) o.phases

let phases_json o =
  Json.Arr
    (List.rev_map
       (fun p ->
         let n x = Json.Num (float_of_int x) in
         Json.Obj
           [
             ("phase", Json.Str p.phase);
             ("sent", n p.sent);
             ("ok", n p.ok);
             ("shed", n p.shed);
             ("timed_out", n p.timed_out);
             ("truncated", n p.truncated);
             ("errors", n p.errors);
             ("wrong", n p.wrong);
           ])
       o.phases)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* A scratch directory for durable state, inside the checkout. *)
let work_dir name =
  let d =
    Filename.concat (Filename.concat "perfbench" ".work")
      (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Ground_truth.mkdir_p d;
  d

(* Live heap in MiB, after a compaction. *)
let heap_mb () =
  Gc.compact ();
  let st = Gc.stat () in
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let same_nn a b =
  match (a, b) with
  | None, None -> true
  | Some (h, d), Some (h', d') -> h = h' && Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float d')
  | _ -> false

(* A returned distance counts as the exact nearest-neighbor distance
   when it matches the linear scan's to within rounding. *)
let is_exact ~exact d = d <= exact +. (1e-9 *. Float.abs exact)
