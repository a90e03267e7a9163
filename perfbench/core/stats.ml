(* Order statistics over float samples, on top of the library's own
   (quantile, median and mean come from Dbh_util.Stats): Python-compatible
   quartiles, chunked percentiles and rates, histogram quantiles.  Inputs
   are never mutated. *)

include Dbh_util.Stats

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* The [p]-th percentile, [p] in [0, 100]: the library's type-7
   quantile, the usual definition of a latency percentile. *)
let percentile a p = quantile a (p /. 100.)

(* Quartiles exactly as Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so spreads computed here agree with
   the ones an outside script computes from the same values. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n)

(* Interquartile range as a share of the median: the run-to-run spread
   a metric's bound is compared against. *)
let iqr_ratio a =
  let q = quartiles a in
  (q.(2) -. q.(0)) /. Float.abs q.(1)

(* Consecutive chunks of [size] to [2·size - 1] samples, in order and
   tiling the input; a single chunk when there are fewer than
   [2·size]. *)
let chunks ~size a =
  let n = Array.length a in
  let k = max 1 (n / max 1 size) in
  Array.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.sub a lo (hi - lo))

(* The percentile of every chunk, chunks taken within each sample of
   [samples] (one per measurement process). *)
let chunk_percentiles ~size samples p =
  Array.concat (List.map (fun a -> Array.map (fun c -> percentile c p) (chunks ~size a)) samples)

(* Their median: a burst that slows one stretch of a run moves one
   chunk's value, not the reported one. *)
let chunked_percentile ~size samples p = median (chunk_percentiles ~size samples p)

(* Throughput of a closed loop from its per-operation latencies: the
   median over chunks of (operations / summed latency). *)
let chunked_rate ~size samples =
  median
    (Array.concat
       (List.map
          (fun a ->
            Array.map (fun c -> float_of_int (Array.length c) /. Array.fold_left ( +. ) 0. c) (chunks ~size a))
          samples))

(* p-quantile of a histogram given as per-bucket [(upper_bound, count)]
   pairs in bound order (the last bound may be infinite), interpolating
   linearly inside the bucket as Prometheus' histogram_quantile does.
   [None] for an empty histogram. *)
let histogram_quantile buckets q =
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let rec go i lower cum =
      let upper, c = buckets.(i) in
      let cum' = cum + c in
      if float_of_int cum' >= rank || i = Array.length buckets - 1 then
        if Float.is_finite upper then
          let inside = if c = 0 then 0. else (rank -. float_of_int cum) /. float_of_int c in
          Some (lower +. ((upper -. lower) *. inside))
        else Some lower
      else go (i + 1) upper cum'
    in
    go 0 0. 0
  end

(* A growable float buffer for latency samples, so timed loops append
   without allocating a list cell per sample. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () = { data = Array.make (max 1 capacity) 0.; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end
