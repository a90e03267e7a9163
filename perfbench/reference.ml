(* Reference distances, written here independently of the library's
   kernels.  The ground truth and every check of a returned distance use
   these, so a library kernel that computes wrong distances — however
   consistently — fails the run instead of agreeing with itself. *)

(* Euclidean distance, summed in index order. *)
let l2 (a : float array) (b : float array) =
  if Array.length a <> Array.length b then invalid_arg "Reference.l2: lengths differ";
  let s = ref 0. in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

(* Dynamic time warping over pen points with the Euclidean point cost,
   as Pen_digits.space defines it: the full O(nm) table,
   D(i,j) = cost(i,j) + min(D(i-1,j), D(i,j-1), D(i-1,j-1)). *)
let dtw_points (a : Dbh_metrics.Geom.point array) (b : Dbh_metrics.Geom.point array) =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Reference.dtw_points: empty trajectory";
  let cost i j =
    let dx = a.(i).x -. b.(j).x and dy = a.(i).y -. b.(j).y in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  let d = Array.make_matrix n m 0. in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let before =
        if i = 0 && j = 0 then 0.
        else if i = 0 then d.(0).(j - 1)
        else if j = 0 then d.(i - 1).(0)
        else Float.min d.(i - 1).(j) (Float.min d.(i).(j - 1) d.(i - 1).(j - 1))
      in
      d.(i).(j) <- before +. cost i j
    done
  done;
  d.(n - 1).(m - 1)

(* A returned distance agrees with the reference when they match to
   within rounding (kernels may sum in another order). *)
let agrees ~reference d =
  Float.abs (d -. reference) <= 1e-9 *. Float.max (Float.abs d) (Float.abs reference)
