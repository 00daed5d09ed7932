(* Order statistics shared by the runner and the comparison report. *)

(* Quantile [q] of a sample by linear interpolation between order
   statistics; [nan] for an empty sample. *)
let percentile xs q = match xs with [] -> Float.nan | _ -> Lfs_util.Stats.percentile (Array.of_list xs) q

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so a spread printed here is the
   spread an external check of the same values finds.  Fewer than two
   values have no spread: all three quartiles are the value itself. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* The metrics guide reports a timing at the highest percentile that
   still has at least ten samples beyond it.  Candidates are the usual
   reporting points; [None] when even the median has fewer than ten
   samples above it. *)
let tail_quantile n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9)
    [ 0.999; 0.99; 0.95; 0.9; 0.5 ]
