type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; total = 0.0; min_v = infinity; max_v = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then 0.0 else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let min_value t = t.min_v
let max_value t = t.max_v

let percentile data p =
  assert (Array.length data > 0);
  assert (p >= 0.0 && p <= 1.0);
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
