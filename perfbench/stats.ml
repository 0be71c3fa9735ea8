let min_beyond = 10

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted a in
  (* statistics.quantiles, method='exclusive': cut point i of 4 sits at
     position i(n+1)/4 (1-based), clamped to the data and interpolated
     between its neighbours. *)
  let cut i =
    let m = i * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = m - (j * 4) in
    ((s.(j - 1) *. float (4 - delta)) +. (s.(j) *. float delta)) /. 4.
  in
  cut 1, cut 2, cut 3

(* Nearest rank: the smallest sample with at least p% of the data at or
   below it; the samples after it are the ones "beyond" the percentile. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float n)))
let tail_rank_ok ~n p = n > 0 && n - rank ~n p >= min_beyond

let tail a p =
  if not (p > 0. && p < 100.) then invalid_arg "Stats.tail: percentile outside (0, 100)";
  let n = Array.length a in
  if tail_rank_ok ~n p then Some (sorted a).(rank ~n p - 1) else None

let windowed_tail a p =
  let n = Array.length a in
  (* The smallest window that resolves p: rank(w) + min_beyond <= w. *)
  let rec smallest w = if w > n || tail_rank_ok ~n:w p then w else smallest (w + 1) in
  let w = smallest 1 in
  if w > n then None
  else begin
    let windows = n / w in
    let tails =
      Array.init windows (fun i ->
          let len = if i = windows - 1 then n - (i * w) else w in
          Option.get (tail (Array.sub a (i * w) len) p))
    in
    Some (median tails)
  end
