(* Checks for the benchmark's statistics helpers. Expected quartiles
   are those of Python's statistics.quantiles(data, n=4). *)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let check name ok =
  if not ok then begin
    Printf.eprintf "t_stats: %s failed\n" name;
    exit 1
  end

let () =
  let a = [| 5.; 1.; 3.; 2.; 4. |] in
  check "median odd" (close (Stats.median a) 3.);
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median single" (close (Stats.median [| 7. |]) 7.);
  check "median empty raises"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true);
  (* quantiles([1,2,3,4,5], n=4) = [1.5, 3.0, 4.5] *)
  let q1, m, q3 = Stats.quartiles a in
  check "quartiles 1..5" (close q1 1.5 && close m 3. && close q3 4.5);
  (* quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (Array.init 10 (fun i -> float (10 - i))) in
  check "quartiles 1..10" (close q1 2.75 && close m 5.5 && close q3 8.25);
  (* quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]: the cut index clamps,
     the interpolation weight does not. *)
  let q1, m, q3 = Stats.quartiles [| 2.; 1. |] in
  check "quartiles of two" (close q1 0.75 && close m 1.5 && close q3 2.25);
  (* 1000 samples 1..1000: p99 is sample 990 with exactly 10 beyond. *)
  let thousand = Array.init 1000 (fun i -> float (1000 - i)) in
  check "p99 resolved" (Stats.tail thousand 99. = Some 990.);
  check "p50 resolved" (Stats.tail thousand 50. = Some 500.);
  (* 999 samples leave only 9 beyond rank 990. *)
  check "p99 unresolved" (Stats.tail (Array.sub thousand 0 999) 99. = None);
  check "p90 of 100" (Stats.tail (Array.init 100 (fun i -> float i)) 90. = Some 89.);
  check "p90 of 99" (Stats.tail (Array.init 99 (fun i -> float i)) 90. = None);
  check "empty tail" (Stats.tail [||] 50. = None);
  check "rank rule" (Stats.tail_rank_ok ~n:1000 99. && not (Stats.tail_rank_ok ~n:0 50.));
  (* Windows of 1000 for p99; one window of wild samples cannot move the
     median of three. *)
  let run = Array.init 3000 (fun i -> if i < 1000 then 1000. else float (i mod 1000 + 1)) in
  check "windowed p99" (Stats.windowed_tail run 99. = Some 990.);
  (* 1500 samples make one window of 1500: the remainder joins it. *)
  check "windowed p99 takes remainder"
    (Stats.windowed_tail (Array.init 1500 (fun i -> float (i + 1))) 99. = Some 1485.);
  check "windowed p99 unresolved" (Stats.windowed_tail (Array.sub thousand 0 999) 99. = None);
  print_endline "t_stats: ok"
