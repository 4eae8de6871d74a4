(* Estimators for the end-to-end metrics.

   Host noise on a shared box only ever adds time, so the timed metrics
   take each request's fastest measured pass before computing a
   percentile; and a percentile is only reported when at least
   [min_beyond] samples lie beyond it, so the tail is never read off a
   handful of points. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n r)

let beyond ~n p = n - rank ~n p

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Error "no samples"
  else if p < 100. && beyond ~n p < min_beyond && p > 50. then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, %d samples give %d" p
         min_beyond n (beyond ~n p))
  else Ok a.(rank ~n p - 1)

let percentile_exn p xs =
  match percentile p xs with Ok v -> v | Error m -> failwith m

let median xs = percentile_exn 50. xs

(* [passes] holds one sample array per measured pass, indexed by
   request; the estimate for request [i] is its fastest pass. *)
let fastest_pass passes =
  match passes with
  | [] -> invalid_arg "Stats.fastest_pass: no passes"
  | first :: rest ->
    let n = Array.length first in
    List.iter
      (fun p ->
        if Array.length p <> n then
          invalid_arg "Stats.fastest_pass: passes differ in request count")
      rest;
    Array.to_list
      (Array.init n (fun i ->
           List.fold_left (fun m p -> Float.min m p.(i)) first.(i) rest))

let sum = List.fold_left ( +. ) 0.
