let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty sample"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rank ~q n = int_of_float (Float.ceil (q *. float_of_int n))

let min_samples ~q =
  let rec go n = if n - rank ~q n >= 10 then n else go (n + 1) in
  go 10

let tail ~q xs =
  if not (q > 0.0 && q < 1.0) then invalid_arg "Stats.tail: q outside (0, 1)";
  let a = sorted xs in
  let n = Array.length a in
  let k = rank ~q n in
  if n - k < 10 then
    Error
      (Printf.sprintf "p%g refused: %d sample(s), %d beyond it, need 10 (n >= %d)"
         (q *. 100.0) n (n - k) (min_samples ~q))
  else Ok a.(max 0 (k - 1))
