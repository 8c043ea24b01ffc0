(* Sample statistics and the result line the benchmark prints last. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linearly interpolated quantile, [q] in [0, 1] (numpy's default rule);
   0 on an empty sample so a missing layer reads as "no time", never NaN. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let iqr xs = quantile 0.75 xs -. quantile 0.25 xs
let ratio a b = if b = 0. then 0. else a /. b

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Human-readable lines first, then the one-line JSON result. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          metrics))
