(* The host's memory speed, read by a fixed probe the benchmark runs
   between cycles, outside op timing.

   The benchmark is sized on a shared host whose memory system runs in
   slow and fast phases lasting seconds to minutes: gzip ops took
   255-431 ms in the 5 s slices of one 90 s run. A pure integer loop in
   the same process barely moves with these phases (5 s slices within
   8%), while random reads and writes over a table larger than a core's
   L2 move with the ops (slices 0.71-1.24 of their median, where ops
   were 0.76-1.33; op time over the adjacent probe stayed within
   0.85-1.10). So the end-to-end timings are reported at the quiet
   host's memory speed: a raw time measured while the probes around it
   read more than [nominal_ms] is scaled down (see [factor]); one
   measured on the quiet host is left as it is. The probe is the
   benchmark's own code and touches no library, so a change to the
   program moves the scaled times as it moves the raw ones.

   A probe also reads what ran just before it: after an op has pushed
   the table out of the cache it took 9 ms, right after another probe
   4.5 ms, in the same phase. So every probe that scales a time runs
   right after a cycle of ops, never after a set-up or another probe. *)

(* 32 MB of ints outside the OCaml heap, so the probe does not move
   [peak_heap_mb] or the collector's work. *)
let cells = 1 lsl 22

let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cells in
     Bigarray.Array1.fill t 0;
     t)

let accesses = 1_000_000

(* The probe's time on the quiet host: right after a cycle of ops it
   read 5.7-9.4 ms in calm batches of the 2-vCPU Xeon host the benchmark
   was sized on, and up to 19 ms in slow phases. Times measured while
   the probe reads at most this are not scaled. Below it the probe is
   not a measure of the ops: in two calm batches gzip ops took 172-182
   ms in both, while the probe read 8.6-9.1 ms in one and 5.7-8.0 ms in
   the other. *)
let nominal_ms = 9.

(* Above [nominal_ms], ops slow down more than the probe. Against calm
   batches, ops in a slow phase took 2.3 times as long on profile-churn
   with the probe at 16 ms, 2.1 times on verdicts at 15.3 ms, and 1.5
   and 2.3 times on profile-gzip at 11.6 and 17 ms: powers of 1.46,
   1.43, 1.52 and 1.32 of the probe's ratio to [nominal_ms]. *)
let exponent = 1.4

let probes : float list ref = ref []

(* One probe: [accesses] random read-modify-writes over the table, each
   index drawn by a linear congruential step. Returns its time in ms. *)
let probe () =
  let t = Lazy.force table in
  let t0 = Obs.now_ns () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to accesses do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (cells - 1) in
    acc := !acc + Bigarray.Array1.unsafe_get t j;
    Bigarray.Array1.unsafe_set t j (!acc land 0xff)
  done;
  ignore (Sys.opaque_identity !acc);
  let ms = float (Obs.now_ns () - t0) /. 1e6 in
  probes := ms :: !probes;
  ms

(* The factor that takes a raw time measured when the probe read [ms]
   to the quiet host's speed: 1 on a quiet host, below 1 in a slow phase. *)
let factor ms = (nominal_ms /. Float.max nominal_ms ms) ** exponent

(* The factor for a time measured between [probes], from their mean;
   the first cycle of a window has only the probe after it. *)
let scale probes =
  factor (List.fold_left ( +. ) 0. probes /. float (List.length probes))

(* The factor for a time spread over the whole window, from the
   median of its probes. *)
let run_scale () = factor (Stat.median !probes)

(* Allocates the table and touches every page of it, so that no probe
   pays for the first touch. *)
let warm_up () = ignore (Lazy.force table)
