(* The repository's benchmark. One process runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --data DIR

   With --trace 0 it times the workload's ops and prints the end-to-end
   metrics; with --trace 1 it records spans around every layer call,
   runs the hot-path layer ladder and the static and service probes over
   the workload's programs, and prints the per-layer metrics. Either way
   every op's output is checked after the timed window, and the last
   line of stdout is the JSON result. See README.md. *)

module W = Workloads.Workload
module Reg = Workloads.Registry
module P = Alchemist.Profiler

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  data : string;
  spans_dir : string;
}

let now = Obs.now_ns
let ms_since t0 = float (now () - t0) /. 1e6
let m = Stat.metric

(* The major heap's high-water mark over set-up and the window's first
   cycle, read right after that cycle. The in-window maximum of a
   workload with a small live set is set by where GC cycles happen to
   end, not by the code (it spread 0.4 across seeds on verdicts). The
   whole run's high-water depends on how many ops the host's speed let
   the window run: on profile-gzip it read 59.6-60.7 MB in calm batches
   (about 110 ops) and 45.8-60.1 MB in a slow one (42-50 ops), a spread
   of 0.19. The first cycle is the same work on every run, and the
   high-water still shows memory moved into set-up. *)
let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- set-up and the timed loop ------------------------------------------ *)

(* Set-up time. A set-up runs before the window and its result is
   kept. On the profile and verdicts workloads more run between the
   window's cycles, outside op timing, while their total stays under a
   quarter of the window time so far; their results are discarded.
   setup_s is the median of all of them, scaled to the quiet host's speed
   by the median of the window's probes (see Host). A probe right
   around a set-up would find its table still cached from the probe
   before it and read 4.5 ms where one after an op read 9 ms, and it
   would slow the set-up it timed. Spread over the window, the
   set-ups see the same host speed phases as the ops: forty set-ups
   back to back before the window read 8.2-12.8 ms on profile-gzip
   across five seeds as the host's phase changed. A set-up before the
   window starts on a collected heap; one between cycles does not,
   since collecting there made the run's heap high-water depend on
   where the collections fell (34 or 45 MB on profile-gzip). *)
type 'a setup = {
  make : unit -> 'a;
  discard : 'a -> unit;
  mutable times : float list;
}

let setup_once s =
  let t0 = now () in
  let v = s.make () in
  s.times <- (float (now () - t0) /. 1e9) :: s.times;
  v

(* Runs [before] set-ups before the window and keeps the last. *)
let first_setup ?(before = 1) ?(discard = ignore) make =
  let s = { make; discard; times = [] } in
  for _ = 2 to before do
    Gc.full_major ();
    discard (setup_once s)
  done;
  Gc.full_major ();
  (s, setup_once s)

let between_cycles s ~window_ns =
  if List.fold_left ( +. ) 0. s.times < 0.25 *. float window_ns /. 1e9 then
    s.discard (setup_once s)

(* Read after the window, whose probes give the scale. *)
let setup_s s =
  let raw = Stat.median s.times in
  Printf.printf "set-ups: %d, raw median %.6f s\n" (List.length s.times) raw;
  raw *. Host.run_scale ()

(* [latency_ms] is scaled to the quiet host's speed, [raw_ms] is
   the wall time. *)
type 'a op = {
  latency_ms : float;
  raw_ms : float;
  traced : bool;
  item : int;
  out : ('a, string) result;
}

(* A cycle's ops, timed raw, scaled by the probes taken around it. *)
let scaled k ops = List.map (fun o -> { o with latency_ms = o.raw_ms *. k }) ops

(* Runs [op] over [cycle] in order, cycle after cycle, until [seconds]
   of cycles have been timed. [keep] reduces an op's result to what the
   checks need; it runs outside the op's timing. Between cycles, outside
   the window, the host probe runs, and [setup] may run again. A cycle's
   ops are scaled by the probes before and after it. Cycle [c] starts
   at item [c mod n], so every item ends a cycle equally often: a probe
   reads what the op before it left in the cache (on verdicts 6.5 ms
   after gzip's op, 8.7 ms after ogg's), and a fixed order would scale
   each seed by the program its order put last. In a traced run
   every other cycle records spans, so the untraced cycles in between
   give the tracing overhead. Returns the ops, the window's wall time
   and its time scaled to the quiet host's speed, in s. *)
let timed_loop a setup cycle op ~keep =
  let budget = int_of_float (a.seconds *. 1e9) in
  let ops = ref [] and c = ref 0 and id = ref 0 and window_ns = ref 0 in
  let scaled_s = ref 0. and before = ref [] and peak_mb = ref 0. in
  while !c = 0 || !window_ns < budget do
    let traced = a.trace && !c mod 2 = 1 in
    Span.enabled := traced;
    let t_cycle = now () in
    let cycle_ops = ref [] in
    let n = Array.length cycle in
    for j = 0 to n - 1 do
      let item = (j + !c) mod n in
      let x = cycle.(item) in
      Span.current_op := !id;
      incr id;
      let t0 = now () in
      let r =
        match Span.with_ "op" (fun () -> op x) with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e)
      in
      let raw_ms = ms_since t0 in
      let out = Result.map keep r in
      cycle_ops := { latency_ms = raw_ms; raw_ms; traced; item; out } :: !cycle_ops
    done;
    let cycle_ns = now () - t_cycle in
    window_ns := !window_ns + cycle_ns;
    if !c = 0 then peak_mb := peak_heap_mb ();
    Span.enabled := false;
    Span.current_op := -1;
    let after = Host.probe () in
    let k = Host.scale (after :: !before) in
    before := [ after ];
    scaled_s := !scaled_s +. (float cycle_ns /. 1e9 *. k);
    ops := List.rev_append (scaled k (List.rev !cycle_ops)) !ops;
    incr c;
    if !window_ns < budget then between_cycles setup ~window_ns:!window_ns
  done;
  (List.rev !ops, float !window_ns /. 1e9, !scaled_s, !peak_mb)

let latencies ?(only = fun _ -> true) ops =
  List.filter_map (fun o -> if only o then Some o.latency_ms else None) ops

(* Read right after the timed window, before the checks run. The
   timings are at the quiet host's speed; the raw ones are printed
   alongside. *)
let end_to_end a ops ~window_s ~scaled_s ~setup_s ~peak_mb =
  let l = latencies ops in
  let raw = List.map (fun o -> o.raw_ms) ops in
  Printf.printf "ops: %d in %.3f s (%.3f s scaled)\n" (List.length l)
    window_s scaled_s;
  Printf.printf "raw: op_p50 %.3f ms, op_p90 %.3f ms, %.3f ops/s; probe median %.3f ms over %d\n"
    (Stat.median raw) (Stat.quantile 0.9 raw)
    (float (List.length l) /. window_s)
    (Stat.median !Host.probes) (List.length !Host.probes);
  if a.trace then []
  else
    [
      m "op_p50_ms" "ms" (Stat.median l);
      m "op_p90_ms" "ms" (Stat.quantile 0.9 l);
      m "ops_per_s" "1/s" (float (List.length l) /. scaled_s);
      m "setup_s" "s" setup_s;
      m "peak_heap_mb" "MB" peak_mb;
    ]

let trace_overhead ops =
  let t = Stat.median (latencies ~only:(fun o -> o.traced) ops)
  and u = Stat.median (latencies ~only:(fun o -> not o.traced) ops) in
  m "trace.overhead_pct" "%" (100. *. (Stat.ratio t u -. 1.))

let inputs_line a detail text =
  Printf.printf "inputs: %s seed=%d %s digest=%s\n%!" a.workload a.seed detail
    (Digest.to_hex (Digest.string text))

(* --- layer probes (traced runs) ----------------------------------------- *)

(* One program a traced run probes: its source, compiled program and
   static facts. *)
type subject = {
  w : W.t;
  scale : int;
  src : string;
  prog : Vm.Program.t;
  facts : P.facts;
}

let subject (w : W.t) ~scale src prog facts = { w; scale; src; prog; facts }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let ladder_metrics subjects =
  let ls = List.map (fun s -> Ladder.subject ~facts:s.facts s.prog) subjects in
  let hook_events = sum Ladder.hook_events ls in
  let times = Ladder.run ls in
  (* Exact counts, the write time and allocation, from plain profiles. *)
  let runs =
    List.map
      (fun s ->
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let r = P.run ~facts:s.facts s.prog in
        (r, Gc.minor_words () -. w0))
      subjects
  in
  let write_ms =
    List.init Ladder.rounds (fun _ ->
        let t0 = now () in
        List.iter
          (fun ((r : P.result), _) ->
            ignore
              (Span.with_ "core.write" (fun () ->
                   Alchemist.Profile_io.to_string r.P.profile)))
          runs;
        ms_since t0)
  in
  let stat f = sum (fun ((r : P.result), _) -> f r.P.stats) runs in
  let instructions = stat (fun s -> s.P.instructions)
  and events = stat (fun s -> s.P.shadow_events)
  and deps = stat (fun s -> s.P.deps_detected)
  and constructs = stat (fun s -> s.P.dynamic_constructs)
  and reused = stat (fun s -> s.P.pool_reused) in
  let walk f =
    sum
      (fun ((r : P.result), _) ->
        match Obs.find (P.telemetry r) "profiler.walk_depth" with
        | Some v -> f v
        | None -> 0)
      runs
  in
  let walk_steps = walk (function Obs.Dist d -> d.sum | _ -> 0)
  and walk_zero = walk (function Obs.Dist d -> d.buckets.(0) | _ -> 0) in
  let minor_words = List.fold_left (fun acc (_, w) -> acc +. w) 0. runs in
  let saved =
    List.map
      (fun ((r : P.result), _) -> Alchemist.Profile_io.to_string r.P.profile)
      runs
  in
  let rung i = times.(i) in
  let increment i = List.map2 ( -. ) (rung i) (rung (i - 1)) in
  let inc =
    Array.init 5 (fun i -> Stat.median (if i = 0 then rung 0 else increment i))
  in
  let full = Stat.median (rung 4) and full_iqr = Stat.iqr (rung 4) in
  let closure = Array.fold_left ( +. ) 0. inc in
  let per n x = Stat.ratio (x *. 1e6) (float n) in
  Printf.printf "ladder (%d rounds, medians in ms): " Ladder.rounds;
  Array.iteri
    (fun i (name, _) -> Printf.printf "%s +%.2f  " name inc.(i))
    Ladder.rungs;
  Printf.printf "= %.2f vs full %.2f (iqr %.2f): %s\n" closure full full_iqr
    (if Float.abs (closure -. full) <= full_iqr then "closes within the spread"
     else "does not close within the spread");
  ( saved,
  [
    m "vm.dispatch_ns_per_instr" "ns" (per instructions inc.(0));
    m "vm.hook_ns_per_event" "ns" (per hook_events inc.(1));
    m "shadow.ns_per_event" "ns" (per events inc.(2));
    m "indexing.ns_per_construct" "ns" (per constructs inc.(3));
    m "core.attribution_ns_per_dep" "ns" (per deps inc.(4));
    m "ladder.dispatch_ms" "ms" inc.(0);
    m "ladder.hooks_ms" "ms" inc.(1);
    m "ladder.shadow_ms" "ms" inc.(2);
    m "ladder.indexing_ms" "ms" inc.(3);
    m "ladder.attribution_ms" "ms" inc.(4);
    m "ladder.full_ms" "ms" full;
    m "ladder.closure_gap_pct" "%"
      (100. *. Stat.ratio (Float.abs (closure -. full)) full);
    m "ladder.full_iqr_pct" "%" (100. *. Stat.ratio full_iqr full);
    m "core.write_ms" "ms" (Stat.median write_ms);
    m "vm.instructions" "count" (float instructions);
    m "vm.hook_events" "count" (float hook_events);
    m "shadow.events" "count" (float events);
    m "shadow.deps" "count" (float deps);
    m "indexing.dynamic_constructs" "count" (float constructs);
    m "indexing.pool_reused" "count" (float reused);
    m "core.walk_steps" "count" (float walk_steps);
    m "core.walk_zero_ratio" "ratio" (Stat.ratio (float walk_zero) (float deps));
    m "core.profile_bytes" "bytes"
      (float (sum String.length saved));
    m "runtime.minor_words_per_event" "words"
      (Stat.ratio minor_words (float events));
  ] )

(* The offline verdict path over each subject and its [saved] profile,
   three times, with spans: gives the static and offline layer times on
   workloads whose ops do not call them. Returns the failed runs. *)
let static_probe subjects saved =
  let failed = ref 0 in
  for _ = 1 to 3 do
    List.iter2
      (fun s saved ->
        match Ops.verdicts ~src:s.src ~saved with
        | Ok _ -> ()
        | Error msg ->
            incr failed;
            Printf.printf "FAIL %s: %s\n" s.w.name msg)
      subjects saved
  done;
  !failed

let span_metrics selfs =
  List.map
    (fun (metric, span) -> m metric "ms" (Span.self_ms selfs span))
    [
      ("minic.frontend_ms", "minic.frontend");
      ("vm.compile_ms", "vm.compile");
      ("cfa.analyze_ms", "cfa.analyze");
      ("static.depend_ms", "static.depend");
      ("static.legality_ms", "static.legality");
      ("static.race_ms", "static.race");
      ("core.read_ms", "core.read");
      ("core.sanitize_ms", "core.sanitize");
      ("core.rank_ms", "core.rank");
      ("core.report_ms", "core.report");
    ]

(* The driver layer's metrics from a service run; [snap] is the
   service's telemetry, taken before it was shut down, and [program id]
   gives input [id]'s program. *)
let driver_metrics snap ~program replies =
  let lat p =
    List.filter_map (fun r -> if p r then Some r.Serve.latency_ms else None) replies
  in
  let jobs = Serve.job_times ~program replies in
  let timed_misses =
    List.filter_map
      (fun r ->
        if Serve.is_miss r then
          Option.map
            (fun job -> (r.Serve.latency_ms, job))
            (Hashtbl.find_opt jobs r.Serve.input)
        else None)
      replies
  in
  let count name = float (Option.value ~default:0 (Obs.find_count snap name)) in
  let computed = count "service.facts_computed" and reused = count "service.facts_reused" in
  [
    m "driver.cache_hit_ratio" "ratio"
      (Stat.ratio (float (List.length (List.filter Serve.is_hit replies)))
         (float (List.length replies)));
    m "driver.facts_reused_ratio" "ratio" (Stat.ratio reused (computed +. reused));
    m "driver.hit_p50_ms" "ms" (Stat.median (lat Serve.is_hit));
    m "driver.miss_p50_ms" "ms" (Stat.median (lat Serve.is_miss));
    m "driver.job_ms" "ms" (Stat.median (List.map snd timed_misses));
    m "driver.queue_wait_ms" "ms"
      (Stat.median (List.map (fun (l, j) -> l -. j) timed_misses));
    m "driver.steals" "count" (count "sched.steals");
  ]

let variant_request (s : subject) k input =
  {
    Serve.spec = Printf.sprintf "%s:%d:seed=%d" s.w.name s.scale k;
    prog = Vm.Compile.compile_source (Gen.with_input_seed s.src k);
    input;
  }

(* Each subject through a fresh service: its own input (a miss that
   computes facts), a new input of the same program (a miss that reuses
   them), then its own input again (a hit). *)
let service_probe st subjects =
  let stream =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i s ->
              let own = variant_request s (Gen.input_seed st) (2 * i) in
              [ own; variant_request s (Gen.input_seed st) ((2 * i) + 1); own ])
            subjects))
  in
  let progs = Hashtbl.create 32 in
  Array.iter (fun (r : Serve.request) -> Hashtbl.replace progs r.input r.prog) stream;
  let program = Hashtbl.find progs in
  let svc = Driver.Service.create () in
  let replies = List.map Serve.digest (Serve.client svc stream ~traced:true) in
  let snap = Driver.Service.telemetry svc in
  Driver.Service.shutdown svc;
  ( Array.length stream,
    Serve.check ~parallel:false ~program replies,
    driver_metrics snap ~program replies )

(* Everything a traced run reports besides its own loop's overhead. *)
let layer_probes a st subjects ~driver =
  Span.enabled := true;
  let saved, ladder = ladder_metrics subjects in
  let static_failed = static_probe subjects saved in
  let attempted, failed, drv =
    match driver with
    | Some metrics -> (0, 0, metrics)
    | None -> service_probe st subjects
  in
  Span.enabled := false;
  let selfs = Span.self_times () in
  (try Sys.mkdir a.spans_dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat a.spans_dir
      (Printf.sprintf "spans-%s-seed%d.jsonl" a.workload a.seed)
  in
  Span.write_jsonl path selfs;
  Printf.printf "spans: %d written to %s\n" (List.length selfs) path;
  ( attempted + (3 * List.length subjects),
    failed + static_failed,
    ladder @ span_metrics selfs @ drv )

(* --- workloads ----------------------------------------------------------- *)

type outcome = { attempted : int; failed : int; metrics : Stat.metric list }

(* An untraced run reports [e2e]; a traced run reports what [probe]
   returns (its attempted and failed ops, and the layer metrics) and the
   tracing overhead of its own loop. *)
let finish a ~e2e ~ops ~failed probe =
  let attempted = List.length ops in
  if not a.trace then { attempted; failed; metrics = e2e }
  else
    let pa, pf, layers = probe () in
    {
      attempted = attempted + pa;
      failed = failed + pf;
      metrics =
        layers
        @ [ trace_overhead ops; m "host.probe_ms" "ms" (Stat.median !Host.probes) ];
    }

(* profile-gzip and profile-churn: each op profiles one program at a
   seeded scale and serializes the profile. *)
let profile_workload a (w : W.t) band =
  let st = Gen.rng ~seed:a.seed a.workload in
  let scale = Gen.pick st band in
  let setup () =
    let src = Span.with_ "workloads.source" (fun () -> w.source ~scale) in
    let prog = Ops.compile src in
    let facts =
      Span.with_ "core.prepare_facts" (fun () -> P.prepare_facts prog)
    in
    (src, prog, facts)
  in
  let setup, (src, prog, facts) = first_setup setup in
  inputs_line a (Printf.sprintf "program=%s scale=%d" w.name scale) src;
  ignore (Ops.profile ~facts prog);
  let projections = Hashtbl.create 2 in
  let ops, window_s, scaled_s, peak_mb =
    timed_loop a setup [| () |]
      (fun () -> Ops.profile ~facts prog)
      ~keep:(fun ((r : P.result), _) ->
        let text = Ops.projection r.P.profile in
        let d = Digest.string text in
        if not (Hashtbl.mem projections d) then Hashtbl.add projections d text;
        (r.P.run.Vm.Machine.exit_value, r.P.run.Vm.Machine.output, d))
  in
  let e2e = end_to_end a ops ~window_s ~scaled_s ~setup_s:(setup_s setup) ~peak_mb in
  (* Checks, after the window: the switch interpreter's result and the
     expected projection kept in the data directory. *)
  let reference = Vm.Machine.run ~engine:Vm.Machine.Switch prog in
  let expected =
    Hashtbl.find_opt (Expect.projections (Expect.file a.data a.workload)) scale
  in
  let failed = ref 0 in
  List.iter
    (fun o ->
      let fail why =
        if !failed = 0 then Printf.printf "FAIL op %d: %s\n" o.item why;
        incr failed
      in
      match (o.out, expected) with
      | Error e, _ -> fail e
      | _, None -> fail (Printf.sprintf "no expected projection for scale %d" scale)
      | Ok (exit_value, output, d), Some text ->
          if exit_value <> reference.Vm.Machine.exit_value
             || output <> reference.Vm.Machine.output
          then fail "result differs from the switch interpreter"
          else if d <> Digest.string text then
            let got = String.split_on_char '\n' (Hashtbl.find projections d)
            and want = String.split_on_char '\n' text in
            let rec first_diff = function
              | g :: gs, w :: ws -> if g = w then first_diff (gs, ws) else (g, w)
              | g :: _, [] -> (g, "<end>")
              | [], w :: _ -> ("<end>", w)
              | [], [] -> ("", "")
            in
            let g, w = first_diff (got, want) in
            fail (Printf.sprintf "projection differs: got %S, expected %S" g w))
    ops;
  finish a ~e2e ~ops ~failed:!failed (fun () ->
      layer_probes a st [ subject w ~scale src prog facts ] ~driver:None)

(* verdicts: the offline check / verify / report path over all nine
   registry programs, one program per op, profiles saved at set-up. *)
let verdicts_workload a =
  let st = Gen.rng ~seed:a.seed a.workload in
  let picks =
    Array.of_list (List.map (fun (w : W.t) -> (w, Gen.pick st (Gen.test_band w))) Reg.all)
  in
  let order = Gen.shuffle st (Array.init (Array.length picks) Fun.id) in
  let setup () =
    Array.map
      (fun ((w : W.t), scale) ->
        let src = Span.with_ "workloads.source" (fun () -> w.source ~scale) in
        let prog = Ops.compile src in
        let facts =
          Span.with_ "core.prepare_facts" (fun () -> P.prepare_facts prog)
        in
        let saved = Alchemist.Profile_io.to_string (P.run ~facts prog).P.profile in
        (subject w ~scale src prog facts, saved))
      picks
  in
  let setup, subjects = first_setup setup in
  let subjects = Array.map (fun i -> subjects.(i)) order in
  inputs_line a
    (String.concat " "
       (Array.to_list
          (Array.map (fun (s, _) -> Printf.sprintf "%s:%d" s.w.name s.scale) subjects)))
    (String.concat "" (Array.to_list (Array.map (fun (s, _) -> s.src) subjects)));
  let ops, window_s, scaled_s, peak_mb =
    timed_loop a setup subjects
      (fun (s, saved) -> Ops.verdicts ~src:s.src ~saved)
      ~keep:Fun.id
  in
  let e2e = end_to_end a ops ~window_s ~scaled_s ~setup_s:(setup_s setup) ~peak_mb in
  let expected = Expect.verdict_lines (Expect.file a.data a.workload) in
  let failed = ref 0 in
  List.iter
    (fun o ->
      let s, _ = subjects.(o.item) in
      let fail why =
        if !failed = 0 then Printf.printf "FAIL %s:%d: %s\n" s.w.name s.scale why;
        incr failed
      in
      match o.out with
      | Error e | Ok (Error e) -> fail e
      | Ok (Ok v) ->
          let line = Ops.verdicts_line s.w.name s.scale v in
          if not (List.mem line expected) then
            fail (Printf.sprintf "%S is not in the expected file" line)
          else if v.Ops.report_bytes = 0 then fail "empty report")
    ops;
  finish a ~e2e ~ops ~failed:!failed (fun () ->
      layer_probes a st (Array.to_list (Array.map fst subjects)) ~driver:None)

(* serve-mixed: a stream of registry requests at test scale through an
   in-process service with a fresh cache. Cycle 0 asks for one input of
   each program; every later cycle asks, per program in a seeded order,
   for one new input (a miss that reuses the program's facts) followed
   by [repeats] repeats of inputs from the previous four cycles (hits).

   Five repeats per new input is a chosen mix, not measured traffic:
   nothing in the repository records what a service's requests look
   like. Per program and cycle, the miss and the hit queued behind it
   are slow and the other four hits fast, a slow share of 1/3. That puts
   op_p50_ms at about the 75th percentile of the fast hits and op_p90_ms
   at about the 70th percentile of the slow requests, each well inside
   its own cluster; a mix near 1:1 would put op_p50_ms on the boundary
   between them. *)
let repeats = 5

(* The request plan, per cycle: (program, input seed, input id) per
   request. Drawing it is cheap, so it covers a host many times faster
   than needed; an input is compiled only when its cycle is sent. *)
let serve_plan st ~programs ~cycles =
  let inputs = ref [] and next_id = ref 0 in
  Array.init cycles (fun c ->
      let recent =
        Array.of_list
          (List.filter_map
             (fun (p, k, id, cyc) ->
               if cyc < c && cyc >= c - 4 then Some (p, k, id) else None)
             !inputs)
      in
      let reqs = ref [] in
      Array.iter
        (fun p ->
          let k = Gen.input_seed st and id = !next_id in
          incr next_id;
          inputs := (p, k, id, c) :: !inputs;
          reqs := (p, k, id) :: !reqs;
          if c > 0 then
            for _ = 1 to repeats do
              reqs := Gen.pick st recent :: !reqs
            done)
        (Gen.shuffle st (Array.init programs Fun.id));
      Array.of_list (List.rev !reqs))

(* How the hits and misses of a run fell, printed with every run. *)
let mix_line replies =
  let miss = Hashtbl.create 64 in
  List.iter (fun r -> if Serve.is_miss r then Hashtbl.replace miss r.Serve.index ()) replies;
  let hits = List.filter Serve.is_hit replies in
  let behind =
    List.length (List.filter (fun r -> Hashtbl.mem miss (r.Serve.index - 1)) hits)
  in
  Printf.printf "mix: %d misses, %d hits (%d right behind a miss), hit share %.3f\n"
    (Hashtbl.length miss) (List.length hits) behind
    (Stat.ratio (float (List.length hits)) (float (List.length replies)))

let serve_workload a =
  let st = Gen.rng ~seed:a.seed a.workload in
  let programs = Array.of_list Reg.all in
  let spec (w : W.t) k = Printf.sprintf "%s:%d:seed=%d" w.name w.test_scale k in
  let cycles = 2 + int_of_float (a.seconds /. 0.05) in
  let plan = serve_plan st ~programs:(Array.length programs) ~cycles in
  inputs_line a
    (Printf.sprintf "planned requests=%d cycles=%d"
       (Array.fold_left (fun n c -> n + Array.length c) 0 plan)
       cycles)
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun c ->
               String.concat "\n"
                 (Array.to_list (Array.map (fun (p, k, _) -> spec programs.(p) k) c)))
             plan)));
  let variant (bases : (W.t * string) array) p k =
    let src =
      Span.with_ "workloads.source" (fun () -> Gen.with_input_seed (snd bases.(p)) k)
    in
    Ops.compile src
  in
  (* The requests of cycle [c]. [compiled] holds the programs of the
     inputs a repeat may still ask for, by id, with their cycle. *)
  let requests bases compiled c =
    Array.map
      (fun (p, k, id) ->
        let prog =
          match Hashtbl.find_opt compiled id with
          | Some (_, prog) -> prog
          | None ->
              let prog = variant bases p k in
              Hashtbl.add compiled id (c, prog);
              prog
        in
        { Serve.spec = spec programs.(p) k; prog; input = id })
      plan.(c)
  in
  let setup () =
    let bases =
      Array.map
        (fun (w : W.t) ->
          (w, Span.with_ "workloads.source" (fun () -> w.source ~scale:w.test_scale)))
        programs
    in
    let compiled = Hashtbl.create 64 in
    let first = requests bases compiled 0 in
    (bases, compiled, first, Driver.Service.create ())
  in
  (* All set-ups run before the window. During the window the service's
     worker domain is alive, and each minor collection then stops both
     domains: set-ups run between cycles took 5.4-10 ms against 3.2. *)
  let setup, (bases, compiled, first, svc) =
    first_setup ~before:40 ~discard:(fun (_, _, _, s) -> Driver.Service.shutdown s) setup
  in
  (* Whole cycles until the window is spent. Compiling a cycle's new
     inputs happens between cycles, outside the window, and so does
     dropping the programs no later repeat can ask for. *)
  let budget = int_of_float (a.seconds *. 1e9) in
  let window_ns = ref 0 and replies = ref [] and sent = ref 0 and c = ref 0 in
  let ops = ref [] and scaled_s = ref 0. and before = ref [] and peak_mb = ref 0. in
  while !c < cycles && (!c = 0 || !window_ns < budget) do
    let reqs = if !c = 0 then first else requests bases compiled !c in
    let t0 = now () in
    let r = Serve.client svc ~base:!sent reqs ~traced:(a.trace && !c mod 2 = 1) in
    let cycle_ns = now () - t0 in
    window_ns := !window_ns + cycle_ns;
    if !c = 0 then peak_mb := peak_heap_mb ();
    let after = Host.probe () in
    let k = Host.scale (after :: !before) in
    before := [ after ];
    scaled_s := !scaled_s +. (float cycle_ns /. 1e9 *. k);
    ops :=
      List.rev_append
        (List.map
           (fun (r : Serve.reply) ->
             {
               latency_ms = r.latency_ms *. k;
               raw_ms = r.latency_ms;
               traced = r.traced;
               item = r.index;
               out = Ok ();
             })
           r)
        !ops;
    replies := List.rev_append (List.map Serve.digest r) !replies;
    sent := !sent + Array.length reqs;
    let horizon = !c - 3 in
    Hashtbl.filter_map_inplace
      (fun _ (born, prog) -> if born < horizon then None else Some (born, prog))
      compiled;
    incr c
  done;
  let replies = List.rev !replies and window_s = float !window_ns /. 1e9 in
  let ops = List.rev !ops in
  let e2e =
    end_to_end a ops ~window_s ~scaled_s:!scaled_s ~setup_s:(setup_s setup)
      ~peak_mb:!peak_mb
  in
  mix_line replies;
  let snap = Driver.Service.telemetry svc in
  Driver.Service.shutdown svc;
  (* The checks compile every input again from its plan entry. *)
  let entries = Hashtbl.create 256 in
  Array.iter (Array.iter (fun (p, k, id) -> Hashtbl.replace entries id (p, k))) plan;
  let program id =
    let p, k = Hashtbl.find entries id in
    Vm.Compile.compile_source (Gen.with_input_seed (snd bases.(p)) k)
  in
  (* No time is measured after the window of an untraced run, so its
     checks may use both cores. *)
  let failed = Serve.check ~parallel:(not a.trace) ~program replies in
  finish a ~e2e ~ops ~failed (fun () ->
      let subjects =
        Array.to_list
          (Array.map
             (fun ((w : W.t), src) ->
               let prog = Vm.Compile.compile_source src in
               subject w ~scale:w.test_scale src prog (P.prepare_facts prog))
             bases)
      in
      layer_probes a st subjects ~driver:(Some (driver_metrics snap ~program replies)))

let workloads =
  let gzip = Reg.find "gzip-1.3.5" and delaunay = Reg.find "delaunay" in
  [
    ("profile-gzip", fun a -> profile_workload a gzip (Gen.gzip_band gzip));
    ( "profile-churn",
      fun a -> profile_workload a delaunay (Gen.churn_band delaunay) );
    ("verdicts", verdicts_workload);
    ("serve-mixed", serve_workload);
  ]

let regen data =
  let gzip = Reg.find "gzip-1.3.5" and delaunay = Reg.find "delaunay" in
  Expect.regen_projections ~dir:data ~name:"profile-gzip" gzip (Gen.gzip_band gzip);
  Expect.regen_projections ~dir:data ~name:"profile-churn" delaunay
    (Gen.churn_band delaunay);
  Expect.regen_verdicts ~dir:data ~name:"verdicts"
    (List.map (fun w -> (w, Gen.test_band w)) Reg.all)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let data = ref "perfbench/expected" and spans_dir = ref ".bench_out" in
  let regen_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--data", Arg.Set_string data, "DIR expected outputs");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where traced runs write spans");
      ("--regen", Arg.Set regen_only, " rewrite the expected outputs in --data");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !regen_only then regen !data
  else
    match List.assoc_opt !workload workloads with
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
    | Some run ->
        let a =
          {
            workload = !workload;
            seed = !seed;
            seconds = !seconds;
            trace = !trace = 1;
            data = !data;
            spans_dir = !spans_dir;
          }
        in
        Host.warm_up ();
        let o = run a in
        Printf.printf "failed_op_ratio: %d/%d = %g\n" o.failed o.attempted
          (Stat.ratio (float o.failed) (float o.attempted));
        Stat.print_result ~correct:(o.failed = 0) ~attempted:o.attempted
          ~failed:o.failed o.metrics
