(* The hot-path layer ladder: five cumulative configurations of one
   profiling run, each built here from the layers' public functions with
   the same prune mask and defaults as [Profiler.run] — notably
   [~trace_locals:false], which [Profiler.run] passes and
   [Ir.Engine.run_hooked] does not default to:

   1. dispatch     unhooked [Ir.Engine.run];
   2. hooks        [Ir.Engine.run_hooked] with no-op hooks;
   3. shadow       + [Shadow_memory] read/write/clear_range, null sink;
   4. indexing     + [Indexing.Rules] and [Index_tree];
   5. full         [Profiler.run] (+ attribution walk and edge table).

   Rungs run interleaved, one of each per round, with the order rotated
   every round, so host drift lands on every rung alike. A rung's cost
   is its increment over the rung below it in the same round. *)

module M = Shadow.Shadow_memory

type subject = {
  prog : Vm.Program.t;
  facts : Alchemist.Profiler.facts;
  ipdom : int array;
  mask : bool array;
}

let subject ~facts prog =
  let analysis = Cfa.Analysis.analyze prog in
  let dep = Static.Depend.analyze ~analysis prog in
  let mask, _ =
    Static.Depend.widen_prune dep ~region_hint:(Ir.Refine.region_hints prog)
  in
  { prog; facts; ipdom = analysis.Cfa.Analysis.ipdom_of_pc; mask }

let null_sink ~kind:_ ~head_pc:_ ~head_time:_ ~head_node:_ ~tail_pc:_
    ~tail_time:_ ~tail_node:_ ~addr:_ =
  ()

let dispatch s = ignore (Ir.Engine.run s.prog)

let hooks s =
  ignore (Ir.Engine.run_hooked ~trace_locals:false ~prune:s.mask Vm.Hooks.noop s.prog)

let shadow s =
  let clock = ref 0 and node = Indexing.Node.make () in
  let sh = M.create ~sink:null_sink () in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc:_ -> incr clock);
      on_read = (fun ~pc ~addr -> M.read sh ~addr ~pc ~time:!clock ~node);
      on_write = (fun ~pc ~addr -> M.write sh ~addr ~pc ~time:!clock ~node);
      on_frame_release = (fun ~base ~size -> M.clear_range sh ~base ~size);
    }
  in
  ignore
    (Ir.Engine.run_hooked ~trace_locals:false ~prune:s.mask
       ~instr_range:(fun ~lo ~hi -> clock := !clock + hi - lo + 1)
       ~range_has_target:(fun ~lo:_ ~hi:_ -> false)
       ~set_time:(fun n -> clock := n)
       hooks s.prog)

let indexing s =
  let module T = Indexing.Index_tree in
  let module R = Indexing.Rules in
  let tree = T.create () in
  let rules = R.create ~ipdom:s.ipdom ~tree in
  let sh = M.create ~sink:null_sink () in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc -> R.on_instr rules ~pc);
      on_read =
        (fun ~pc ~addr -> M.read sh ~addr ~pc ~time:(T.now tree) ~node:(T.peek tree));
      on_write =
        (fun ~pc ~addr ->
          M.write sh ~addr ~pc ~time:(T.now tree) ~node:(T.peek tree));
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken -> R.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> R.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> R.on_ret rules);
      on_frame_release = (fun ~base ~size -> M.clear_range sh ~base ~size);
    }
  in
  ignore
    (Ir.Engine.run_hooked ~trace_locals:false ~prune:s.mask
       ~instr_range:(fun ~lo ~hi -> R.on_instr_range rules ~lo ~hi)
       ~range_has_target:(fun ~lo ~hi -> R.range_has_target rules ~lo ~hi)
       ~set_time:(T.set_now tree) hooks s.prog);
  R.finish rules

let full s = ignore (Alchemist.Profiler.run ~facts:s.facts s.prog)

let rungs =
  [| ("dispatch", dispatch); ("hooks", hooks); ("shadow", shadow);
     ("indexing", indexing); ("full", full) |]

(* Hook callbacks one hooked run delivers — the hooks rung's divisor. *)
let hook_events s =
  let n = ref 0 in
  let tick () = incr n in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc:_ -> tick ());
      on_read = (fun ~pc:_ ~addr:_ -> tick ());
      on_write = (fun ~pc:_ ~addr:_ -> tick ());
      on_branch = (fun ~pc:_ ~kind:_ ~cid:_ ~taken:_ -> tick ());
      on_call = (fun ~pc:_ ~fid:_ -> tick ());
      on_ret = (fun ~pc:_ ~fid:_ -> tick ());
      on_frame_release = (fun ~base:_ ~size:_ -> tick ());
    }
  in
  ignore (Ir.Engine.run_hooked ~trace_locals:false ~prune:s.mask hooks s.prog);
  !n

(* Three whole rotations of the five rungs, so each rung runs in each
   position of a round equally often. *)
let rounds = 3 * Array.length rungs

(* [times.(rung)] lists one total per round, in ms, summed over the
   subjects. Each rung starts on a collected heap so it does not pay for
   the garbage of the rung before it. *)
let run subjects =
  let n = Array.length rungs in
  let times = Array.make n [] in
  for round = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (k + round) mod n in
      let name, f = rungs.(i) in
      Gc.full_major ();
      let t0 = Obs.now_ns () in
      Span.with_ ("ladder." ^ name) (fun () -> List.iter f subjects);
      times.(i) <- (float (Obs.now_ns () - t0) /. 1e6) :: times.(i)
    done
  done;
  Array.map List.rev times
