(* Tests for the execution-indexing machinery: construct pool, index tree,
   and the Fig. 5 rules driven by real executions (Fig. 4 examples). *)

module Node = Indexing.Node
module Pool = Indexing.Construct_pool
module Tree = Indexing.Index_tree
module Rules = Indexing.Rules

(* --- construct pool -------------------------------------------------------- *)

let test_pool_reuse () =
  let pool = Pool.create ~capacity:1 () in
  (* A completed instance [10,20) is retirable at time >= 30. *)
  let n = Pool.acquire pool ~now:0 in
  n.Node.tenter <- 10;
  n.Node.texit <- 20;
  Pool.release pool n;
  let n2 = Pool.acquire pool ~now:25 in
  Alcotest.(check bool) "not recycled before window" true (n2 != n);
  Pool.release pool n2;
  (* note: n2 is fresh (tenter=texit=0 from make? acquired node reused fields) *)
  let n3 = Pool.acquire pool ~now:31 in
  Alcotest.(check bool) "head recycled after window" true (n3 == n)

let test_pool_counts () =
  let pool = Pool.create ~capacity:2 () in
  let a = Pool.acquire pool ~now:0 in
  let b = Pool.acquire pool ~now:0 in
  Alcotest.(check int) "allocated" 2 (Pool.allocated pool);
  a.Node.tenter <- 0;
  a.Node.texit <- 1;
  Pool.release pool a;
  b.Node.tenter <- 0;
  b.Node.texit <- 1;
  Pool.release pool b;
  let _ = Pool.acquire pool ~now:100 in
  Alcotest.(check int) "reused" 1 (Pool.reused pool);
  Alcotest.(check int) "no new allocation" 2 (Pool.allocated pool)

(* Staleness safety: a recycled node can never satisfy [covers] for a
   timestamp recorded during its previous lifetime. *)
let test_pool_staleness_qcheck () =
  let gen =
    QCheck.Gen.(
      tup3 (int_range 0 1000) (int_range 1 1000) (int_range 0 2000))
  in
  let prop (tenter, dur, gap) =
    let texit = tenter + dur in
    let pool = Pool.create ~capacity:1 () in
    let n = Pool.acquire pool ~now:tenter in
    n.Node.tenter <- tenter;
    n.Node.texit <- texit;
    Pool.release pool n;
    let now = texit + gap in
    let n2 = Pool.acquire pool ~now in
    if n2 == n then begin
      (* Simulate reuse stamping as Index_tree.push does. *)
      n.Node.tenter <- now;
      n.Node.texit <- 0;
      (* No old timestamp may still fall in the window. *)
      let ok = ref true in
      for th = tenter to texit - 1 do
        if Node.covers n th then ok := false
      done;
      !ok
    end
    else true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"recycled node never covers old timestamps"
       ~count:500 (QCheck.make gen) prop)

(* --- index tree ------------------------------------------------------------ *)

let test_tree_push_pop () =
  let popped = ref [] in
  let t = Tree.create ~on_pop:(fun c -> popped := c.Node.label :: !popped) () in
  Tree.tick t;
  let a = Tree.push t ~label:1 ~is_func:true in
  Tree.tick t;
  let b = Tree.push t ~label:2 ~is_func:false in
  Alcotest.(check (option int)) "top is b" (Some 2)
    (Option.map (fun c -> c.Node.label) (Tree.top t));
  Alcotest.(check (list int)) "index" [ 1; 2 ] (Tree.index_of_top t);
  Alcotest.(check bool) "parent link" true (b.Node.parent == a);
  Alcotest.(check bool) "root links to the sentinel" true
    (a.Node.parent == Node.none);
  Tree.tick t;
  let b' = Tree.pop t in
  Alcotest.(check bool) "pop returns top" true (b == b');
  Alcotest.(check int) "texit stamped" 3 b'.Node.texit;
  Alcotest.(check int) "tenter stamped" 2 b'.Node.tenter;
  ignore (Tree.pop t);
  Alcotest.(check (list int)) "pop order" [ 1; 2 ] !popped;
  Alcotest.(check int) "empty" 0 (Tree.depth t)

let test_tree_pop_through () =
  let t = Tree.create () in
  let _f = Tree.push t ~label:100 ~is_func:true in
  let _l = Tree.push t ~label:5 ~is_func:false in
  let _g = Tree.push t ~label:7 ~is_func:false in
  (* pop_through for label 5 pops 7 then 5. *)
  Alcotest.(check bool) "found" true (Tree.pop_through t ~label:5);
  Alcotest.(check int) "only func left" 1 (Tree.depth t);
  (* absent label: no pops *)
  Alcotest.(check bool) "not found" false (Tree.pop_through t ~label:5);
  Alcotest.(check int) "depth unchanged" 1 (Tree.depth t);
  (* never crosses a function boundary *)
  let _l2 = Tree.push t ~label:9 ~is_func:false in
  let _f2 = Tree.push t ~label:101 ~is_func:true in
  Alcotest.(check bool) "stops at function" false (Tree.pop_through t ~label:9);
  Alcotest.(check int) "depth unchanged 2" 3 (Tree.depth t)

let test_tree_pop_empty () =
  let t = Tree.create () in
  match Tree.pop t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Fig. 4 style examples, via real executions -------------------------- *)

(* Build an execution-index event trace (pushes with their index paths) for
   a program, by replaying the hooks through Rules. *)
let trace_indices src =
  let prog = Vm.Compile.compile_source src in
  let a = Cfa.Analysis.analyze prog in
  let tree = Tree.create () in
  let rules = Rules.create ~ipdom:a.Cfa.Analysis.ipdom_of_pc ~tree in
  let events = ref [] in
  let name_of label =
    match Vm.Program.construct_at prog label with
    | Some c -> (
        match c.Vm.Program.kind with
        | Vm.Program.CProc -> c.Vm.Program.cname
        | Vm.Program.CLoop -> Printf.sprintf "L%d" c.Vm.Program.loc.Minic.Srcloc.line
        | Vm.Program.CCond -> Printf.sprintf "I%d" c.Vm.Program.loc.Minic.Srcloc.line)
    | None -> Printf.sprintf "pc%d" label
  in
  let snapshot () = List.map name_of (Tree.index_of_top tree) in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc -> Rules.on_instr rules ~pc);
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken ->
          Rules.on_branch rules ~pc ~kind ~taken;
          if kind <> Vm.Instr.BrSc then events := snapshot () :: !events);
      on_call =
        (fun ~pc ~fid:_ ->
          Rules.on_call rules ~entry_pc:pc;
          events := snapshot () :: !events);
      on_ret = (fun ~pc:_ ~fid:_ -> Rules.on_ret rules);
    }
  in
  ignore (Vm.Machine.run_hooked hooks prog);
  Rules.finish rules;
  (List.rev !events, Rules.forced_pops rules, Tree.depth tree)

(* Fig. 4(a): procedure nesting. *)
let test_fig4a_procedures () =
  let src =
    {| void B() { int s2 = 0; }
       void A() { int s1 = 0; B(); }
       int main() { A(); return 0; } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "stack drained" 0 depth;
  Alcotest.(check bool) "B nested in A" true
    (List.mem [ "main"; "A"; "B" ] indices)

(* Fig. 4(b): nested conditionals — the inner if's index is [C; outer]. *)
let test_fig4b_conditionals () =
  let src =
    {| int main() {
         int x = 1;
         if (x) {
           int s3 = 0;
           if (x) { int s4 = 0; }
         }
         return 0;
       } |}
  in
  let indices, forced, _ = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  (* Inner predicate pushes while outer construct is open: index length 3
     (main, outer if, inner if). *)
  Alcotest.(check bool) "inner if nested in outer" true
    (List.exists (fun ix -> List.length ix = 3 && List.hd ix = "main") indices)

(* Fig. 4(c): loop iterations are siblings — when the inner loop runs
   twice within one outer iteration, both pushes see the same index path
   (outer iteration), not increasing depth. *)
let test_fig4c_loop_iterations () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 2; i++) {
           for (int j = 0; j < 2; j++) { s++; }
         }
         return s;
       } |}
  in
  let indices, forced, _ = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  (* All inner-loop iteration snapshots have depth exactly 3:
     [main; outer-iter; inner-iter] — siblings, never 4. *)
  let inner = List.filter (fun ix -> List.length ix >= 3) indices in
  Alcotest.(check bool) "inner iterations exist" true (inner <> []);
  List.iter
    (fun ix ->
      Alcotest.(check int) "iterations are siblings, not nested" 3
        (List.length ix))
    inner

(* Break guards must not make later iterations nest deeper (the rule-4
   unwind): depth at each loop-iteration push stays constant. *)
let test_break_guard_iterations_stay_siblings () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 20; i++) {
           if (i == 50) break;   // never taken, but ipdom is the loop exit
           s += i;
         }
         return s;
       } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "drained" 0 depth;
  let max_depth = List.fold_left (fun m ix -> max m (List.length ix)) 0 indices in
  (* main + loop iteration + guard if = 3; without the unwind this would
     grow to ~22. *)
  Alcotest.(check int) "bounded depth" 3 max_depth

let test_continue_guard () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 10; i++) {
           if (i % 2) continue;
           s += i;
         }
         return s;
       } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "drained" 0 depth;
  let max_depth = List.fold_left (fun m ix -> max m (List.length ix)) 0 indices in
  Alcotest.(check int) "bounded depth" 3 max_depth

let test_return_inside_loop () =
  let src =
    {| int find(int a[], int n, int v) {
         for (int i = 0; i < n; i++) {
           if (a[i] == v) return i;
         }
         return -1;
       }
       int a[8];
       int main() {
         for (int i = 0; i < 8; i++) a[i] = i * 3;
         return find(a, 8, 12) + find(a, 8, 99);
       } |}
  in
  let _, forced, depth = trace_indices src in
  Alcotest.(check int) "drained" 0 depth;
  (* The early return jumps over the loop exit; on_ret pops the pending
     loop/if constructs. Those are exactly the "forced" pops. *)
  Alcotest.(check bool) "forced pops bounded" true (forced <= 4)

(* Pool bound (Theorem 1 in practice): a long loop creates millions of
   dynamic instances but the tree allocates O(1) nodes. *)
let test_pool_bound_long_loop () =
  let src =
    {| int g;
       int main() {
         for (int i = 0; i < 20000; i++) { g += i; if (g > 1000000) g = 0; }
         return g;
       } |}
  in
  let prog = Vm.Compile.compile_source src in
  let a = Cfa.Analysis.analyze prog in
  let pops = ref 0 in
  let tree = Tree.create ~pool_capacity:16 ~on_pop:(fun _ -> incr pops) () in
  let rules = Rules.create ~ipdom:a.Cfa.Analysis.ipdom_of_pc ~tree in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc -> Rules.on_instr rules ~pc);
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken -> Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Rules.on_ret rules);
    }
  in
  ignore (Vm.Machine.run_hooked hooks prog);
  Rules.finish rules;
  Alcotest.(check bool) "many dynamic instances" true (!pops > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "bounded allocation (%d nodes)" (Tree.pool_allocated tree))
    true
    (Tree.pool_allocated tree < 64)

(* pool.scan_len must have one observation per acquire — including the
   below-capacity fresh-allocation path, which BENCH_2 showed recording
   nothing — and a nonzero sum once churn forces actual queue scans. *)
let test_pool_scan_len_telemetry () =
  let reg = Obs.Registry.create () in
  let pool = Pool.create ~capacity:2 () in
  Pool.register_obs pool reg;
  let dist () =
    match Obs.find (Obs.Registry.snapshot reg) "pool.scan_len" with
    | Some (Obs.Dist { count; sum; _ }) -> (count, sum)
    | _ -> Alcotest.fail "pool.scan_len not registered"
  in
  (* Two below-capacity acquires: observed as zero-length scans. *)
  let a = Pool.acquire pool ~now:0 in
  let b = Pool.acquire pool ~now:0 in
  Alcotest.(check (pair int int)) "fresh path observed" (2, 0) (dist ());
  (* Churn at capacity: instances [0,10) only retire at now >= 20, so the
     next acquire scans and rotates both entries without reusing. *)
  a.Node.tenter <- 0;
  a.Node.texit <- 10;
  Pool.release pool a;
  b.Node.tenter <- 0;
  b.Node.texit <- 10;
  Pool.release pool b;
  (* now=12 < 20: neither is retirable; scan walks both and allocates. *)
  let _ = Pool.acquire pool ~now:12 in
  let count, sum = dist () in
  Alcotest.(check int) "scan observed per acquire" 3 count;
  Alcotest.(check int) "two entries examined" 2 sum;
  (* now=25 >= 20: head is retirable after examining one entry. *)
  let _ = Pool.acquire pool ~now:25 in
  let count', sum' = dist () in
  Alcotest.(check int) "reuse observed" 4 count';
  Alcotest.(check int) "one more entry examined" 3 sum';
  Alcotest.(check int) "reused" 1 (Pool.reused pool)

(* End-to-end churn through the profiler: a tiny pool capacity on a
   loop-heavy program must take the scan path and report it. *)
let test_pool_churn_profiled () =
  let src =
    {| int g;
       int main() {
         for (int i = 0; i < 5000; i++) { g += i; if (g > 100000) g = 0; }
         return g;
       } |}
  in
  let r =
    Alchemist.Profiler.run ~pool_capacity:8
      (Vm.Compile.compile_source src)
  in
  match Obs.find (Alchemist.Profiler.telemetry r) "pool.scan_len" with
  | Some (Obs.Dist { count; sum; _ }) ->
      Alcotest.(check bool) "count covers acquires" true (count > 5_000);
      Alcotest.(check bool) "scans actually walked entries" true (sum > 0)
  | _ -> Alcotest.fail "pool.scan_len not in profiler telemetry"

let suite =
  [
    ("pool reuse window", `Quick, test_pool_reuse);
    ("pool counts", `Quick, test_pool_counts);
    ("pool scan_len telemetry", `Quick, test_pool_scan_len_telemetry);
    ("pool churn profiled", `Quick, test_pool_churn_profiled);
    ("pool staleness (qcheck)", `Quick, test_pool_staleness_qcheck);
    ("tree push/pop", `Quick, test_tree_push_pop);
    ("tree pop_through", `Quick, test_tree_pop_through);
    ("tree pop empty", `Quick, test_tree_pop_empty);
    ("fig4a procedures", `Quick, test_fig4a_procedures);
    ("fig4b conditionals", `Quick, test_fig4b_conditionals);
    ("fig4c loop iterations", `Quick, test_fig4c_loop_iterations);
    ("break guard siblings", `Quick, test_break_guard_iterations_stay_siblings);
    ("continue guard", `Quick, test_continue_guard);
    ("return inside loop", `Quick, test_return_inside_loop);
    ("pool bound long loop", `Quick, test_pool_bound_long_loop);
  ]
