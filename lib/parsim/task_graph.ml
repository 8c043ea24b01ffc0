type instance = { idx : int; start : int; stop : int }
type constraint_location = CInstance of int | CSegment of int

type folded_constraint = {
  head_instance : int;
  location : constraint_location;
  head_off : int;
  tail_off : int;
  kinds : Shadow.Dependence.kind list;
}

type t = {
  total : int;
  instances : instance array;
  constraints : folded_constraint list;
  dropped_privatized : int;
  cross_deps : int;
}

type fold_cell = {
  mutable head_off : int;
  mutable tail_off : int;
  mutable kinds : Shadow.Dependence.kind list;
}

let collect ?fuel ?(trace_locals = false) ?(privatized = []) ?(reductions = [])
    (prog : Vm.Program.t) ~head_pc =
  let is_proc =
    match Vm.Program.construct_at prog head_pc with
    | Some c -> c.kind = Vm.Program.CProc
    | None ->
        invalid_arg
          (Printf.sprintf "Task_graph.collect: pc %d heads no construct" head_pc)
  in
  let analysis = Cfa.Analysis.analyze prog in
  let in_ranges ranges addr =
    List.exists (fun (base, len) -> addr >= base && addr < base + len) ranges
  in
  let is_privatized = in_ranges privatized in
  let is_reduction = in_ranges reductions in
  (* Instance tracking: outermost activations of the chosen construct. *)
  let completed : (int * int) array ref = ref [||] in
  let n_completed = ref 0 in
  let depth = ref 0 in
  let cur_start = ref 0 in
  let push_completed iv =
    let arr = !completed in
    if !n_completed = Array.length arr then begin
      let bigger = Array.make (max 64 (2 * Array.length arr)) (0, 0) in
      Array.blit arr 0 bigger 0 !n_completed;
      completed := bigger
    end;
    !completed.(!n_completed) <- iv;
    incr n_completed
  in
  let on_push (c : Indexing.Node.t) =
    if c.Indexing.Node.label = head_pc then begin
      if !depth = 0 then cur_start := c.Indexing.Node.tenter;
      incr depth
    end
  in
  let pending_claim = ref false in
  let on_pop (c : Indexing.Node.t) =
    if c.Indexing.Node.label = head_pc then begin
      decr depth;
      if !depth = 0 then begin
        push_completed (!cur_start, c.Indexing.Node.texit);
        (* a procedure future is claimed where its return value is
           consumed — immediately after the call unless the value is
           discarded (a [Pop] at the return target) *)
        if is_proc then pending_claim := true
      end
    end
  in
  let tree = Indexing.Index_tree.create ~on_push ~on_pop () in
  let rules =
    Indexing.Rules.create ~ipdom:analysis.Cfa.Analysis.ipdom_of_pc ~tree
  in
  (* Locate a head timestamp: the open instance, a completed one (binary
     search over disjoint ordered intervals), or none (backbone). *)
  let instance_of_time th =
    if !depth > 0 && th >= !cur_start then Some !n_completed
    else begin
      let lo = ref 0 and hi = ref (!n_completed - 1) in
      let found = ref None in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let s, e = !completed.(mid) in
        if th < s then hi := mid - 1
        else if th >= e then lo := mid + 1
        else begin
          found := Some mid;
          lo := !hi + 1
        end
      done;
      !found
    end
  in
  let folds : (int * constraint_location, fold_cell) Hashtbl.t =
    Hashtbl.create 256
  in
  let dropped = ref 0 in
  let cross = ref 0 in
  let fold_constraint ~head_instance ~location ~head_off ~tail_off ~kind =
    incr cross;
    let key = (head_instance, location) in
    match Hashtbl.find_opt folds key with
    | Some cell ->
        if head_off - tail_off > cell.head_off - cell.tail_off then begin
          cell.head_off <- head_off;
          cell.tail_off <- tail_off
        end;
        if not (List.mem kind cell.kinds) then cell.kinds <- kind :: cell.kinds
    | None -> Hashtbl.add folds key { head_off; tail_off; kinds = [ kind ] }
  in
  let on_dep (d : Shadow.Dependence.t) =
    match d.kind with
    | _ when is_reduction d.addr -> incr dropped
    | (Shadow.Dependence.War | Shadow.Dependence.Waw)
      when is_privatized d.addr ->
        incr dropped
    | _ -> (
        let th = d.head.Shadow.Dependence.time in
        match instance_of_time th with
        | None -> () (* head in the backbone: sequentially ordered anyway *)
        | Some i ->
            let head_start =
              if i = !n_completed then !cur_start else fst !completed.(i)
            in
            let head_off = th - head_start in
            let tt = d.tail.Shadow.Dependence.time in
            if !depth > 0 && tt >= !cur_start then begin
              (* tail inside the open instance *)
              if i <> !n_completed then
                fold_constraint ~head_instance:i
                  ~location:(CInstance !n_completed)
                  ~head_off
                  ~tail_off:(tt - !cur_start)
                  ~kind:d.kind
            end
            else if i <> !n_completed then
              (* tail in the backbone after [!n_completed] instances *)
              fold_constraint ~head_instance:i ~location:(CSegment !n_completed)
                ~head_off ~tail_off:tt ~kind:d.kind)
  in
  let shadow = Shadow.Shadow_memory.create ~on_dep () in
  let enclosing () = Option.get (Indexing.Index_tree.top tree) in
  let hooks =
    {
      Vm.Hooks.on_instr =
        (fun ~pc ->
          Indexing.Rules.on_instr rules ~pc;
          if !pending_claim then begin
            pending_claim := false;
            if prog.code.(pc) <> Vm.Instr.Pop then begin
              let i = !n_completed - 1 in
              let s, e = !completed.(i) in
              fold_constraint ~head_instance:i ~location:(CSegment !n_completed)
                ~head_off:(e - s)
                ~tail_off:(Indexing.Index_tree.now tree)
                ~kind:Shadow.Dependence.Raw
            end
          end);
      on_read =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.read shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree)
            ~node:(enclosing ()));
      on_write =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.write shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree)
            ~node:(enclosing ()));
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken ->
          Indexing.Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
      on_frame_release =
        (fun ~base ~size ->
          Shadow.Shadow_memory.clear_range shadow ~base ~size);
    }
  in
  let r = Ir.Engine.run_hooked ~trace_locals ?fuel hooks prog in
  Indexing.Rules.finish rules;
  let instances =
    Array.init !n_completed (fun i ->
        let start, stop = !completed.(i) in
        { idx = i; start; stop })
  in
  let constraints =
    Hashtbl.fold
      (fun (head_instance, location) (cell : fold_cell) acc ->
        {
          head_instance;
          location;
          head_off = cell.head_off;
          tail_off = cell.tail_off;
          kinds = cell.kinds;
        }
        :: acc)
      folds []
  in
  {
    total = r.Vm.Machine.instructions;
    instances;
    constraints;
    dropped_privatized = !dropped;
    cross_deps = !cross;
  }
