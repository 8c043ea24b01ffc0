type t = {
  pool : Construct_pool.t;
  mutable stack : Node.t array;
  mutable sp : int;
  mutable time : int;
  o_depth : Obs.Gauge.t;
  on_push : Node.t -> unit;
  on_pop : Node.t -> unit;
}

let create ?scan_limit ?pool_capacity ?(on_push = fun _ -> ())
    ?(on_pop = fun _ -> ()) () =
  {
    pool = Construct_pool.create ?scan_limit ?capacity:pool_capacity ();
    stack = Array.make 64 (Node.make ());
    sp = 0;
    time = 0;
    o_depth = Obs.Gauge.make ();
    on_push;
    on_pop;
  }

let[@inline] now t = t.time
let[@inline] tick t = t.time <- t.time + 1
let[@inline] bulk_tick t n = t.time <- t.time + n
let[@inline] set_now t n = t.time <- n
let[@inline] depth t = t.sp
let top t = if t.sp = 0 then None else Some t.stack.(t.sp - 1)

(* Option-free [top] for per-instruction hot paths: the boxing in [top]
   is one minor-heap allocation per call, which at one call per executed
   instruction is the profiler's single largest allocation source. *)
let[@inline] peek t = t.stack.(t.sp - 1)

let push t ~label ~is_func =
  let c = Construct_pool.acquire t.pool ~now:t.time in
  c.Node.label <- label;
  c.Node.tenter <- t.time;
  c.Node.texit <- 0;
  c.Node.parent <- (if t.sp = 0 then Node.none else t.stack.(t.sp - 1));
  c.Node.is_func <- is_func;
  if t.sp = Array.length t.stack then begin
    let stack = Array.make (2 * t.sp) c in
    Array.blit t.stack 0 stack 0 t.sp;
    t.stack <- stack
  end;
  t.stack.(t.sp) <- c;
  t.sp <- t.sp + 1;
  Obs.Gauge.set t.o_depth t.sp;
  t.on_push c;
  c

let pop t =
  if t.sp = 0 then invalid_arg "Index_tree.pop: empty stack";
  t.sp <- t.sp - 1;
  let c = t.stack.(t.sp) in
  c.Node.texit <- t.time;
  t.on_pop c;
  Construct_pool.release t.pool c;
  c

let pop_through t ~label =
  (* Search down to (not through) the nearest function node. *)
  let rec find i =
    if i < 0 then None
    else
      let c = t.stack.(i) in
      if c.Node.label = label && not c.Node.is_func then Some i
      else if c.Node.is_func then None
      else find (i - 1)
  in
  match find (t.sp - 1) with
  | None -> false
  | Some i ->
      while t.sp > i do
        ignore (pop t)
      done;
      true

let index_of_top t = Array.to_list (Array.sub t.stack 0 t.sp) |> List.map (fun c -> c.Node.label)

let pool_allocated t = Construct_pool.allocated t.pool
let pool_reused t = Construct_pool.reused t.pool

let register_obs t reg =
  Obs.Registry.register_gauge reg "tree.depth" t.o_depth;
  Construct_pool.register_obs t.pool reg

let stats t =
  Printf.sprintf "depth=%d time=%d pool_allocated=%d pool_reused=%d pool_size=%d"
    t.sp t.time
    (Construct_pool.allocated t.pool)
    (Construct_pool.reused t.pool)
    (Construct_pool.size t.pool)
