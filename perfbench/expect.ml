(* Expected outputs kept in perfbench/expected/. They are written once by
   [bench.exe --regen] and every file is cross-checked by code other than
   the profiler before it is written: the reference switch interpreter
   for the program's result, the construct-blind flat profiler for every
   edge, and a clean sanitizer run. A timed run then compares against
   the files, never against a second run of the code it times. *)

module W = Workloads.Workload

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Projection files: "scale N" starts a section, "#" lines are comments. *)
let projections path =
  let tbl = Hashtbl.create 8 in
  let flush scale b =
    match scale with Some s -> Hashtbl.replace tbl s (Buffer.contents b) | None -> ()
  in
  let scale, b =
    List.fold_left
      (fun (scale, b) l ->
        if l = "" || l.[0] = '#' then (scale, b)
        else
          match String.split_on_char ' ' l with
          | [ "scale"; n ] ->
              flush scale b;
              (Some (int_of_string n), Buffer.create 4096)
          | _ ->
              Buffer.add_string b l;
              Buffer.add_char b '\n';
              (scale, b))
      (None, Buffer.create 0)
      (read_lines path)
  in
  flush scale b;
  tbl

(* Verdict files: one [Ops.verdicts_line] per program and scale. *)
let verdict_lines path =
  List.filter (fun l -> l <> "" && l.[0] <> '#') (read_lines path)

let file dir name = Filename.concat dir (name ^ ".txt")

(* The cross-checks a projection must pass before it is written. *)
let cross_check prog (r : Alchemist.Profiler.result) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let reference = Vm.Machine.run ~engine:Vm.Machine.Switch prog in
  if reference.Vm.Machine.exit_value <> r.run.Vm.Machine.exit_value
     || reference.Vm.Machine.output <> r.run.Vm.Machine.output
  then fail "result differs from the switch interpreter";
  let flat = Hashtbl.create 256 in
  List.iter
    (fun (e : Baselines.Flat_profiler.edge) ->
      Hashtbl.replace flat (e.head_pc, e.tail_pc, e.kind) e.min_distance)
    (Baselines.Flat_profiler.run prog).Baselines.Flat_profiler.edges;
  Array.iter
    (fun cp ->
      Alchemist.Profile.iter_edges cp
        (fun (k : Alchemist.Profile.edge_key) (s : Alchemist.Profile.edge_stats) ->
          let kind =
            match k.kind with
            | Shadow.Dependence.Raw -> `Raw
            | Shadow.Dependence.War -> `War
            | Shadow.Dependence.Waw -> `Waw
          in
          match Hashtbl.find_opt flat (k.head_pc, k.tail_pc, kind) with
          | None -> fail "edge %d->%d missing from the flat profile" k.head_pc k.tail_pc
          | Some m when m > s.min_tdep ->
              fail "edge %d->%d: flat min %d above min Tdep %d" k.head_pc
                k.tail_pc m s.min_tdep
          | Some _ -> ()))
    r.profile.Alchemist.Profile.by_cid;
  List.iter
    (fun i -> fail "sanitizer: %s" (Format.asprintf "%a" Alchemist.Sanitize.pp_issue i))
    (Alchemist.Sanitize.check r.profile);
  List.rev !problems

(* A band whose scales give two equal dynamic projections would let the
   seed pick the same input twice. *)
let distinct_band (w : W.t) seen scale projection =
  (match Hashtbl.find_opt seen projection with
  | Some other ->
      failwith
        (Printf.sprintf "%s: scales %d and %d give the same profile" w.name other scale)
  | None -> ());
  Hashtbl.add seen projection scale

let regen_projections ~dir ~name (w : W.t) scales =
  let path = file dir name in
  let oc = open_out path in
  Printf.fprintf oc
    "# %s: dynamic projection of the %s profile at each input scale.\n\
     # c <cid> <instances> <total Tdur>\n\
     # e <cid> <kind> <head pc> <tail pc> <min Tdep>\n\
     # Written by bench.exe --regen after the switch-interpreter, flat-profiler\n\
     # and sanitizer cross-checks passed.\n"
    name w.name;
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun scale ->
      let prog = Vm.Compile.compile_source (w.source ~scale) in
      let r = Alchemist.Profiler.run prog in
      (match cross_check prog r with
      | [] -> ()
      | m :: _ -> failwith (Printf.sprintf "%s at scale %d: %s" w.name scale m));
      let projection = Ops.projection r.profile in
      distinct_band w seen scale projection;
      Printf.fprintf oc "scale %d\n%s" scale projection)
    scales;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let regen_verdicts ~dir ~name bands =
  let path = file dir name in
  let oc = open_out path in
  Printf.fprintf oc
    "# %s: <program> <scale> race <race-free> <racy> <unknown>\n\
     # legality <privatizable> <reduction> <serializing> issues <per sanitizer\n\
     # category: %s>\n\
     # Written by bench.exe --regen; every profile behind a line passed the\n\
     # switch-interpreter, flat-profiler and sanitizer cross-checks.\n"
    name
    (String.concat " "
       (List.map Alchemist.Sanitize.category_to_string
          Alchemist.Sanitize.all_categories));
  List.iter
    (fun ((w : W.t), scales) ->
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun scale ->
          let src = w.source ~scale in
          let prog = Vm.Compile.compile_source src in
          let r = Alchemist.Profiler.run prog in
          (match cross_check prog r with
          | [] -> ()
          | m :: _ -> failwith (Printf.sprintf "%s at scale %d: %s" w.name scale m));
          distinct_band w seen scale (Ops.projection r.profile);
          match
            Ops.verdicts ~src ~saved:(Alchemist.Profile_io.to_string r.profile)
          with
          | Error m -> failwith m
          | Ok v -> output_string oc (Ops.verdicts_line w.name scale v ^ "\n"))
        scales)
    bands;
  close_out oc;
  Printf.printf "wrote %s\n%!" path
