(* The operations the workloads time, each a sequence of calls into the
   layers' public functions with their defaults, and the projections the
   output checks compare. *)

module P = Alchemist.Profile

let compile src =
  let ast = Span.with_ "minic.frontend" (fun () -> Minic.Frontend.load src) in
  Span.with_ "vm.compile" (fun () -> Vm.Compile.compile ast)

(* profile-gzip / profile-churn: one profile of the program, serialized. *)
let profile ~facts prog =
  let r =
    Span.with_ "core.profiler_run" (fun () ->
        Alchemist.Profiler.run ~facts prog)
  in
  let bytes =
    Span.with_ "core.write" (fun () ->
        Alchemist.Profile_io.to_string r.Alchemist.Profiler.profile)
  in
  (r, bytes)

let kind_tag = function
  | Shadow.Dependence.Raw -> "RAW"
  | Shadow.Dependence.War -> "WAR"
  | Shadow.Dependence.Waw -> "WAW"

(* The dynamic projection of a profile: per construct its instance count
   and total Tdur, per attributed edge its kind, head, tail and min Tdep.
   Static verdict blocks are left out; the verdicts workload checks
   those. *)
let projection (p : P.t) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (cp : P.construct_profile) ->
      if cp.P.instances > 0 || P.num_edges cp > 0 then begin
        Printf.bprintf b "c %d %d %d\n" cp.P.cid cp.P.instances cp.P.ttotal;
        P.fold_edges cp
          (fun (k : P.edge_key) (s : P.edge_stats) acc ->
            (kind_tag k.P.kind, k.P.head_pc, k.P.tail_pc, s.P.min_tdep) :: acc)
          []
        |> List.sort compare
        |> List.iter (fun (k, h, t, d) ->
               Printf.bprintf b "e %d %s %d %d %d\n" cp.P.cid k h t d)
      end)
    p.P.by_cid;
  Buffer.contents b

(* What one verdicts op concludes about a program: race statuses over
   its constructs, legality verdicts over its recorded edges, and the
   sanitizer's issues by category. *)
type verdicts = {
  race : int * int * int;  (** race-free, racy, unknown *)
  legality : int * int * int;  (** privatizable, reduction, serializing *)
  issues : int list;  (** per {!Alchemist.Sanitize.all_categories} *)
  report_bytes : int;
}

let verdicts_line name scale v =
  let a, b, c = v.race and d, e, f = v.legality in
  Printf.sprintf "%s %d race %d %d %d legality %d %d %d issues %s" name scale a
    b c d e f
    (String.concat " " (List.map string_of_int v.issues))

(* verdicts: the offline check / verify / report path over one program
   and its saved profile. *)
let verdicts ~src ~saved =
  let prog = compile src in
  let analysis =
    Span.with_ "cfa.analyze" (fun () -> Cfa.Analysis.analyze prog)
  in
  let dep =
    Span.with_ "static.depend" (fun () ->
        Static.Depend.analyze ~analysis prog)
  in
  match
    Span.with_ "core.read" (fun () -> Alchemist.Profile_io.read prog saved)
  with
  | Error msg -> Error ("profile read: " ^ msg)
  | Ok p ->
      let legality =
        Span.with_ "static.legality" (fun () ->
            let l = Static.Depend.legality dep in
            let priv = ref 0 and red = ref 0 and serial = ref 0 in
            Array.iter
              (fun cp ->
                P.iter_edges cp (fun (k : P.edge_key) _ ->
                    match
                      Static.Legality.classify l ~kind:k.P.kind
                        ~head_pc:k.P.head_pc ~tail_pc:k.P.tail_pc
                    with
                    | Some Static.Legality.Privatizable -> incr priv
                    | Some Static.Legality.Reduction -> incr red
                    | Some Static.Legality.Serializing -> incr serial
                    | None -> ()))
              p.P.by_cid;
            (!priv, !red, !serial))
      in
      let race =
        Span.with_ "static.race" (fun () ->
            let r = Static.Depend.race dep in
            let free = ref 0 and racy = ref 0 and unknown = ref 0 in
            Array.iter
              (fun (c : Vm.Program.construct_info) ->
                match Static.Race.verdict r ~cid:c.Vm.Program.cid with
                | Some Static.Race.Race_free -> incr free
                | Some (Static.Race.Racy _) -> incr racy
                | Some (Static.Race.Unknown _) -> incr unknown
                | None -> ())
              prog.Vm.Program.constructs;
            (!free, !racy, !unknown))
      in
      let found =
        Span.with_ "core.sanitize" (fun () -> Alchemist.Sanitize.check ~dep p)
      in
      let ranked =
        Span.with_ "core.rank" (fun () -> Alchemist.Ranking.rank ~dep p)
      in
      let report =
        Span.with_ "core.report" (fun () ->
            Alchemist.Report.render p
            ^ String.concat ""
                (List.mapi
                   (fun i e ->
                     Format.asprintf "%2d. %a\n" (i + 1)
                       Alchemist.Ranking.pp_entry e)
                   (List.filteri (fun i _ -> i < 10) ranked)))
      in
      let issues =
        List.map
          (fun c ->
            List.length
              (List.filter
                 (fun (i : Alchemist.Sanitize.issue) ->
                   i.Alchemist.Sanitize.category = c)
                 found))
          Alchemist.Sanitize.all_categories
      in
      Ok { race; legality; issues; report_bytes = String.length report }
