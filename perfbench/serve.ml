(* A closed-loop client of an in-process [Driver.Service]: one client
   keeping two requests in flight. Request [i] is submitted only after
   reply [i-2] arrived, so a stream that repeats an input at least two
   requests after its first sighting is served from the cache on every
   run, whatever the timing. *)

module S = Driver.Service

type request = { spec : string; prog : Vm.Program.t; input : int }

type reply = {
  index : int;
  spec : string;
  input : int;
  latency_ms : float;
  result : (S.outcome * string, string) result;
      (** the profile's bytes, or their digest after {!digest};
          [Error] for an error reply *)
  traced : bool;
}

(* The harness keeps each reply's digest, not its bytes, so a long
   window does not hold every missed profile alive. Digesting runs
   between cycles, outside the window. *)
let digest r = { r with result = Result.map (fun (o, b) -> (o, Digest.string b)) r.result }

let in_flight = 2

(* Sends [requests] in order and returns once every reply has arrived.
   Reply [i] of the slice gets index [base + i]; [traced] says whether
   the slice records spans. *)
let client svc ?(base = 0) (requests : request array) ~traced =
  let n = Array.length requests in
  let pending = Queue.create () in
  let next = ref 0 and replies = ref [] in
  while !next < n || not (Queue.is_empty pending) do
    while Queue.length pending < in_flight && !next < n do
      let i = base + !next in
      let r = requests.(!next) in
      incr next;
      let t0 = Obs.now_ns () in
      S.submit svc ~spec:r.spec r.prog;
      Queue.push (i, r, t0, Obs.now_ns ()) pending
    done;
    match S.ready svc with
    | [] -> Unix.sleepf 0.0001
    | ready ->
        List.iter
          (fun (rep : S.reply) ->
            let i, r, t0, t_submitted = Queue.pop pending in
            let now = Obs.now_ns () in
            if traced then begin
              let op =
                Span.record ~name:"driver.request" ~start:t0 ~stop:now
                  ~parent:(-1) ~op:i
              in
              ignore
                (Span.record ~name:"driver.submit" ~start:t0
                   ~stop:t_submitted ~parent:op ~op:i)
            end;
            replies :=
              {
                index = i;
                spec = r.spec;
                input = r.input;
                latency_ms = float (now - t0) /. 1e6;
                result = Result.map (fun (o, _, b) -> (o, b)) rep.S.result;
                traced;
              }
              :: !replies)
          ready
  done;
  List.rev !replies

let is_hit r = match r.result with Ok ((S.Hit | S.Disk_hit), _) -> true | _ -> false
let is_miss r = match r.result with Ok (S.Computed, _) -> true | _ -> false

(* The distinct inputs of [replies], in order of first reply. *)
let inputs replies =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      if Hashtbl.mem seen r.input then None
      else begin
        Hashtbl.add seen r.input ();
        Some r.input
      end)
    replies

(* Every digested reply must equal, byte for byte (compared by digest),
   a direct [Profiler.run] of the same program, which computes its own
   static facts; an error reply fails. [program id] gives input [id]'s
   program.
   Returns the number of failed replies. With [~parallel] the direct runs
   are shared with a second domain. *)
let check ~parallel ~program replies =
  let run_all =
    List.map (fun (id, prog) ->
        ( id,
          Digest.string
            (Alchemist.Profile_io.to_string
               (Alchemist.Profiler.run prog).Alchemist.Profiler.profile) ))
  in
  let todo = List.map (fun id -> (id, program id)) (inputs replies) in
  let results =
    if not parallel then run_all todo
    else
      let mine, theirs = List.partition (fun (id, _) -> id mod 2 = 0) todo in
      let other = Domain.spawn (fun () -> run_all theirs) in
      let a = run_all mine in
      a @ Domain.join other
  in
  let direct = Hashtbl.create 64 in
  List.iter (fun (id, d) -> Hashtbl.replace direct id d) results;
  let failed = ref 0 in
  List.iter
    (fun r ->
      match r.result with
      | Ok (_, d) when Digest.equal d (Hashtbl.find direct r.input) -> ()
      | Ok _ ->
          incr failed;
          Printf.printf "FAIL %s: reply differs from a direct profile\n" r.spec
      | Error m ->
          incr failed;
          Printf.printf "FAIL %s: error reply: %s\n" r.spec m)
    replies;
  !failed

(* The job a miss hands the scheduler, timed alone: [Profiler.run] with
   the program's facts prepared beforehand, as the service reuses them.
   Times at most [limit] distinct missed inputs; returns id -> ms. *)
let job_times ?(limit = 30) ~program replies =
  let facts = Hashtbl.create 16 and times = Hashtbl.create 64 in
  List.iter
    (fun id ->
      if Hashtbl.length times < limit then begin
        let prog = program id in
        let fp = Alchemist.Profile_io.fingerprint prog in
        let f =
          match Hashtbl.find_opt facts fp with
          | Some f -> f
          | None ->
              let f = Alchemist.Profiler.prepare_facts prog in
              Hashtbl.add facts fp f;
              f
        in
        let t0 = Obs.now_ns () in
        ignore (Alchemist.Profiler.run ~facts:f prog);
        Hashtbl.replace times id (float (Obs.now_ns () - t0) /. 1e6)
      end)
    (inputs (List.filter is_miss replies));
  times
