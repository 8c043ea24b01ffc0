(* Spans the benchmark records around each call it makes into a layer:
   name, start, end, parent span and op id. Spans stay in memory and are
   written out once, at exit. With tracing off, [with_] is one branch
   around the call, so the untraced run measures the bare library. *)

type t = {
  id : int;
  name : string;
  start : int;  (** ns, {!Obs.now_ns} *)
  stop : int;
  parent : int;  (** -1 at the root *)
  op : int;  (** -1 outside any op *)
}

let enabled = ref false
let current_op = ref (-1)
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !open_ids with id :: _ -> id | [] -> -1

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = parent () and start = Obs.now_ns () in
    open_ids := id :: !open_ids;
    let close () =
      open_ids := List.tl !open_ids;
      finished :=
        { id; name; start; stop = Obs.now_ns (); parent; op = !current_op }
        :: !finished
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A span whose interval is not nested in the caller's stack discipline
   (a service request overlaps its neighbours); returns its id. *)
let record ~name ~start ~stop ~parent ~op =
  let id = fresh () in
  finished := { id; name; start; stop; parent; op } :: !finished;
  id

(* Self time: a span's duration minus the part its child spans cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop - s.start)
          + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !finished;
  List.map
    (fun s ->
      ( s,
        s.stop - s.start
        - Option.value ~default:0 (Hashtbl.find_opt child s.id) ))
    !finished

(* Median self time, in ms, of the spans called [name]. *)
let self_ms selfs name =
  Stat.median
    (List.filter_map
       (fun (s, self) ->
         if s.name = name then Some (float self /. 1e6) else None)
       selfs)

let write_jsonl path selfs =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
         \"self_ns\": %d, \"parent\": %d, \"op\": %d}\n"
        s.id s.name s.start s.stop self s.parent s.op)
    (List.rev selfs);
  close_out oc
