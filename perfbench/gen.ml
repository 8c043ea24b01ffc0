(* Seeded inputs. Every workload draws from its own stream of the seed,
   so the same seed gives the same Mini-C sources on every run, and the
   library only ever sees those sources. *)

module W = Workloads.Workload

let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* Five input scales centred on [center]. *)
let band ~center ~step = Array.init 5 (fun k -> center + ((k - 2) * step))

(* gzip's source rounds its input length down to a multiple of 200
   literals, so a smaller step would repeat the same input. The
   expected-output writer rejects a band with two equal profiles. *)
let gzip_step = 200
let gzip_band (w : W.t) = band ~center:w.default_scale ~step:gzip_step
let churn_band (w : W.t) = band ~center:w.default_scale ~step:100

let test_band (w : W.t) =
  let step = if w.name = "gzip-1.3.5" then gzip_step else max 1 (w.test_scale / 50) in
  band ~center:w.test_scale ~step

let pick st a = a.(Random.State.int st (Array.length a))

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A new input of an already-seen program: every registry workload seeds
   its data generator with [seed = N;] at the top of [main]. Moving that
   value into the initializer of the global [seed] leaves the code, and
   so the code fingerprint and the static facts, unchanged while the
   data the program computes on changes with [k]. *)
let with_input_seed src k =
  let lines = String.split_on_char '\n' src in
  let decl = ref 0 and assign = ref 0 in
  let is_assign l =
    let l = String.trim l in
    String.length l > 8
    && String.sub l 0 7 = "seed = "
    && l.[String.length l - 1] = ';'
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub l 7 (String.length l - 8))
  in
  let out =
    List.filter_map
      (fun l ->
        if l = "int seed;" then begin
          incr decl;
          Some (Printf.sprintf "int seed = %d;" k)
        end
        else if is_assign l then begin
          incr assign;
          None
        end
        else Some l)
      lines
  in
  if !decl <> 1 || !assign <> 1 then
    failwith "with_input_seed: source has no single [int seed;] / [seed = N;] pair";
  String.concat "\n" out

let input_seed st = 1 + Random.State.int st 0x7fffffe
