type t = {
  mutable label : int;
  mutable tenter : int;
  mutable texit : int;
  mutable parent : t;
  mutable is_func : bool;
}

(* [texit = 0] keeps [covers none] false for every timestamp, so a walk
   that climbs past the root stops here on its own. *)
let rec none =
  { label = -1; tenter = 0; texit = 0; parent = none; is_func = false }

let make () =
  { label = -1; tenter = 0; texit = 0; parent = none; is_func = false }
let[@inline] duration c = c.texit - c.tenter
let[@inline] active c = c.texit = 0
let[@inline] covers c th = c.tenter <= th && th < c.texit

let pp ppf c =
  Format.fprintf ppf "{pc=%d; [%d,%d)%s%s}" c.label c.tenter c.texit
    (if c.is_func then " fn" else "")
    (if active c then " active" else "")
