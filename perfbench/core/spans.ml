(* In-memory span log for the traced run.

   A span is one timed call into one layer: name, start, end, the span
   one layer up that it belongs to (its parent), and the request id
   shared by every span of one query.  Spans live in preallocated
   parallel arrays, so recording one allocates nothing; the log is
   written out once, when the benchmark ends.

   The benchmark calls each layer's public entry point on the same
   query in turn, so a child span is the call one layer down made on
   its own rather than a sub-interval of its parent.  A layer's self
   time is therefore its span's duration minus the durations of its
   child spans. *)

type t = {
  names : string array;
  start : float array;
  stop : float array;
  parent : int array;
  request : int array;
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  let capacity = max 1 capacity in
  {
    names = Array.make capacity "";
    start = Array.make capacity 0.;
    stop = Array.make capacity 0.;
    parent = Array.make capacity (-1);
    request = Array.make capacity (-1);
    len = 0;
    dropped = 0;
  }

let length t = t.len
let dropped t = t.dropped

(* Record a finished span; returns its id, or -1 once the log is full
   (the overflow is counted, never silently lost). *)
let record t ~name ~start ~stop ~parent ~request =
  if t.len = Array.length t.names then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let id = t.len in
    t.names.(id) <- name;
    t.start.(id) <- start;
    t.stop.(id) <- stop;
    t.parent.(id) <- parent;
    t.request.(id) <- request;
    t.len <- id + 1;
    id
  end

let duration t id = t.stop.(id) -. t.start.(id)

(* Self time of every span: duration minus the summed durations of its
   children. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for id = 0 to t.len - 1 do
    let p = t.parent.(id) in
    if p >= 0 then self.(p) <- self.(p) -. duration t id
  done;
  self

(* Self times of the spans with the given name, in recording order. *)
let self_times_of t name =
  let self = self_times t in
  let acc = ref [] in
  for id = t.len - 1 downto 0 do
    if String.equal t.names.(id) name then acc := self.(id) :: !acc
  done;
  Array.of_list !acc

let durations_of t name =
  let acc = ref [] in
  for id = t.len - 1 downto 0 do
    if String.equal t.names.(id) name then acc := duration t id :: !acc
  done;
  Array.of_list !acc

(* One JSON object per line, times in microseconds since [origin]. *)
let write_jsonl t ~origin oc =
  for id = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"request\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
      id t.request.(id) t.names.(id) t.parent.(id)
      ((t.start.(id) -. origin) *. 1e6)
      ((t.stop.(id) -. origin) *. 1e6)
  done
