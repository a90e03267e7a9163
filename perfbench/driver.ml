(* The load driver: one forked process speaking the wire protocol
   through Dbh_serve.Client, so its threads never share a runtime (GC,
   master lock) with the server under measurement.  It is forked before
   any domain is spawned, inherits the encoded payloads, and takes one
   phase at a time over a pipe, answering with a marshalled report.

   Churn mix: 90% SEARCH of a held-out query, 5% INSERT of a fresh
   object, 5% DELETE of a handle this connection inserted (a SEARCH when
   it has none alive).  Inserted objects are held-out objects of the
   workload's own distribution, sent unchanged.  Search budgets and
   deadlines are far above what a query needs, so no answer is
   truncated by design. *)

module Client = Dbh_serve.Client
module P = Dbh_serve.Protocol
module Buf = Perfbench_core.Stats.Buf

(* Connections of every concurrent phase: one per core of the
   benchmark's 2-core reference machine. *)
let connections = 2

type phase =
  | Verify  (** every query once, in order, on one connection, no churn *)
  | Cleanup of int array  (** delete these handles, in order, on one connection *)
  | Closed of { window : int; seconds : float }
      (** [window] requests in flight per connection *)
  | Open of { rate : float; seconds : float }
      (** one request in flight per connection, each sent at its due
          time on a fixed schedule of [rate] requests per second *)

type found = { query : int; handle : int; dist : float; cost : int; sent : float }
(** [handle = -1] when the server found nothing; [sent] is the send
    (closed) or due (open) time, never later than the send *)

type report = {
  sent : int;
  ok : int;
  shed : int;
  timed_out : int;
  truncated : int;
  errors : int;  (** bad request, server error, transport failure *)
  elapsed : float;
  search_lat : float array;  (** seconds, from due (open) or send (closed) time *)
  insert_lat : float array;
  all_lat : float array;  (** every answered request *)
  late : float array;  (** open loop: send time - due time *)
  found : found array;
  inserted : (int * int) array;  (** handle, fresh index *)
  deleted : (int * float) array;  (** handle, time its Deleted reply arrived *)
}

let budget = 1_000_000
let deadline_ms = 30_000
let now = Unix.gettimeofday

type op = Search of int | Insert of int | Delete of int

type acc = {
  mutable sent : int;
  mutable ok : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable truncated : int;
  mutable errors : int;
  search_lat : Buf.t;
  insert_lat : Buf.t;
  all_lat : Buf.t;
  late : Buf.t;
  mutable found : found list;
  mutable inserted : (int * int) list;
  mutable deleted : (int * float) list;
}

let new_acc () =
  {
    sent = 0;
    ok = 0;
    shed = 0;
    timed_out = 0;
    truncated = 0;
    errors = 0;
    search_lat = Buf.create ();
    insert_lat = Buf.create ();
    all_lat = Buf.create ();
    late = Buf.create ();
    found = [];
    inserted = [];
    deleted = [];
  }

let request_of ~queries ~fresh = function
  | Search qi ->
      P.Search
        { tenant = ""; deadline_ms; budget; probes = 0; radius = 0; payload = queries.(qi) }
  | Insert fi -> P.Insert { tenant = ""; deadline_ms; payload = fresh.(fi) }
  | Delete h -> P.Delete { tenant = ""; deadline_ms; handle = h }

(* Account one reply; [start] is the send or due time.  The database is
   never empty, so a search that found nothing is not ok. *)
let record acc ~own ~op ~start ~t resp =
  Buf.push acc.all_lat (t -. start);
  match (op, resp) with
  | Search qi, P.Result r ->
      if r.found then acc.ok <- acc.ok + 1;
      if r.truncated then acc.truncated <- acc.truncated + 1;
      Buf.push acc.search_lat (t -. start);
      acc.found <-
        {
          query = qi;
          handle = (if r.found then r.handle else -1);
          dist = r.dist;
          cost = r.cost;
          sent = start;
        }
        :: acc.found
  | Insert fi, P.Inserted { handle } ->
      acc.ok <- acc.ok + 1;
      Buf.push acc.insert_lat (t -. start);
      Queue.push handle own;
      acc.inserted <- (handle, fi) :: acc.inserted
  | Delete h, P.Deleted ->
      acc.ok <- acc.ok + 1;
      acc.deleted <- (h, t) :: acc.deleted
  | _, P.Overloaded _ -> acc.shed <- acc.shed + 1
  | _, P.Timed_out -> acc.timed_out <- acc.timed_out + 1
  | _ -> acc.errors <- acc.errors + 1

(* One connection's loop.  Closed: keep [window] requests in flight
   until [stop_at].  Open: send request [k] at [t0 + offset + k·period],
   late or not, and time it from then. *)
let connection ~port ~queries ~fresh ~seed ~window ~schedule ~stop_at acc =
  let rng = Dbh_util.Rng.create seed in
  let own = Queue.create () in
  let next_op () =
    let r = Dbh_util.Rng.int rng 100 in
    if r < 90 || (r >= 95 && Queue.is_empty own) then
      Search (Dbh_util.Rng.int rng (Array.length queries))
    else if r < 95 then Insert (Dbh_util.Rng.int rng (Array.length fresh))
    else Delete (Queue.pop own)
  in
  match Client.connect ~host:"127.0.0.1" ~port () with
  | exception _ -> acc.errors <- acc.errors + 1
  | c ->
      let inflight = Hashtbl.create 16 in
      let k = ref 0 in
      let rec fill () =
        if Hashtbl.length inflight < window && now () < stop_at then begin
          let due =
            match schedule with
            | None -> now ()
            | Some (t0, period) ->
                let due = t0 +. (float_of_int !k *. period) in
                incr k;
                let wait = due -. now () in
                if wait > 0. then Unix.sleepf wait;
                Buf.push acc.late (now () -. due);
                due
          in
          let op = next_op () in
          let id = Client.send c (request_of ~queries ~fresh op) in
          acc.sent <- acc.sent + 1;
          Hashtbl.replace inflight id (op, due);
          fill ()
        end
      in
      (try
         fill ();
         while Hashtbl.length inflight > 0 do
           let id, resp = Client.recv c in
           let t = now () in
           (match Hashtbl.find_opt inflight id with
           | Some (op, start) ->
               Hashtbl.remove inflight id;
               record acc ~own ~op ~start ~t resp
           | None -> acc.errors <- acc.errors + 1);
           fill ()
         done
       with _ -> acc.errors <- acc.errors + Hashtbl.length inflight + 1);
      Client.close c

let report_of accs elapsed =
  let sum f = List.fold_left (fun s a -> s + f a) 0 accs in
  let cat f = Array.concat (List.map (fun a -> Buf.to_array (f a)) accs) in
  {
    sent = sum (fun a -> a.sent);
    ok = sum (fun a -> a.ok);
    shed = sum (fun a -> a.shed);
    timed_out = sum (fun a -> a.timed_out);
    truncated = sum (fun a -> a.truncated);
    errors = sum (fun a -> a.errors);
    elapsed;
    search_lat = cat (fun a -> a.search_lat);
    insert_lat = cat (fun a -> a.insert_lat);
    all_lat = cat (fun a -> a.all_lat);
    late = cat (fun a -> a.late);
    found = Array.of_list (List.concat_map (fun a -> List.rev a.found) accs);
    inserted = Array.of_list (List.concat_map (fun a -> List.rev a.inserted) accs);
    deleted = Array.of_list (List.concat_map (fun a -> List.rev a.deleted) accs);
  }

(* [connections] connections on their own threads; [shape i] gives
   connection [i]'s window and schedule. *)
let concurrent ~port ~queries ~fresh ~seed ~t0 ~seconds shape =
  let stop_at = t0 +. seconds in
  let accs = List.init connections (fun _ -> new_acc ()) in
  let threads =
    List.mapi
      (fun i acc ->
        let window, schedule = shape i in
        Thread.create
          (fun () ->
            connection ~port ~queries ~fresh ~seed:((seed * 7919) + i) ~window ~schedule ~stop_at
              acc)
          ())
      accs
  in
  List.iter Thread.join threads;
  report_of accs (now () -. t0)

(* Send [ops] one at a time, in order, on one connection. *)
let sequential ~port ~queries ~fresh ~t0 ops =
  let acc = new_acc () in
  (match Client.connect ~host:"127.0.0.1" ~port () with
  | exception _ -> acc.errors <- acc.errors + 1
  | c ->
      let own = Queue.create () in
      (try
         List.iter
           (fun op ->
             let start = now () in
             acc.sent <- acc.sent + 1;
             let resp = Client.request c (request_of ~queries ~fresh op) in
             record acc ~own ~op ~start ~t:(now ()) resp)
           ops
       with _ -> acc.errors <- acc.errors + 1);
      Client.close c);
  report_of [ acc ] (now () -. t0)

let run_phase ~port ~queries ~fresh ~seed phase =
  let t0 = now () in
  match phase with
  | Verify ->
      sequential ~port ~queries ~fresh ~t0 (List.init (Array.length queries) (fun qi -> Search qi))
  | Cleanup handles ->
      sequential ~port ~queries ~fresh ~t0 (List.map (fun h -> Delete h) (Array.to_list handles))
  | Closed { window; seconds } ->
      concurrent ~port ~queries ~fresh ~seed ~t0 ~seconds (fun _ -> (window, None))
  | Open { rate; seconds } ->
      let period = float_of_int connections /. rate in
      concurrent ~port ~queries ~fresh ~seed ~t0 ~seconds (fun i ->
          (1, Some (t0 +. (float_of_int i *. period /. float_of_int connections), period)))

type t = { pid : int; to_child : out_channel; from_child : in_channel }

(* Fork the driver.  Must run before the parent spawns any domain. *)
let start ~queries ~fresh ~seed =
  flush_all ();
  let p2c_r, p2c_w = Unix.pipe () in
  let c2p_r, c2p_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close p2c_w;
      Unix.close c2p_r;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let inc = Unix.in_channel_of_descr p2c_r in
      let outc = Unix.out_channel_of_descr c2p_w in
      let rec loop () =
        match (Marshal.from_channel inc : (int * phase) option) with
        | exception _ -> ()
        | None -> ()
        | Some (port, phase) ->
            Marshal.to_channel outc (run_phase ~port ~queries ~fresh ~seed phase) [];
            flush outc;
            loop ()
      in
      (try loop () with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close p2c_r;
      Unix.close c2p_w;
      let t =
        {
          pid;
          to_child = Unix.out_channel_of_descr p2c_w;
          from_child = Unix.in_channel_of_descr c2p_r;
        }
      in
      t

let run t ~port phase : report =
  Marshal.to_channel t.to_child (Some (port, phase)) [];
  flush t.to_child;
  Marshal.from_channel t.from_child

(* Ask the driver to exit and reap it; idempotent enough for a finally. *)
let stop t =
  (try
     Marshal.to_channel t.to_child (None : (int * phase) option) [];
     flush t.to_child
   with _ -> ());
  close_out_noerr t.to_child;
  close_in_noerr t.from_child;
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
