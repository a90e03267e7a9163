(* Run a measurement in a fresh forked process and bring its result
   back.  A run repeats set-up and measurement in several such
   processes and pools their samples, so one process's heap layout and
   placement do not decide the run.  The caller must not have spawned
   any domain yet (OCaml forbids fork after that). *)

let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let result = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
      (try Marshal.to_channel oc (result : ('a, string) result) [] with _ -> ());
      flush_all ();
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let result =
        match (Marshal.from_channel ic : ('a, string) result) with
        | v -> Some v
        | exception End_of_file -> None
      in
      close_in_noerr ic;
      let _, status = Unix.waitpid [] pid in
      match (result, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error msg), _ -> failwith ("measurement process: " ^ msg)
      | _ -> failwith "measurement process died without a result"
