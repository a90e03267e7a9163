(* The machine block printed with every run. *)

let read_line_of path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (String.trim (input_line ic)))
  with _ -> None

(* CPU quota from cgroup v2 [cpu.max], else v1 cfs; "none" when
   unlimited or unreadable. *)
let cgroup_quota () =
  match read_line_of "/sys/fs/cgroup/cpu.max" with
  | Some line -> "v2 " ^ line
  | None -> (
      match
        ( read_line_of "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
          read_line_of "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
      with
      | Some q, Some p -> Printf.sprintf "v1 %s %s" q p
      | _ -> "none")

(* Aggregate CPU ticks (all fields) and the steal field of /proc/stat;
   zeros where it is unavailable. *)
let cpu_ticks () =
  match read_line_of "/proc/stat" with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
          (List.fold_left ( + ) 0 v, match List.nth_opt v 7 with Some s -> s | None -> 0)
      | _ -> (0, 0))
  | None -> (0, 0)

let nproc () = Domain.recommended_domain_count ()

let json () =
  let open Perfbench_core.Json in
  Obj
    [
      ("nproc", Num (float_of_int (nproc ())));
      ("cgroup_cpu_quota", Str (cgroup_quota ()));
      ("ocaml", Str Sys.ocaml_version);
      ("flambda", Bool Config.flambda);
      ("word_size", Num (float_of_int Sys.word_size));
    ]
