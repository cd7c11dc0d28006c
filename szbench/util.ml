(* Clock, order statistics, /proc readers and file helpers shared by the
   three workloads. Every interval is read from bechamel's monotonic
   clock (CLOCK_MONOTONIC, nanoseconds). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [timed f] runs [f] and returns its value with the elapsed seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = truncate pos in
      if i >= n - 1 then a.(n - 1)
      else
        let frac = pos -. float_of_int i in
        a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it; [None] below 20 samples. *)
let tail_percentile xs =
  let n = List.length xs in
  let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ] in
  match
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
      candidates
  with
  | None -> None
  | Some p -> Some (p, quantile (p /. 100.0) xs)

(* ------------------------------------------------------------------ *)
(* Files and /proc                                                     *)
(* ------------------------------------------------------------------ *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let read_file_opt path = try Some (read_file path) with Sys_error _ -> None

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let hex_digest s = Digest.to_hex (Digest.string s)

(* A "Key:   value kB" field of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  match read_file_opt (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.trim |> String.split_on_char ' '
                 |> (function v :: _ -> int_of_string_opt v | [] -> None)
             | _ -> None)

let self_hwm_kb () = Option.value (status_kb "self" "VmHWM") ~default:0

(* Direct children of [pid], from /proc/<pid>/task/*/children. *)
let children pid =
  let tasks = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir tasks with
  | exception Sys_error _ -> []
  | tids ->
      Array.to_list tids
      |> List.concat_map (fun tid ->
             match read_file_opt (Filename.concat tasks (tid ^ "/children")) with
             | None -> []
             | Some s ->
                 String.split_on_char ' ' (String.trim s)
                 |> List.filter_map int_of_string_opt)

let rec descendants pid =
  List.concat_map (fun c -> c :: descendants c) (children pid)

(* Largest VmHWM among [pid]'s live descendants, in kB. *)
let tree_hwm_kb pid =
  List.fold_left
    (fun acc p -> max acc (Option.value (status_kb (string_of_int p) "VmHWM") ~default:0))
    0 (descendants pid)

let loadavg () =
  match read_file_opt "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
      | _ -> String.trim s)
  | None -> "unknown"

(* CPUs this process may run on, from the affinity list ("0-1,4"). *)
let nproc () =
  match read_file_opt "/proc/self/status" with
  | None -> 1
  | Some text -> (
      let line =
        String.split_on_char '\n' text
        |> List.find_opt (fun l ->
               String.length l > 18 && String.sub l 0 18 = "Cpus_allowed_list:")
      in
      match line with
      | None -> 1
      | Some l ->
          String.sub l 18 (String.length l - 18)
          |> String.trim |> String.split_on_char ','
          |> List.fold_left
               (fun acc range ->
                 match String.split_on_char '-' range with
                 | [ a; b ] -> (
                     match (int_of_string_opt a, int_of_string_opt b) with
                     | Some a, Some b -> acc + b - a + 1
                     | _ -> acc)
                 | [ _ ] -> acc + 1
                 | _ -> acc)
               0
          |> max 1)

(* The checked-out commit, read from .git without running git; a
   source tree that is not a repository reports "unknown". *)
let git_sha () =
  let trim s = String.trim s in
  match read_file_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let head = trim head in
      if String.length head > 5 && String.sub head 0 5 = "ref: " then
        let r = String.sub head 5 (String.length head - 5) in
        match read_file_opt (Filename.concat ".git" r) with
        | Some sha -> trim sha
        | None -> (
            match read_file_opt ".git/packed-refs" with
            | None -> "unknown"
            | Some packed ->
                String.split_on_char '\n' packed
                |> List.find_map (fun l ->
                       match String.split_on_char ' ' l with
                       | [ sha; name ] when name = r -> Some sha
                       | _ -> None)
                |> Option.value ~default:"unknown")
      else head

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

let pid_alive pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* SIGKILL [pid] and every descendant, reap [pid] (our child), and wait
   until the orphaned descendants are gone too. *)
let kill_tree pid =
  let all = pid :: descendants pid in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) all;
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  while List.exists pid_alive all && secs_since t0 < 10.0 do
    Unix.sleepf 0.01
  done

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* A JSON number with all its digits; non-finite values become 0. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"
