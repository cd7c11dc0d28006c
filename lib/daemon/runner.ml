module S = Stabilizer
module Artifact = Stz_store.Artifact

type event =
  | Want of int
  | Freed of int
  | Progress of { run : int; line : string }
  | Finished of { exit_code : int; line : string }

type grant = Grant of int | Stop

let exit_finished = 0
let exit_stopped = 10
let exit_orphaned = 11

(* Pipe IO: Marshal frames written with one write(2) each — far below
   PIPE_BUF, so they are atomic and a reader woken by select can
   block-read the rest of the message without stalling. *)

let send_grant fd (g : grant) =
  try
    Artifact.write_value fd g;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> false

let read_event fd : event option = Artifact.read_value fd

(* ------------------------------------------------------------------ *)
(* Campaign execution                                                  *)
(* ------------------------------------------------------------------ *)

exception Stopped
exception Orphaned

let exec ~grant_r ~event_w ~dir ~(spec : Spool.spec) ~job ~resume
    ~disarm_storage =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The daemon dying must not orphan the runner into a default SIGTERM
     death mid-write; drain arrives as a Stop grant instead. *)
  let send_event (e : event) =
    try Artifact.write_value event_w e
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ()
  in
  let acquire wanted =
    send_event (Want wanted);
    match (Artifact.read_value grant_r : grant option) with
    | Some (Grant n) -> n
    | Some Stop -> raise Stopped
    | None -> raise Orphaned
  in
  let release n = send_event (Freed n) in
  (* The spool ledger holds exactly this campaign's entry and is
     appended only at finish, so on resume any ledger there was left by
     a finish that never wrote its result. *)
  if resume then (try Sys.remove (Spool.ledger_path dir) with Sys_error _ -> ());
  let only flag path = if flag then Some path else None in
  match
    S.Job.run ~jobs:2
      ~dispatch:(S.Parallel.batched ~acquire ~release)
      ~checkpoint:(Spool.checkpoint_path dir) ~resume
      ?trace:(only spec.Spool.trace (Spool.trace_path dir))
      ~csv:(Spool.csv_path dir)
      ?ledger:(only spec.Spool.ledger (Spool.ledger_path dir))
      ~arm_storage:(not disarm_storage)
      ~progress:(fun run line -> send_event (Progress { run; line }))
      ~say:ignore job
  with
  | exception Stopped -> exit exit_stopped
  | exception Orphaned -> exit exit_orphaned
  | { S.Job.exit_code; line } ->
      Spool.write_result ~dir (Spool.Finished exit_code);
      send_event (Finished { exit_code; line });
      (try Unix.close event_w with Unix.Unix_error _ -> ());
      exit exit_finished
