module Json = Stz_telemetry.Json
module Artifact = Stz_store.Artifact
module Durable = Stz_store.Durable

type spec = {
  bench : string;
  runs : int;
  seed : int;
  scale : float;
  opt : string;
  faults : string;
  storage_faults : string;
  storage_seed : int;
  retries : int;
  min_n : int;
  ledger : bool;
  trace : bool;
}

let default_spec =
  {
    bench = "bzip2";
    runs = 30;
    seed = 1;
    scale = 1.0;
    opt = "O2";
    faults = "none";
    storage_faults = "none";
    storage_seed = 1;
    retries =
      Stabilizer.Supervisor.default_policy.Stabilizer.Supervisor.max_retries;
    min_n = 3;
    ledger = false;
    trace = false;
  }

let spec_to_json s =
  Json.Obj
    [
      ("bench", Json.String s.bench);
      ("runs", Json.Int s.runs);
      ("seed", Json.Int s.seed);
      ("scale", Json.String (Printf.sprintf "%.17g" s.scale));
      ("opt", Json.String s.opt);
      ("faults", Json.String s.faults);
      ("storage_faults", Json.String s.storage_faults);
      ("storage_seed", Json.Int s.storage_seed);
      ("retries", Json.Int s.retries);
      ("min_n", Json.Int s.min_n);
      ("ledger", Json.Bool s.ledger);
      ("trace", Json.Bool s.trace);
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "manifest: missing or malformed %S" name)

let to_bool = function Json.Bool b -> Some b | _ -> None

let to_float_string j =
  Option.bind (Json.to_str j) (fun s -> float_of_string_opt s)

let spec_of_json j =
  let* bench = field "bench" Json.to_str j in
  let* runs = field "runs" Json.to_int j in
  let* seed = field "seed" Json.to_int j in
  let* scale = field "scale" (fun x -> to_float_string x) j in
  let* opt = field "opt" Json.to_str j in
  let* faults = field "faults" Json.to_str j in
  let* storage_faults = field "storage_faults" Json.to_str j in
  let* storage_seed = field "storage_seed" Json.to_int j in
  let* retries = field "retries" Json.to_int j in
  let* min_n = field "min_n" Json.to_int j in
  let* ledger = field "ledger" to_bool j in
  let* trace = field "trace" to_bool j in
  Ok
    {
      bench;
      runs;
      seed;
      scale;
      opt;
      faults;
      storage_faults;
      storage_seed;
      retries;
      min_n;
      ledger;
      trace;
    }

let resolve s =
  Stabilizer.Job.resolve ~bench:s.bench ~scale:s.scale ~opt:s.opt
    ~faults:s.faults ~storage_faults:s.storage_faults
    ~storage_seed:s.storage_seed ~seed:s.seed ~runs:s.runs ~retries:s.retries
    ~min_n:s.min_n

let token_ok t =
  let n = String.length t in
  n >= 1 && n <= 64
  && t.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       t

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let dir ~spool ~tenant ~id = Filename.concat (Filename.concat spool tenant) id
let manifest_path d = Filename.concat d "manifest"
let checkpoint_path d = Filename.concat d "checkpoint.ck"
let csv_path d = Filename.concat d "out.csv"
let ledger_path d = Filename.concat d "ledger"
let trace_path d = Filename.concat d "trace.json"
let result_path d = Filename.concat d "result"
let pid_path d = Filename.concat d "runner.pid"

(* ------------------------------------------------------------------ *)
(* Manifest and result records                                         *)
(* ------------------------------------------------------------------ *)

let manifest =
  Durable.single ~kind:"szc-manifest" ~noun:"spool manifest" ~tag:"spec"
    ~encode:(fun spec -> Json.to_string (spec_to_json spec))
    ~decode:(fun p -> Result.bind (Json.of_string p) spec_of_json)

let write_manifest ~dir spec =
  Artifact.mkdir_p dir;
  Durable.write manifest (manifest_path dir) spec

let read_manifest ~dir = Durable.load manifest (manifest_path dir)

type outcome = Finished of int | Cancelled

let outcome_state = function Finished _ -> "finished" | Cancelled -> "cancelled"

let result_of_payload payload =
  let f = Stz_store.Caselog.parse_fields "result" payload in
  match Stz_store.Caselog.str f "state" with
  | Ok "cancelled" -> Ok Cancelled
  | Ok "finished" -> (
      match Stz_store.Caselog.int f "exit_code" with
      | Ok code -> Ok (Finished code)
      | Error _ -> Error "result: malformed exit_code")
  | _ -> Error "result: malformed state"

let result =
  Durable.single ~kind:"szc-result" ~noun:"spool result" ~tag:"result"
    ~encode:(function
      | Finished code -> Printf.sprintf "state finished\nexit_code %d\n" code
      | Cancelled -> "state cancelled\n")
    ~decode:result_of_payload

let write_result ~dir outcome = Durable.write result (result_path dir) outcome
let read_result ~dir = Durable.load result (result_path dir)

let completed_runs ~dir =
  match Stabilizer.Supervisor.load (checkpoint_path dir) with
  | Ok c -> List.length c.Stabilizer.Supervisor.records
  | Error _ -> 0

(* The pid file is advisory scratch state, not an artifact: a plain
   write is fine because the worst a torn pid file can cause is a
   missed (or wrong-pid, hence failed) kill of an already-dead
   runner. *)
let write_pid ~dir pid =
  let oc = open_out (pid_path dir) in
  output_string oc (string_of_int pid);
  close_out oc

let read_pid ~dir =
  match open_in (pid_path dir) with
  | exception Sys_error _ -> None
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in_noerr ic;
      int_of_string_opt (String.trim line)

let clear_pid ~dir = try Sys.remove (pid_path dir) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type entry = {
  tenant : string;
  id : string;
  entry_dir : string;
  spec : spec;
  result : outcome option;
}

let list_dirs path =
  match Sys.readdir path with
  | exception Sys_error _ -> []
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.filter (fun n ->
             token_ok n
             &&
             try Sys.is_directory (Filename.concat path n)
             with Sys_error _ -> false)

let scan ~spool =
  let entries = ref [] and broken = ref [] in
  List.iter
    (fun tenant ->
      let tdir = Filename.concat spool tenant in
      List.iter
        (fun id ->
          let d = Filename.concat tdir id in
          match read_manifest ~dir:d with
          | Error e -> broken := (d, e) :: !broken
          | Ok spec -> (
              match resolve spec with
              | Error e -> broken := (d, "invalid spec: " ^ e) :: !broken
              | Ok _ ->
                  let result = Result.to_option (read_result ~dir:d) in
                  entries :=
                    { tenant; id; entry_dir = d; spec; result } :: !entries))
        (list_dirs tdir))
    (list_dirs spool);
  (List.rev !entries, List.rev !broken)

let promote_tmp path notes =
  let tmp = path ^ ".tmp" in
  if (not (Sys.file_exists path)) && Sys.file_exists tmp then begin
    Sys.rename tmp path;
    notes := Printf.sprintf "%s: promoted rename-dropped temp file" path :: !notes
  end
  else if Sys.file_exists tmp then begin
    (* Both present: the rename either happened (tmp is a stale
       leftover) or was dropped after an earlier version existed; the
       salvage pass below decides what the main file is worth. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    notes := Printf.sprintf "%s: removed stale temp file" tmp :: !notes
  end

let repair ~dir =
  let notes = ref [] in
  let ck = checkpoint_path dir and lg = ledger_path dir in
  promote_tmp ck notes;
  promote_tmp lg notes;
  (* An unrecoverable checkpoint is moved aside so the campaign
     restarts from run 0 instead of refusing to resume. *)
  let fix c path =
    if Sys.file_exists path then
      match Durable.repair c path with
      | Durable.Intact _ -> ()
      | Durable.Salvaged (_, note) ->
          notes :=
            Printf.sprintf "%s: rewritten from salvaged prefix (%s)" path note
            :: !notes
      | Durable.Unrecoverable e ->
          notes :=
            Printf.sprintf "%s: unrecoverable (%s), moved aside" path e
            :: !notes
  in
  fix Stabilizer.Supervisor.checkpoint ck;
  fix Stz_store.Ledger.container lg;
  List.iter
    (fun path ->
      promote_tmp path notes;
      (try Sys.remove (path ^ ".sum.tmp") with Sys_error _ -> ());
      if Sys.file_exists path then
        match Artifact.verify_sum path with
        | Ok _ -> ()
        | Error e ->
            (try Sys.remove path with Sys_error _ -> ());
            (try Sys.remove (Artifact.sum_path path) with Sys_error _ -> ());
            notes :=
              Printf.sprintf "%s: checksum mismatch (%s), removed — rewritten \
                              at completion"
                path e
              :: !notes)
    [ csv_path dir; trace_path dir ];
  (try Sys.remove (result_path dir ^ ".tmp") with Sys_error _ -> ());
  (try Sys.remove (manifest_path dir ^ ".tmp") with Sys_error _ -> ());
  List.rev !notes
