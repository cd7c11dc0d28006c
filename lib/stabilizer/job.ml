module Fault = Stz_faults.Fault
module Storage = Stz_faults.Storage
module Monitor = Stz_monitor.Monitor

type t = {
  bench : string;
  scale : float;
  workload : Stz_workloads.Profile.t;
  opt : Stz_vm.Opt.level;
  faults : Fault.profile;
  storage : Storage.profile;
  storage_seed : int;
  seed : int;
  runs : int;
  retries : int;
  min_n : int;
}

let ( let* ) = Result.bind
let check ok msg = if ok then Ok () else Error msg

let workload ~bench ~scale =
  let* () =
    check (scale > 0.0 && Float.is_finite scale)
      "scale must be a positive finite float"
  in
  match Stz_workloads.Spec.find bench with
  | Some p -> Ok (Stz_workloads.Profile.scale scale p)
  | None -> Error (Printf.sprintf "unknown benchmark %S; try `szc list'" bench)

let resolve ~bench ~scale ~opt ~faults ~storage_faults ~storage_seed ~seed
    ~runs ~retries ~min_n =
  let* () = check (runs >= 1) (Printf.sprintf "runs must be >= 1 (got %d)" runs) in
  let* () = check (retries >= 0 && min_n >= 0) "retries and min_n must be >= 0" in
  let* workload = workload ~bench ~scale in
  let* opt =
    Option.to_result
      ~none:(Printf.sprintf "unknown optimization level %S" opt)
      (Stz_vm.Opt.level_of_string opt)
  in
  let* faults = Fault.profile_of_string faults in
  let* storage = Storage.profile_of_string storage_faults in
  Ok { bench; scale; workload; opt; faults; storage; storage_seed; seed; runs;
       retries; min_n }

let progress_line (r : Supervisor.record) =
  Printf.sprintf "run %3d: %s%s" r.Supervisor.run
    (match r.Supervisor.outcome with
    | Supervisor.Done d ->
        Printf.sprintf "%10d cycles (%.6f s)" d.Supervisor.cycles
          d.Supervisor.seconds
    | Supervisor.Trapped (cls, _) -> "censored: " ^ Fault.class_to_string cls
    | Supervisor.Budget_exceeded _ -> "censored: budget-exceeded"
    | Supervisor.Invalid_result _ -> "censored: invalid-result"
    | Supervisor.Worker_lost -> "censored: worker-lost"
    | Supervisor.Worker_hung -> "censored: worker-hung")
    (if r.Supervisor.retries > 0 then
       Printf.sprintf "  (retries=%d)" r.Supervisor.retries
     else "")

type finish = { exit_code : int; line : string }

let append_ledger path entry =
  match Stz_store.Ledger.append path entry with
  | result -> result
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

let run ?(config = Config.stabilizer) ?(jobs = 1) ?dispatch ?(lanes = 4)
    ?checkpoint ?(resume = false) ?trace ?metrics ?csv ?ledger ?(live = false)
    ?(arm_storage = true) ~progress ~say job =
  let telemetry = Option.map (fun _ -> Stz_telemetry.Trace.create ~lanes ()) trace in
  let monitor =
    if live || ledger <> None then Some (Monitor.create ()) else None
  in
  let policy =
    {
      Supervisor.default_policy with
      Supervisor.max_retries = job.retries;
      hang_grace = (if job.faults.Fault.wedge = 0.0 then Some 120.0 else None);
    }
  in
  if arm_storage && Storage.active job.storage then
    Storage.arm ~seed:(Int64.of_int job.storage_seed) job.storage;
  Fun.protect ~finally:Storage.disarm @@ fun () ->
  match
    Driver.campaign ~policy ~profile:job.faults ~jobs ?dispatch ?checkpoint
      ~resume ?telemetry ?monitor
      ~on_record:(fun r ->
        progress r.Supervisor.run (progress_line r);
        (* Records arrive in run order whatever [jobs] is, and the
           monitor was updated just before this callback, so the status
           stream is byte-identical across worker counts. *)
        match monitor with
        | Some m when live -> say (Monitor.status_line m)
        | _ -> ())
      ~config ~opt:job.opt ~base_seed:(Int64.of_int job.seed) ~runs:job.runs
      ~args:Stz_workloads.Generate.default_args
      (Stz_workloads.Generate.program job.workload)
  with
  | exception Supervisor.Mismatch msg ->
      { exit_code = 3; line = "campaign aborted: " ^ msg }
  | campaign ->
      let write path contents =
        Stz_store.Artifact.write_with_sum path contents;
        say ("# wrote " ^ path)
      in
      (match (trace, telemetry) with
      | Some path, Some tr ->
          write path
            (Stz_telemetry.Export.chrome_string (Stz_telemetry.Trace.events tr))
      | _ -> ());
      Option.iter
        (fun path ->
          write path
            (Stz_telemetry.Metrics.snapshot (Rollup.of_campaign campaign)))
        metrics;
      Option.iter (fun path -> write path (Report.csv_of_campaign campaign)) csv;
      let summary = Supervisor.summarize campaign in
      let campaign_line = Report.campaign_line summary in
      say
        (Printf.sprintf "# %s under %s, %s, %d runs, faults %s" job.bench
           (Config.describe config)
           (Stz_vm.Opt.level_to_string job.opt)
           job.runs (Fault.fingerprint job.faults));
      say campaign_line;
      let times = Supervisor.times campaign in
      if Array.length times > 0 then say (Report.summary_line times);
      let verdict =
        Option.map (fun m -> Monitor.verdict_to_string (Monitor.advise m)) monitor
      in
      if live then Option.iter (fun v -> say ("monitor verdict: " ^ v)) verdict;
      let ledger_error =
        Option.bind ledger (fun path ->
            let fingerprint =
              History.fingerprint ~bench:job.bench ~opt:job.opt ~scale:job.scale
                campaign
            in
            let entry =
              History.entry_of_campaign ?verdict ~label:job.bench ~fingerprint
                campaign
            in
            match append_ledger path entry with
            | Ok seq ->
                say (Printf.sprintf "ledger: entry %d appended to %s" seq path);
                None
            | Error e -> Some (Printf.sprintf "ledger %s: %s" path e))
      in
      let completed = summary.Supervisor.completed in
      match ledger_error with
      | Some line -> { exit_code = 3; line }
      | None when completed = 0 ->
          { exit_code = 3; line = "campaign aborted: every run was censored" }
      | None when completed < job.min_n ->
          let line =
            Printf.sprintf
              "no verdict possible: %d uncensored runs, need %d (exit 2)"
              completed job.min_n
          in
          say line;
          { exit_code = 2; line }
      | None -> { exit_code = 0; line = campaign_line }
