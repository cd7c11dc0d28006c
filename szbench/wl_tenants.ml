(* tenants-rerand: one szcd session with two run slots. One client
   connection submits two tenants' supervised, checkpointed campaigns —
   gcc and perlbench, many functions and heavy heap churn, under the
   full re-randomizing configuration — then polls `status` on the same
   connection until both finish. The runs execute in szcd's runner
   processes, so the vm, runtime and machine numbers of the traced run
   come from an in-process replay of the same (program, config, seeds). *)

module S = Stabilizer
module D = Stz_daemon
module P = D.Protocol

let scale = 0.3
let runs = 12
let slots = 2
let benches = [ "gcc"; "perlbench" ]
let campaign_id = "rerand"
let args = Stz_workloads.Generate.default_args
let spec ~seed bench = { D.Spool.default_spec with D.Spool.bench; runs; seed; scale; opt = "O2" }

(* The runner's supervision policy for a fault-free spec. *)
let policy =
  {
    S.Supervisor.default_policy with
    S.Supervisor.max_retries = D.Spool.default_spec.D.Spool.retries;
    hang_grace = Some 120.0;
  }

type session = {
  rep : Bench.rep;
  rpc_ms : float list;
  submit_ms : float list;
  queue_wait_s : float list;
  exits : int list;
  hwm_kb : int;
  campaigns : (string * S.Supervisor.campaign * string * string) list;
      (** bench, campaign loaded back from its checkpoint, CSV, checkpoint bytes *)
  vroot : int;
}

let fail fmt = Printf.ksprintf failwith fmt

let proc_hwm_kb pid =
  max
    (Option.value (Util.status_kb (string_of_int pid) "VmHWM") ~default:0)
    (Util.tree_hwm_kb pid)

(* "Accepts" means a connect(2) on the socket succeeds. *)
let wait_accepting socket ~timeout =
  let t0 = Util.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let ok = try Unix.connect fd (Unix.ADDR_UNIX socket); true with Unix.Unix_error _ -> false in
    Unix.close fd;
    if not ok then
      if Util.secs_since t0 > timeout then fail "szcd did not accept on %s" socket
      else begin
        Unix.sleepf 0.0005;
        go ()
      end
  in
  go ()

let rpc c req =
  match D.Client.rpc c ~deadline:(Unix.gettimeofday () +. 30.0) req with
  | Ok r -> r
  | Error e -> fail "szcd rpc: %s" e

(* SIGTERM drains the daemon; both campaigns are finished, so it exits
   at once. A daemon that does not is killed with its whole tree. *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Util.now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Util.secs_since t0 < 20.0 ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Util.kill_tree pid;
        fail "szcd did not drain"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> fail "szcd drain did not exit 0"
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let session ~szcd ~dir ~seed tr i =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let socket = Filename.concat dir "szcd.sock" and spool = Filename.concat dir "spool" in
  let sroot = Tracer.open_span tr ~name:"setup" ~parent:(-1) ~unit_id:i () in
  let t0 = Util.now_ns () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process szcd
          [| szcd; "--socket"; socket; "--spool"; spool; "--slots"; string_of_int slots |]
          devnull devnull Unix.stderr)
  in
  let stopped = ref false in
  Fun.protect ~finally:(fun () -> if not !stopped then Util.kill_tree pid) @@ fun () ->
  Tracer.span tr ~name:"daemon" ~parent:sroot (fun _ -> wait_accepting socket ~timeout:60.0);
  let c =
    match
      D.Client.connect ~socket ~deadline:(Unix.gettimeofday () +. 30.0) ~seed:(Int64.of_int seed) ()
    with
    | Ok c -> c
    | Error e -> fail "connect: %s" e
  in
  Fun.protect ~finally:(fun () -> D.Client.close c) @@ fun () ->
  let submit_ms = ref [] in
  let acks =
    List.mapi
      (fun j bench ->
        Tracer.span tr ~name:"daemon" ~parent:sroot ~unit_id:j (fun _ ->
            let (r, s) =
              Util.timed (fun () ->
                  rpc c (P.Submit { tenant = bench; id = campaign_id; spec = spec ~seed bench }))
            in
            submit_ms := (s *. 1000.0) :: !submit_ms;
            match r with
            | P.Accepted _ -> Util.now_ns ()
            | _ -> fail "submit of %s not accepted" bench))
      benches
    |> Array.of_list
  in
  let setup_s = Util.secs_since t0 in
  Tracer.close_span tr sroot;
  let vroot = Tracer.open_span tr ~name:"verdict" ~parent:(-1) ~unit_id:i () in
  let v0 = Util.now_ns () in
  let n = List.length benches in
  let completed = Array.make n 0 and last = Array.copy acks in
  let exits = Array.make n None in
  let unit_ms = ref [] and rpc_ms = ref [] and queue_wait = ref [] in
  let hwm = ref 0 and last_hwm = ref 0 in
  while Array.exists Option.is_none exits do
    if Util.secs_since v0 > 150.0 then fail "tenants did not finish within 150 s";
    List.iteri
      (fun j bench ->
        if exits.(j) = None then begin
          let t = Util.now_ns () in
          let r =
            Tracer.span tr ~name:"daemon" ~parent:vroot ~unit_id:j (fun _ ->
                rpc c (P.Status { tenant = bench; id = campaign_id }))
          in
          let t' = Util.now_ns () in
          rpc_ms := (float_of_int (t' - t) *. 1e-6) :: !rpc_ms;
          match r with
          | P.Status_is { completed = k; exit_code; _ } ->
              if k > completed.(j) then begin
                let per = float_of_int (t' - last.(j)) *. 1e-6 /. float_of_int (k - completed.(j)) in
                for _ = completed.(j) + 1 to k do
                  unit_ms := per :: !unit_ms
                done;
                if completed.(j) = 0 then
                  queue_wait := (float_of_int (t' - acks.(j)) *. 1e-9) :: !queue_wait;
                completed.(j) <- k;
                last.(j) <- t'
              end;
              exits.(j) <- exit_code
          | _ -> fail "status of %s: unexpected reply" bench
        end)
      benches;
    if Util.now_ns () - !last_hwm > 100_000_000 then begin
      hwm := max !hwm (proc_hwm_kb pid);
      last_hwm := Util.now_ns ()
    end;
    if Array.exists Option.is_none exits then Unix.sleepf 0.005
  done;
  let verdict_s = Util.secs_since v0 in
  Tracer.close_span tr vroot;
  hwm := max !hwm (proc_hwm_kb pid);
  stop_daemon pid;
  stopped := true;
  let campaigns =
    List.map
      (fun bench ->
        let d = D.Spool.dir ~spool ~tenant:bench ~id:campaign_id in
        let ck = D.Spool.checkpoint_path d in
        let camp =
          match S.Supervisor.load ck with Ok x -> x | Error e -> fail "%s checkpoint: %s" bench e
        in
        (bench, camp, Util.read_file (D.Spool.csv_path d), Util.read_file ck))
      benches
  in
  let exits = Array.to_list (Array.map (Option.value ~default:(-1)) exits) in
  let records = List.concat_map (fun (_, c, _, _) -> c.S.Supervisor.records) campaigns in
  let completed_runs = List.concat_map (fun (_, c, _, _) -> Bench.completed c) campaigns in
  let censored =
    List.fold_left (fun a (_, c, _, _) -> a + (S.Supervisor.summarize c).S.Supervisor.censored) 0 campaigns
  in
  let rep =
    {
      Bench.setup_s;
      verdict_s;
      units = List.length records;
      sim_cycles =
        List.fold_left (fun a (_, d) -> a +. float_of_int d.S.Supervisor.cycles) 0.0 completed_runs;
      unit_ms = List.rev !unit_ms;
      failed = censored + List.length (List.filter (( <> ) 0) exits);
      digest =
        String.concat ";"
          (List.map (fun (_, _, csv, ck) -> Util.hex_digest csv ^ "/" ^ Util.hex_digest ck) campaigns);
    }
  in
  {
    rep;
    rpc_ms = !rpc_ms;
    submit_ms = !submit_ms;
    queue_wait_s = !queue_wait;
    exits;
    hwm_kb = !hwm;
    campaigns;
    vroot;
  }

let program bench =
  match Stz_workloads.Spec.find bench with
  | Some p -> Stz_workloads.Generate.program (Stz_workloads.Profile.scale scale p)
  | None -> fail "unknown benchmark %s" bench

(* Internal checks on any seed: every tenant exits 0; a solo in-process
   campaign at one worker writes the daemon's CSV and checkpoint bytes;
   the O0 baseline build returns the campaign's reference value. Plus
   the pinned digests on the default seed. *)
let checks ~seed ~dir sessions last =
  let solo_dir = Filename.concat dir "solo" in
  Util.rm_rf solo_dir;
  Util.mkdir_p solo_dir;
  List.concat_map
    (fun (bench, (camp : S.Supervisor.campaign), csv, ck) ->
      let src = program bench in
      let ck_path = Filename.concat solo_dir (bench ^ ".ckpt") in
      let solo =
        S.Driver.campaign ~policy ~jobs:1 ~checkpoint:ck_path ~config:S.Config.stabilizer
          ~opt:Stz_vm.Opt.O2 ~base_seed:(Int64.of_int seed) ~runs ~args src
      in
      let o0 =
        (S.Runtime.run ~config:S.Config.baseline ~seed:(Int64.of_int seed)
           (Stz_vm.Opt.apply Stz_vm.Opt.O0 src) ~args)
          .S.Runtime.return_value
      in
      [
        Bench.check ("tenants-rerand.jobs-independent." ^ bench)
          (S.Report.csv_of_campaign solo = csv && Util.read_file ck_path = ck)
          "daemon CSV and checkpoint vs a solo campaign at 1 worker";
        Bench.check ("tenants-rerand.levels-agree." ^ bench)
          (camp.S.Supervisor.reference = Some o0)
          (Printf.sprintf "reference %s, O0 baseline returns %d"
             (match camp.S.Supervisor.reference with Some r -> string_of_int r | None -> "none")
             o0);
      ]
      @ List.filter_map Fun.id
          [
            Pinned.check ~seed ("tenants-rerand." ^ bench ^ ".csv") (Util.hex_digest csv);
            Pinned.check ~seed ("tenants-rerand." ^ bench ^ ".checkpoint") (Util.hex_digest ck);
          ])
    last.campaigns
  @ [
      Bench.check "tenants-rerand.exits"
        (List.for_all (fun s -> List.for_all (( = ) 0) s.exits) sessions)
        "every tenant campaign exits 0";
      Bench.reps_agree "tenants-rerand" (List.map (fun s -> s.rep) sessions);
    ]

(* One tenant's costs, timed in process on the traced phase's last
   session: what its runner did, outside our reach. *)
type tenant_costs = {
  gen_s : float;
  opt_s : float;
  val_s : float;
  load_s : float;  (** [Supervisor.load] of the tenant's checkpoint *)
  save_s : float;  (** one checkpoint write *)
  ckpt_bytes : int;
  run_s : float;  (** mean replayed [Runtime.run] *)
  runs : int;
  instrs_out : int;
}

let layers ~seed ~dir tr traced last =
  let replay = Probe.fresh () in
  let rid = Tracer.open_span tr ~name:"replay" ~parent:(-1) () in
  let scratch = Filename.concat dir "replay.ckpt" in
  let costs =
    List.mapi
      (fun j (bench, (camp : S.Supervisor.campaign), _, ck) ->
        let src, gen_s = Util.timed (fun () -> program bench) in
        let prog, opt_s = Util.timed (fun () -> Stz_vm.Opt.apply Stz_vm.Opt.O2 src) in
        let (), val_s = Util.timed (fun () -> Stz_vm.Validate.check_exn prog) in
        let spool_dir = D.Spool.dir ~spool:(Filename.concat dir "spool") ~tenant:bench ~id:campaign_id in
        let _, load_s = Util.timed (fun () -> S.Supervisor.load (D.Spool.checkpoint_path spool_dir)) in
        let (), save_s = Util.timed (fun () -> S.Supervisor.save scratch camp) in
        let ns0 = replay.Probe.plain_ns and runs0 = replay.Probe.runs in
        List.iteri
          (fun k ((r : S.Supervisor.record), (d : S.Supervisor.completed)) ->
            if k < 3 then
              Probe.replay_run replay tr ~parent:rid ~unit_id:((j * 1000) + r.S.Supervisor.run)
                ~expect:(d.S.Supervisor.cycles, d.S.Supervisor.return_value)
                ~config:S.Config.stabilizer ~seed:r.S.Supervisor.seed prog ~args)
          (Bench.completed camp);
        {
          gen_s;
          opt_s;
          val_s;
          load_s;
          save_s;
          ckpt_bytes = String.length ck;
          run_s =
            float_of_int (replay.Probe.plain_ns - ns0) *. 1e-9
            /. float_of_int (max 1 (replay.Probe.runs - runs0));
          runs = List.length camp.S.Supervisor.records;
          instrs_out = S.Fuzzer.program_instrs prog;
        })
      last.campaigns
  in
  Tracer.close_span tr rid;
  let avg f = Util.mean (List.map f costs) in
  let share = Probe.runtime_share replay in
  (* The waiting in the client's verdict span is remote work on [slots]
     slots. Each runner generates and compiles its program, makes one
     reference-probe run and then its campaign's runs (split vm/runtime
     by the replay), writing a checkpoint after each. What this
     estimate does not cover is [other]. *)
  let per_slot f = Util.sum (List.map f costs) /. float_of_int slots in
  let run_work = per_slot (fun c -> c.run_s *. float_of_int (c.runs + 1)) in
  let parts =
    List.map
      (fun s ->
        [
          ("daemon", Option.value (List.assoc_opt "daemon" (Tracer.self_times tr ~root:s.vroot)) ~default:0.0);
          ("workloads", per_slot (fun c -> c.gen_s));
          ("opt", per_slot (fun c -> c.opt_s));
          ("validate", per_slot (fun c -> c.val_s));
          ("vm", run_work *. (1.0 -. share));
          ("runtime", run_work *. share);
          ("supervisor", per_slot (fun c -> c.save_s *. float_of_int c.runs));
        ])
      traced
    |> Bench.mean_parts
  in
  let verdict_s = Util.mean (List.map (fun s -> s.rep.Bench.verdict_s) traced) in
  let self = Bench.self_metrics ~verdict_s parts in
  let self_of n = List.assoc ("self_s." ^ n) self in
  let host_total = Util.mean (List.map (fun s -> s.rep.Bench.setup_s +. s.rep.Bench.verdict_s) traced) in
  let all f = List.concat_map f traced in
  let na, notes =
    Bench.not_applicable
      [
        ([ "opt.apply_ms.O0"; "opt.apply_ms.O1"; "opt.apply_ms.O3" ], "tenant campaigns compile at O2 only");
        ( [ "store.append_us"; "store.bytes_per_case" ],
          "tenant campaigns append no ledger (spec ledger=false)" );
        ( [ "parallel.harness_share"; "parallel.roundtrip_us" ],
          "the fork pool runs inside szcd runners, out of reach of outside-in timing" );
        ([ "stats.verdict_ms" ], "tenant campaigns end in a campaign summary, not a two-arm verdict");
      ]
  in
  let counters =
    List.concat_map
      (fun (_, c, _, _) -> List.map (fun (_, d) -> d.S.Supervisor.counters) (Bench.completed c))
      last.campaigns
  in
  ( [
      ("workloads.generate_ms", avg (fun c -> c.gen_s) *. 1000.0);
      ("opt.apply_ms.O2", avg (fun c -> c.opt_s) *. 1000.0);
      ("opt.instrs_out", avg (fun c -> float_of_int c.instrs_out));
      ("opt.host_share", self_of "opt" /. host_total);
      ("validate.check_ms", avg (fun c -> c.val_s) *. 1000.0);
      ("vm.self_share", self_of "vm" /. verdict_s);
      ("runtime.self_share", self_of "runtime" /. verdict_s);
      ("runtime.run_share", share);
      ("supervisor.checkpoint_ms", avg (fun c -> c.save_s) *. 1000.0);
      ("supervisor.checkpoint_bytes", avg (fun c -> float_of_int c.ckpt_bytes));
      ("store.load_ms", avg (fun c -> c.load_s) *. 1000.0);
      ("daemon.submit_ms", Util.median (all (fun s -> s.submit_ms)));
      ("daemon.rpc_ms_p50", Util.median (all (fun s -> s.rpc_ms)));
      ("daemon.queue_wait_s", Util.median (all (fun s -> s.queue_wait_s)));
    ]
    @ Probe.runtime_metrics replay @ Probe.machine_model counters @ Probe.machine_probe ~seed @ self
    @ na,
    notes,
    List.map (fun m -> Bench.check "tenants-rerand.replay" false m) replay.Probe.mismatches )

let run ~szcd ~work_dir ~seed ~seconds ~tr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat work_dir "tenants" in
  (* Each phase reuses one session directory; the traced phase's last
     session stays on disk for the replay. *)
  let (sessions, last), traced =
    Bench.phases ~seconds ~tr
      ~light:(fun s -> { s with campaigns = [] })
      (fun tr i ->
        let phase = if tr.Tracer.on then "traced" else "untraced" in
        session ~szcd ~dir:(Filename.concat dir phase) ~seed tr i)
  in
  let reps ss = List.map (fun s -> s.rep) ss in
  let layers, notes, replay_checks =
    match traced with
    | None -> ([], [], [])
    | Some (traced, traced_last) ->
        let l, n, c = layers ~seed ~dir:(Filename.concat dir "traced") tr traced traced_last in
        (Bench.overhead_share ~untraced:(reps sessions) ~traced:(reps traced) :: l, n, c)
  in
  {
    Bench.reps = reps sessions;
    max_rss_kb = List.fold_left (fun a s -> max a s.hwm_kb) 0 sessions;
    checks = checks ~seed ~dir sessions last @ replay_checks;
    layers;
    notes;
  }
