(* fuzz-gauntlet: [Fuzzer.run_campaign] over a fixed (fuzz_seed, count)
   with szc fuzz's default 30 s watchdog, which forks a worker even at
   one job; then the ledger is read back with [Fuzzlog.load]. Hundreds
   of small programs: the O0-O3 pipelines, per-run cold start, the fork
   pool's pipe traffic and ledger appends all weigh here. *)

module S = Stabilizer
module F = S.Fuzzer
module Fz = Stz_workloads.Fuzz
module L = Stz_store.Fuzzlog
module Opt = Stz_vm.Opt

let count = 500
let rand_runs = 2
let watchdog = 30.0
let levels = [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ]
let fuzz_seed seed = Int64.of_int seed
let fail fmt = Printf.ksprintf failwith fmt

let config ~seed ~out ~jobs ~log =
  {
    F.fuzz_seed = fuzz_seed seed;
    count;
    jobs;
    out_dir = out;
    resume = false;
    rand_runs;
    shrink_budget = 2000;
    plant = None;
    watchdog = Some watchdog;
    log;
  }

let meta ~seed =
  { L.version = 1; fuzz_seed = fuzz_seed seed; count; rand_runs; plant = "none" }

let ledger out = Filename.concat out F.ledger_name

let summary_string (s : F.summary) =
  Printf.sprintf "total=%d clean=%d trapped=%d failed=%d crashed=%d hung=%d" s.F.total s.F.clean
    s.F.trapped s.F.failed s.F.crashed s.F.hung

type gauntlet = {
  rep : Bench.rep;
  summary : F.summary;
  cases : L.case list;  (** read back from the ledger *)
  ledger_bytes : string;
  hwm_kb : int;
  vroot : int;
  campaign_s : float;
}

(* One gauntlet: set-up (fresh output directory and ledger), the
   campaign, the read-back. Per-case host time comes from the fuzzer's
   progress lines, one every 100 cases. *)
let gauntlet ~seed ~out ~jobs tr i =
  let sroot = Tracer.open_span tr ~name:"setup" ~parent:(-1) ~unit_id:i () in
  let (), setup_s =
    Bench.setup_median (fun () ->
        Tracer.span tr ~name:"store" ~parent:sroot (fun _ ->
            Util.rm_rf out;
            Util.mkdir_p out;
            match L.create ~path:(ledger out) (meta ~seed) with
            | Ok lg -> L.close lg
            | Error e -> fail "ledger create: %s" e))
  in
  Tracer.close_span tr sroot;
  let vroot = Tracer.open_span tr ~name:"verdict" ~parent:(-1) ~unit_id:i () in
  let v0 = Util.now_ns () in
  let fid = Tracer.open_span tr ~name:"parallel" ~parent:vroot ~unit_id:i () in
  let last = ref v0 and last_n = ref 0 and unit_ms = ref [] and hwm = ref 0 in
  let log line =
    match Scanf.sscanf_opt line "fuzzed %d/%d" (fun n _ -> n) with
    | Some n when n > !last_n ->
        let t = Util.now_ns () in
        unit_ms := (float_of_int (t - !last) *. 1e-6 /. float_of_int (n - !last_n)) :: !unit_ms;
        Tracer.close_span tr ~t1:t
          (Tracer.open_span tr ~name:"cases" ~parent:fid ~unit_id:(n / 100) ~t0:!last ());
        hwm := max !hwm (Util.tree_hwm_kb (Unix.getpid ()));
        last := t;
        last_n := n
    | _ -> ()
  in
  let summary =
    match F.run_campaign (config ~seed ~out ~jobs ~log) with
    | Ok s -> s
    | Error e -> fail "fuzz campaign aborted: %s" e
  in
  Tracer.close_span tr fid;
  let campaign_s = Util.secs_since v0 in
  let cases =
    Tracer.span tr ~name:"store" ~parent:vroot (fun _ ->
        match L.load (ledger out) with Ok (_, cases) -> cases | Error e -> fail "ledger load: %s" e)
  in
  let verdict_s = Util.secs_since v0 in
  Tracer.close_span tr vroot;
  let ledger_bytes = Util.read_file (ledger out) in
  let rep =
    {
      Bench.setup_s;
      verdict_s;
      units = summary.F.total;
      sim_cycles = List.fold_left (fun a c -> a +. float_of_int c.L.cycles) 0.0 cases;
      unit_ms = List.rev !unit_ms;
      failed = summary.F.failed + summary.F.crashed + summary.F.hung;
      digest = Util.hex_digest ledger_bytes;
    }
  in
  { rep; summary; cases; ledger_bytes; hwm_kb = max !hwm (Util.self_hwm_kb ()); vroot; campaign_s }

(* On any seed: the read-back agrees with the campaign's summary, no
   oracle fires, and two workers write the one-worker ledger. Plus the
   pinned summary and ledger digest on the default seed. *)
let checks ~seed ~dir gs g =
  let g2 = gauntlet ~seed ~out:(Filename.concat dir "jobs2") ~jobs:2 Tracer.off 0 in
  let s = summary_string g.summary in
  [
    Bench.check "fuzz-gauntlet.read-back" (summary_string (F.summarize g.cases) = s) s;
    Bench.check "fuzz-gauntlet.oracles" (g.rep.Bench.failed = 0)
      "no failed, crashed or hung case (trapped cases are planned)";
    Bench.check "fuzz-gauntlet.jobs-independent"
      (g2.ledger_bytes = g.ledger_bytes && summary_string g2.summary = s)
      "ledger and summary at 2 workers vs 1";
    Bench.reps_agree "fuzz-gauntlet" (List.map (fun g -> g.rep) gs);
  ]
  @ List.filter_map Fun.id
      [
        Pinned.check ~seed "fuzz-gauntlet.summary" s;
        Pinned.check ~seed "fuzz-gauntlet.ledger" g.rep.Bench.digest;
      ]

(* In-process replay of every case: [Fuzzer.evaluate] against the
   ledger, and the generator, pipelines and validator timed separately
   on the same programs. *)
type case_costs = {
  mutable eval_s : float;
  mutable gen_s : float;
  opt_s : float array;  (** per level *)
  mutable val_s : float;
  mutable outputs : int;
  mutable instrs_out : int;
  mutable bad : string list;
}

let replay_cases ~seed (cases : L.case list) =
  let c =
    { eval_s = 0.0; gen_s = 0.0; opt_s = Array.make 4 0.0; val_s = 0.0; outputs = 0; instrs_out = 0; bad = [] }
  in
  List.iter
    (fun (case : L.case) ->
      let index = case.L.index in
      let outcome, e = Util.timed (fun () -> F.evaluate ~rand_runs ~fuzz_seed:(fuzz_seed seed) ~index ()) in
      c.eval_s <- c.eval_s +. e;
      (match (outcome, case.L.verdict) with
      | F.Clean { result; cycles }, L.Clean when result = case.L.result && cycles = case.L.cycles -> ()
      | F.Trapped _, L.Trapped -> ()
      | _ -> c.bad <- Printf.sprintf "case %d: in-process outcome differs from ledger" index :: c.bad);
      let p, g = Util.timed (fun () -> Fz.build (Fz.plan ~fuzz_seed:(fuzz_seed seed) ~index)) in
      c.gen_s <- c.gen_s +. g;
      List.iteri
        (fun li lvl ->
          match Util.timed (fun () -> Opt.apply lvl p) with
          | out, o ->
              c.opt_s.(li) <- c.opt_s.(li) +. o;
              let _, v = Util.timed (fun () -> Stz_vm.Validate.check_program out) in
              c.val_s <- c.val_s +. v;
              c.outputs <- c.outputs + 1;
              c.instrs_out <- c.instrs_out + F.program_instrs out
          | exception _ -> ())
        levels)
    cases;
  c

let layers ~seed ~dir tr traced last =
  let rid = Tracer.open_span tr ~name:"replay" ~parent:(-1) () in
  let costs = Tracer.span tr ~name:"replay.cases" ~parent:rid (fun _ -> replay_cases ~seed last.cases) in
  (* Runtime callbacks on fuzz-shaped programs: the first clean cases,
     once as the O0 baseline run the ledger recorded and once under the
     full STABILIZER configuration, as the oracles run them. *)
  let replay = Probe.fresh () in
  List.filter (fun c -> c.L.verdict = L.Clean) last.cases
  |> List.filteri (fun i _ -> i < 25)
  |> List.iter (fun (case : L.case) ->
         let plan = Fz.plan ~fuzz_seed:(fuzz_seed seed) ~index:case.L.index in
         let p = Opt.apply Opt.O0 (Fz.build plan) in
         let limits = Fz.limits plan and args = Fz.args plan in
         Probe.replay_run replay tr ~parent:rid ~unit_id:case.L.index ~limits
           ~expect:(case.L.cycles, case.L.result) ~config:S.Config.baseline ~seed:case.L.case_seed p ~args;
         Probe.replay_run replay tr ~parent:rid ~unit_id:case.L.index ~limits
           ~config:S.Config.stabilizer ~seed:case.L.case_seed p ~args);
  (* Ledger appends, replayed into a scratch ledger. *)
  let scratch = Filename.concat dir "append-probe" in
  Util.rm_rf scratch;
  Util.mkdir_p scratch;
  let append_s =
    match L.create ~path:(ledger scratch) (meta ~seed) with
    | Error e -> fail "append probe: %s" e
    | Ok lg ->
        let _, s = Util.timed (fun () -> List.iter (L.append lg) last.cases) in
        L.close lg;
        s
  in
  let roundtrip = Probe.parallel_roundtrip_us () in
  Tracer.close_span tr rid;
  let n = float_of_int (List.length last.cases) in
  let opt_total = Array.fold_left ( +. ) 0.0 costs.opt_s in
  let share = Probe.runtime_share replay in
  let runs_s = costs.eval_s -. costs.gen_s -. opt_total -. costs.val_s in
  (* The campaign span holds the worker's case evaluations (split by
     the replay) and the pool harness around them: pipes, Marshal,
     forking and the ledger appends, whose replayed cost is booked to
     the store. *)
  let parts =
    List.map
      (fun g ->
        let st = Tracer.self_times tr ~root:g.vroot in
        let get k = Option.value (List.assoc_opt k st) ~default:0.0 in
        let campaign = get "parallel" +. get "cases" in
        [
          ("workloads", costs.gen_s);
          ("opt", opt_total);
          ("validate", costs.val_s);
          ("vm", runs_s *. (1.0 -. share));
          ("runtime", runs_s *. share);
          ("store", get "store" +. append_s);
          ("parallel", campaign -. costs.eval_s -. append_s);
        ])
      traced
    |> Bench.mean_parts
  in
  let verdict_s = Util.mean (List.map (fun g -> g.rep.Bench.verdict_s) traced) in
  let self = Bench.self_metrics ~verdict_s parts in
  let self_of k = List.assoc ("self_s." ^ k) self in
  let host_total = Util.mean (List.map (fun g -> g.rep.Bench.setup_s +. g.rep.Bench.verdict_s) traced) in
  let load_ms =
    Tracer.spans tr
    |> List.filter (fun s ->
           s.Tracer.name = "store"
           && List.exists (fun g -> g.vroot = s.Tracer.parent) traced)
    |> List.map (fun s -> float_of_int (Tracer.dur s) *. 1e-6)
  in
  let campaign_s = Util.median (List.map (fun g -> g.campaign_s) traced) in
  let na, notes =
    Bench.not_applicable
      [
        ( [ "supervisor.checkpoint_ms"; "supervisor.checkpoint_bytes" ],
          "fuzz cases are not supervised campaigns (no checkpoint)" );
        ([ "stats.verdict_ms" ], "the gauntlet's verdict is its oracle summary, not a statistical test");
        ([ "daemon.submit_ms"; "daemon.rpc_ms_p50"; "daemon.queue_wait_s" ], "fuzz-gauntlet does not use szcd");
      ]
  in
  let outs = float_of_int (max 1 costs.outputs) in
  ( [
      ("workloads.generate_ms", costs.gen_s /. n *. 1000.0);
      ("opt.apply_ms.O0", costs.opt_s.(0) /. n *. 1000.0);
      ("opt.apply_ms.O1", costs.opt_s.(1) /. n *. 1000.0);
      ("opt.apply_ms.O2", costs.opt_s.(2) /. n *. 1000.0);
      ("opt.apply_ms.O3", costs.opt_s.(3) /. n *. 1000.0);
      ("opt.instrs_out", float_of_int costs.instrs_out /. outs);
      ("opt.host_share", self_of "opt" /. host_total);
      ("validate.check_ms", costs.val_s /. outs *. 1000.0);
      ("vm.self_share", self_of "vm" /. verdict_s);
      ("runtime.self_share", self_of "runtime" /. verdict_s);
      ("runtime.run_share", share);
      ("store.append_us", append_s /. n *. 1e6);
      ("store.load_ms", Util.median load_ms);
      ("store.bytes_per_case", float_of_int (String.length last.ledger_bytes) /. n);
      ("parallel.harness_share", 1.0 -. (costs.eval_s /. campaign_s));
      ("parallel.roundtrip_us", roundtrip);
    ]
    @ Probe.runtime_metrics replay
    @ Probe.machine_model replay.Probe.counters
    @ Probe.machine_probe ~seed @ self @ na,
    notes,
    List.map (fun m -> Bench.check "fuzz-gauntlet.replay" false m) (replay.Probe.mismatches @ costs.bad) )

let run ~work_dir ~seed ~seconds ~tr =
  let dir = Filename.concat work_dir "fuzz" in
  let (gs, last), traced =
    Bench.phases ~seconds ~tr
      ~light:(fun g -> { g with cases = []; ledger_bytes = "" })
      (fun tr i -> gauntlet ~seed ~out:(Filename.concat dir "out") ~jobs:1 tr i)
  in
  let reps gs = List.map (fun g -> g.rep) gs in
  let layers, notes, replay_checks =
    match traced with
    | None -> ([], [], [])
    | Some (traced, traced_last) ->
        let l, n, c = layers ~seed ~dir tr traced traced_last in
        (Bench.overhead_share ~untraced:(reps gs) ~traced:(reps traced) :: l, n, c)
  in
  {
    Bench.reps = reps gs;
    max_rss_kb = List.fold_left (fun a g -> max a g.hwm_kb) 0 gs;
    checks = checks ~seed ~dir gs last @ replay_checks;
    layers;
    notes;
  }
