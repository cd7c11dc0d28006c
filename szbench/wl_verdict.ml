(* verdict-mcf: the paper's E4 question, "is -O3 faster than -O2 on
   mcf?", asked the way `szc compare mcf --opt-a O2 --opt-b O3 --jobs 1`
   asks it: two supervised arms under the full code.heap.stack
   configuration, then the min-N-gated t-test/Wilcoxon verdict. In
   process, no checkpoint: the fork pool, store and daemon do nothing. *)

module S = Stabilizer
module W = Stz_workloads
module Opt = Stz_vm.Opt

let scale = 0.3
let runs = 12
let min_n = 3
let args = W.Generate.default_args

(* [Driver.compare_campaigns] runs arm B from this offset of the base
   seed; the arms are driven through [Supervisor.run_campaign] here (it
   alone reports each run), so the offset is restated. *)
let arm_b_salt = 0x0B5EEDL

let level_index = function Opt.O0 -> 0 | Opt.O1 -> 1 | Opt.O2 -> 2 | Opt.O3 -> 3

type built = { src : Stz_vm.Ir.program; arms : (Opt.level * Stz_vm.Ir.program) list }

(* Set-up: generate mcf and compile both arms ([Driver.compile]:
   optimize, then validate). *)
let build tr ~parent =
  let src =
    Tracer.span tr ~name:"workloads" ~parent (fun _ ->
        W.Generate.program (W.Profile.scale scale W.Spec.mcf))
  in
  let compile lvl =
    let out =
      Tracer.span tr ~name:"opt" ~parent ~unit_id:(level_index lvl) (fun _ -> Opt.apply lvl src)
    in
    Tracer.span tr ~name:"validate" ~parent (fun _ -> Stz_vm.Validate.check_exn out);
    (lvl, out)
  in
  { src; arms = [ compile Opt.O2; compile Opt.O3 ] }

type verdict = {
  a : S.Supervisor.campaign;
  b : S.Supervisor.campaign;
  gated : S.Experiment.gated;
  unit_ms : float list;
}

let arm tr ~parent ~jobs ~samples (prog : Stz_vm.Ir.program) base_seed =
  Tracer.span tr ~name:"supervisor" ~parent (fun sid ->
      let last = ref (Util.now_ns ()) in
      let on_record (r : S.Supervisor.record) =
        let t = Util.now_ns () in
        samples := (float_of_int (t - !last) *. 1e-6) :: !samples;
        Tracer.close_span tr ~t1:t
          (Tracer.open_span tr ~name:"run" ~parent:sid ~unit_id:r.S.Supervisor.run ~t0:!last ());
        last := t
      in
      S.Supervisor.run_campaign ~jobs ~on_record ~config:S.Config.stabilizer ~base_seed ~runs
        ~args prog)

let verdict tr ~parent ~base_seed built =
  let samples = ref [] in
  match built.arms with
  | [ (_, pa); (_, pb) ] ->
      let a = arm tr ~parent ~jobs:1 ~samples pa base_seed in
      let b = arm tr ~parent ~jobs:1 ~samples pb (Int64.add base_seed arm_b_salt) in
      let gated = Tracer.span tr ~name:"stats" ~parent (fun _ -> S.Supervisor.verdict ~min_n a b) in
      { a; b; gated; unit_ms = List.rev !samples }
  | _ -> invalid_arg "verdict: two arms expected"

(* The pinned outputs: every run's return value, a digest of every
   run's hardware counters, and the verdict's speedup and p-value. *)
let outputs v =
  let both = Bench.completed v.a @ Bench.completed v.b in
  let returns =
    List.sort_uniq compare (List.map (fun (_, d) -> d.S.Supervisor.return_value) both)
    |> List.map string_of_int |> String.concat ","
  in
  let counters =
    List.map
      (fun ((r : S.Supervisor.record), (d : S.Supervisor.completed)) ->
        Printf.sprintf "%d %Ld %s" r.S.Supervisor.run r.S.Supervisor.seed
          (String.concat " "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                (Stz_machine.Hierarchy.counters_fields d.S.Supervisor.counters))))
      both
    |> String.concat "\n" |> Util.hex_digest
  in
  let speedup, p =
    match v.gated with
    | S.Experiment.Verdict c ->
        (Printf.sprintf "%.17g" c.S.Experiment.speedup, Printf.sprintf "%.17g" c.S.Experiment.p_value)
    | S.Experiment.Insufficient _ -> ("insufficient", "insufficient")
  in
  [ ("returns", returns); ("counters", counters); ("speedup", speedup); ("p_value", p) ]

let rep ~seed tr i =
  let base_seed = Int64.of_int seed in
  let sroot = Tracer.open_span tr ~name:"setup" ~parent:(-1) ~unit_id:i () in
  let built, setup_s = Bench.setup_median (fun () -> build tr ~parent:sroot) in
  Tracer.close_span tr sroot;
  let vroot = Tracer.open_span tr ~name:"verdict" ~parent:(-1) ~unit_id:i () in
  let v, verdict_s = Util.timed (fun () -> verdict tr ~parent:vroot ~base_seed built) in
  Tracer.close_span tr vroot;
  let both = Bench.completed v.a @ Bench.completed v.b in
  let summary c = S.Supervisor.summarize c in
  let rep =
    {
      Bench.setup_s;
      verdict_s;
      units = List.length both;
      sim_cycles =
        List.fold_left (fun acc (_, d) -> acc +. float_of_int d.S.Supervisor.cycles) 0.0 both;
      unit_ms = v.unit_ms;
      failed = (summary v.a).S.Supervisor.censored + (summary v.b).S.Supervisor.censored;
      digest = Util.hex_digest (String.concat ";" (List.map snd (outputs v)));
    }
  in
  (rep, (built, v, vroot))

(* Internal checks that hold on any seed, plus the pinned outputs on the
   default one. *)
let checks ~seed reps (built, v, _) =
  let base_seed = Int64.of_int seed in
  let outs = outputs v in
  let o0 =
    (S.Runtime.run ~config:S.Config.baseline ~seed:base_seed (Opt.apply Opt.O0 built.src) ~args)
      .S.Runtime.return_value
  in
  let returns = List.assoc "returns" outs in
  let jobs2 =
    match built.arms with
    | (_, pa) :: _ ->
        arm Tracer.off ~parent:(-1) ~jobs:2 ~samples:(ref []) pa base_seed
    | [] -> invalid_arg "checks: no arms"
  in
  [
    Bench.check "verdict-mcf.verdict"
      (match v.gated with S.Experiment.Verdict _ -> true | S.Experiment.Insufficient _ -> false)
      (S.Experiment.describe_gated v.gated);
    Bench.check "verdict-mcf.levels-agree"
      (returns = string_of_int o0)
      (Printf.sprintf "O2/O3 runs return %s, O0 baseline returns %d" returns o0);
    Bench.check "verdict-mcf.jobs-independent"
      (S.Report.csv_of_campaign jobs2 = S.Report.csv_of_campaign v.a)
      "O2 arm CSV at 2 workers vs 1";
    Bench.reps_agree "verdict-mcf" reps;
  ]
  @ List.filter_map (fun (k, x) -> Pinned.check ~seed ("verdict-mcf." ^ k) x) outs

let durations_ms tr name ?unit_id () =
  Tracer.spans tr
  |> List.filter (fun s ->
         s.Tracer.name = name
         && match unit_id with Some u -> s.Tracer.unit_id = u | None -> true)
  |> List.map (fun s -> float_of_int (Tracer.dur s) *. 1e-6)

(* The traced half: per-layer metrics from the spans, a replay of each
   arm's first runs for the runtime callbacks, and the machine probe. *)
let layers ~seed tr traced (_, (last_built, last_v, _)) =
  let replay = Probe.fresh () in
  let rid = Tracer.open_span tr ~name:"replay" ~parent:(-1) () in
  List.iter2
    (fun (c : S.Supervisor.campaign) (_, prog) ->
      List.iteri
        (fun k ((r : S.Supervisor.record), (d : S.Supervisor.completed)) ->
          if k < 4 then
            Probe.replay_run replay tr ~parent:rid ~unit_id:r.S.Supervisor.run
              ~expect:(d.S.Supervisor.cycles, d.S.Supervisor.return_value)
              ~config:S.Config.stabilizer ~seed:r.S.Supervisor.seed prog ~args)
        (Bench.completed c))
    [ last_v.a; last_v.b ] last_built.arms;
  Tracer.close_span tr rid;
  let share = Probe.runtime_share replay in
  let parts =
    List.map
      (fun (_, vroot) ->
        let st = Tracer.self_times tr ~root:vroot in
        let get n = Option.value (List.assoc_opt n st) ~default:0.0 in
        let run = get "run" in
        [
          ("vm", run *. (1.0 -. share));
          ("runtime", run *. share);
          ("supervisor", get "supervisor");
          ("stats", get "stats");
        ])
      traced
    |> Bench.mean_parts
  in
  let verdict_s = Util.mean (List.map (fun (r, _) -> r.Bench.verdict_s) traced) in
  let self = Bench.self_metrics ~verdict_s parts in
  let self_of n = List.assoc ("self_s." ^ n) self in
  let host_total = Util.mean (List.map (fun (r, _) -> r.Bench.setup_s +. r.Bench.verdict_s) traced) in
  let instrs =
    List.map (fun (_, p) -> float_of_int (S.Fuzzer.program_instrs p)) last_built.arms
  in
  let level n = Util.median (durations_ms tr "opt" ~unit_id:n ()) in
  let na, notes =
    Bench.not_applicable
      [
        ([ "opt.apply_ms.O0"; "opt.apply_ms.O1" ], "verdict-mcf compiles only O2 and O3");
        ( [ "supervisor.checkpoint_ms"; "supervisor.checkpoint_bytes"; "store.append_us";
            "store.load_ms"; "store.bytes_per_case" ],
          "verdict-mcf runs without a checkpoint or ledger" );
        ([ "parallel.harness_share"; "parallel.roundtrip_us" ], "verdict-mcf runs in process (--jobs 1)");
        ([ "daemon.submit_ms"; "daemon.rpc_ms_p50"; "daemon.queue_wait_s" ], "verdict-mcf does not use szcd");
      ]
  in
  let counters =
    List.map (fun (_, d) -> d.S.Supervisor.counters) (Bench.completed last_v.a @ Bench.completed last_v.b)
  in
  ( [
      ("workloads.generate_ms", Util.median (durations_ms tr "workloads" ()));
      ("opt.apply_ms.O2", level 2);
      ("opt.apply_ms.O3", level 3);
      ("opt.instrs_out", Util.mean instrs);
      ("opt.host_share", (level 2 +. level 3) /. 1000.0 /. host_total);
      ("validate.check_ms", Util.median (durations_ms tr "validate" ()));
      ("vm.self_share", self_of "vm" /. verdict_s);
      ("runtime.self_share", self_of "runtime" /. verdict_s);
      ("runtime.run_share", share);
      ("stats.verdict_ms", Util.median (durations_ms tr "stats" ()));
    ]
    @ Probe.runtime_metrics replay @ Probe.machine_model counters @ Probe.machine_probe ~seed @ self
    @ na,
    notes,
    List.map (fun m -> Bench.check "verdict-mcf.replay" false m) replay.Probe.mismatches )

let run ~seed ~seconds ~tr =
  let light (rep, (_, _, vroot)) = (rep, vroot) in
  let (untraced, last), traced = Bench.phases ~seconds ~tr ~light (fun tr i -> rep ~seed tr i) in
  let reps = List.map fst untraced in
  let layers, notes, replay_checks =
    match traced with
    | None -> ([], [], [])
    | Some (traced, traced_last) ->
        let l, n, c = layers ~seed tr traced traced_last in
        (Bench.overhead_share ~untraced:reps ~traced:(List.map fst traced) :: l, n, c)
  in
  {
    Bench.reps;
    max_rss_kb = Util.self_hwm_kb ();
    checks = checks ~seed reps (snd last) @ replay_checks;
    layers;
    notes;
  }
