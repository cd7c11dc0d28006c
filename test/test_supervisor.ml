(* Fault injection and supervised campaigns: the harness must survive
   every fault profile without raising, keep exact books, retry with
   bounded effort, and resume a killed campaign into a sample
   bit-identical to an uninterrupted one. *)

module S = Stabilizer
module F = Stz_faults.Fault
module Injector = Stz_faults.Injector
module Interp = Stz_vm.Interp
module P = Stz_workloads.Profile

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny =
  {
    P.default with
    P.name = "faulty";
    functions = 8;
    hot_functions = 4;
    iterations = 12;
    inner_trips = 6;
    seed = 0xFA_17L;
  }

let program = lazy (Stz_workloads.Generate.program tiny)
let config = S.Config.stabilizer
let args = [ 1 ]

let policy =
  { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 }

let campaign ?(runs = 8) ?checkpoint ?(resume = false) ?on_record ~seed profile
    =
  S.Supervisor.run_campaign ~policy ~profile ?checkpoint ~resume ?on_record
    ~config ~base_seed:(Int64.of_int seed) ~runs ~args (Lazy.force program)

(* Every fault class armed at probability 1, next to the presets. *)
let all_profiles =
  [
    ("fuel", { F.none with F.fuel_starvation = 1.0 });
    ("depth", { F.none with F.depth_blowout = 1.0; F.starved_depth = 1 });
    ("oom", { F.none with F.alloc_failure = 1.0 });
    ("preempt", { F.none with F.preemption_spike = 1.0 });
    ("poison", { F.none with F.seed_poisoning = 1.0 });
  ]
  @ F.named

(* The books must balance for any campaign: every run accounted for,
   every failed attempt quarantined, retries bounded by policy. *)
let check_books name (c : S.Supervisor.campaign) =
  let s = S.Supervisor.summarize c in
  check_int (name ^ ": every run accounted") s.S.Supervisor.runs
    (s.S.Supervisor.completed + s.S.Supervisor.censored);
  check_int
    (name ^ ": quarantine holds each failed attempt")
    (s.S.Supervisor.total_retries + s.S.Supervisor.censored)
    s.S.Supervisor.quarantined;
  check_bool (name ^ ": retries bounded") true
    (List.for_all
       (fun r -> r.S.Supervisor.retries <= policy.S.Supervisor.max_retries)
       c.S.Supervisor.records);
  check_int (name ^ ": sample size = completed runs") s.S.Supervisor.completed
    (Array.length (S.Supervisor.times c))

(* ------------------------------------------------------------------ *)
(* Injector                                                            *)
(* ------------------------------------------------------------------ *)

let injector_deterministic =
  QCheck.Test.make ~name:"injector plan is a function of (profile, seed)"
    ~count:200 QCheck.int64 (fun seed ->
      let plan () =
        Injector.plan ~profile:F.heavy ~limits:Interp.default_limits ~seed ()
      in
      let a = plan () and b = plan () in
      a.Injector.armed = b.Injector.armed && a.Injector.limits = b.Injector.limits)

let injector_none_is_identity () =
  let plan =
    Injector.plan ~profile:F.none ~limits:Interp.default_limits ~seed:7L ()
  in
  check_bool "nothing armed" true (plan.Injector.armed = []);
  check_bool "limits untouched" true
    (plan.Injector.limits = Interp.default_limits);
  check_bool "no machine override" true (plan.Injector.machine_factory = None)

let injector_chaos_arms_everything () =
  let plan =
    Injector.plan ~profile:F.chaos ~limits:Interp.default_limits ~seed:7L ()
  in
  List.iter
    (fun c ->
      if c <> F.Unknown_trap then
        check_bool (F.class_to_string c ^ " armed") true (Injector.armed plan c))
    F.all_classes;
  check_bool "fuel tightened" true
    (plan.Injector.limits.Interp.max_instructions
    < Interp.default_limits.Interp.max_instructions);
  check_bool "depth tightened" true
    (plan.Injector.limits.Interp.max_call_depth
    <= F.chaos.F.starved_depth)

(* ------------------------------------------------------------------ *)
(* Sample: censoring instead of raising                                *)
(* ------------------------------------------------------------------ *)

let sample_censors_instead_of_raising =
  QCheck.Test.make ~name:"Sample.collect never raises under chaos" ~count:25
    QCheck.small_int (fun seed ->
      let s =
        S.Sample.collect ~profile:F.chaos ~config
          ~base_seed:(Int64.of_int seed) ~runs:5 ~args (Lazy.force program)
      in
      Array.length s.S.Sample.times + List.length s.S.Sample.failures = 5)

let sample_starved_fuel_escapes_no_more () =
  (* The pre-supervisor bug: a starved run used to raise out of collect
     and destroy the whole sample. Now it lands in [failures]. *)
  let limits = Interp.limits ~max_instructions:50 () in
  let s =
    S.Sample.collect ~limits ~config ~base_seed:3L ~runs:4 ~args
      (Lazy.force program)
  in
  check_int "all censored" 4 (List.length s.S.Sample.failures);
  List.iter
    (fun f ->
      check_bool "classified as fuel starvation" true
        (f.S.Sample.kind = S.Sample.Faulted F.Fuel_starvation))
    s.S.Sample.failures

let sample_seed_derivation_is_stable () =
  let seeds = S.Sample.seeds ~base_seed:42L ~runs:5 in
  let g = Stz_prng.Splitmix.create 42L in
  let expected = Array.init 5 (fun _ -> Stz_prng.Splitmix.split g) in
  check_bool "matches sequential splits" true (seeds = expected)

(* ------------------------------------------------------------------ *)
(* Outcome gates                                                       *)
(* ------------------------------------------------------------------ *)

let outcome_gates () =
  match S.Outcome.run ~config ~seed:1L (Lazy.force program) ~args with
  | S.Outcome.Completed r ->
      check_bool "budget gate" true
        (match S.Outcome.check ~budget_cycles:(r.S.Runtime.cycles - 1) r with
        | S.Outcome.Budget_exceeded _ -> true
        | _ -> false);
      check_bool "reference gate" true
        (match S.Outcome.check ~reference:(r.S.Runtime.return_value + 1) r with
        | S.Outcome.Invalid_result _ -> true
        | _ -> false);
      check_bool "clean run passes" true
        (S.Outcome.check ~budget_cycles:r.S.Runtime.cycles
           ~reference:r.S.Runtime.return_value r
        = S.Outcome.Completed r)
  | o -> Alcotest.failf "clean run did not complete: %s" (S.Outcome.to_string o)

let outcome_classifies_exceptions () =
  let cls e = S.Outcome.classify_exn e in
  check_bool "fuel" true (cls Interp.Fuel_exhausted = F.Fuel_starvation);
  check_bool "depth" true (cls Interp.Call_depth_exceeded = F.Depth_blowout);
  check_bool "injected oom" true (cls F.Injected_oom = F.Alloc_failure);
  check_bool "genuine oom" true (cls Out_of_memory = F.Alloc_failure);
  check_bool "anything else" true (cls Exit = F.Unknown_trap)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let campaigns_never_raise () =
  List.iter
    (fun (name, profile) -> check_books name (campaign ~seed:11 profile))
    all_profiles

let campaign_books_balance_qcheck =
  QCheck.Test.make ~name:"campaign books balance for any seed" ~count:15
    QCheck.small_int (fun seed ->
      let c = campaign ~runs:5 ~seed F.heavy in
      let s = S.Supervisor.summarize c in
      s.S.Supervisor.completed + s.S.Supervisor.censored = s.S.Supervisor.runs
      && s.S.Supervisor.total_retries + s.S.Supervisor.censored
         = s.S.Supervisor.quarantined)

let campaign_deterministic () =
  let a = campaign ~seed:5 F.heavy and b = campaign ~seed:5 F.heavy in
  check_bool "identical records" true
    (a.S.Supervisor.records = b.S.Supervisor.records);
  check_bool "identical times" true
    (S.Supervisor.times a = S.Supervisor.times b)

let campaign_retries_do_not_shift_other_seeds () =
  (* A run's retries draw from its own seed, so clean runs keep the
     exact seeds an injection-free campaign would use. *)
  let clean = campaign ~runs:10 ~seed:9 F.none in
  let faulty = campaign ~runs:10 ~seed:9 { F.none with F.alloc_failure = 0.4 } in
  let primary = S.Sample.seeds ~base_seed:9L ~runs:10 in
  List.iter2
    (fun (c : S.Supervisor.record) (f : S.Supervisor.record) ->
      check_bool "clean campaign uses primary seeds" true
        (c.S.Supervisor.seed = primary.(c.S.Supervisor.run));
      if f.S.Supervisor.retries = 0 then
        check_bool "unretried runs keep their seed" true
          (f.S.Supervisor.seed = c.S.Supervisor.seed))
    clean.S.Supervisor.records faulty.S.Supervisor.records

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "stz-supervisor" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let checkpoint_roundtrip () =
  with_temp (fun path ->
      let c = campaign ~seed:21 F.heavy in
      S.Supervisor.save path c;
      match S.Supervisor.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok c' ->
          check_bool "records" true (c.S.Supervisor.records = c'.S.Supervisor.records);
          check_bool "quarantine" true
            (c.S.Supervisor.quarantined = c'.S.Supervisor.quarantined);
          check_bool "budgets" true
            (c.S.Supervisor.budget_cycles = c'.S.Supervisor.budget_cycles
            && c.S.Supervisor.budget_fuel = c'.S.Supervisor.budget_fuel);
          check_bool "reference" true
            (c.S.Supervisor.reference = c'.S.Supervisor.reference))

let checkpoint_file_roundtrip () =
  with_temp (fun path ->
      let c = campaign ~seed:22 ~checkpoint:path F.light in
      match S.Supervisor.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok c' ->
          check_bool "file round-trips records" true
            (c.S.Supervisor.records = c'.S.Supervisor.records))

exception Killed

let kill_and_resume_is_uninterrupted () =
  (* Kill the campaign after 4 finished runs, resume from its
     checkpoint, and demand the exact sample of an uninterrupted
     campaign: same seeds, bit-identical times. *)
  let uninterrupted = campaign ~runs:10 ~seed:7 F.heavy in
  with_temp (fun path ->
      let seen = ref 0 in
      (try
         ignore
           (campaign ~runs:10 ~seed:7 ~checkpoint:path
              ~on_record:(fun _ ->
                incr seen;
                if !seen = 4 then raise Killed)
              F.heavy)
       with Killed -> ());
      check_int "killed mid-campaign" 4 !seen;
      let resumed = campaign ~runs:10 ~seed:7 ~checkpoint:path ~resume:true F.heavy in
      check_bool "same records" true
        (uninterrupted.S.Supervisor.records = resumed.S.Supervisor.records);
      check_bool "bit-identical times" true
        (S.Supervisor.times uninterrupted = S.Supervisor.times resumed);
      check_bool "same quarantine" true
        (List.sort compare uninterrupted.S.Supervisor.quarantined
        = List.sort compare resumed.S.Supervisor.quarantined);
      check_books "resumed" resumed)

let resume_over_finished_campaign_is_identity () =
  with_temp (fun path ->
      let c1 = campaign ~seed:23 ~checkpoint:path F.heavy in
      let c2 = campaign ~seed:23 ~checkpoint:path ~resume:true F.heavy in
      check_bool "identity" true
        (c1.S.Supervisor.records = c2.S.Supervisor.records))

let resume_refuses_foreign_checkpoint () =
  with_temp (fun path ->
      ignore (campaign ~seed:1 ~checkpoint:path F.light);
      let mismatch = ref false in
      (try ignore (campaign ~seed:2 ~checkpoint:path ~resume:true F.light)
       with S.Supervisor.Mismatch _ -> mismatch := true);
      check_bool "different base seed refused" true !mismatch;
      let mismatch = ref false in
      (try ignore (campaign ~seed:1 ~checkpoint:path ~resume:true F.heavy)
       with S.Supervisor.Mismatch _ -> mismatch := true);
      check_bool "different fault profile refused" true !mismatch)

(* ------------------------------------------------------------------ *)
(* Min-N gate                                                          *)
(* ------------------------------------------------------------------ *)

let min_n_refuses_censored_samples () =
  let a = Array.init 12 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  let b = Array.init 12 (fun i -> 1.2 +. (0.01 *. float_of_int i)) in
  (match S.Experiment.compare_samples_gated ~min_n:20 a b with
  | S.Experiment.Insufficient { min_n; n_a; n_b } ->
      check_int "min_n" 20 min_n;
      check_int "n_a" 12 n_a;
      check_int "n_b" 12 n_b
  | S.Experiment.Verdict _ -> Alcotest.fail "verdict from censored sample");
  match S.Experiment.compare_samples_gated ~min_n:10 a b with
  | S.Experiment.Verdict _ -> ()
  | S.Experiment.Insufficient _ -> Alcotest.fail "refused a sufficient sample"

let verdict_gates_censored_campaigns () =
  (* An all-OOM campaign yields zero usable runs; the verdict must be a
     refusal, not a conclusion. *)
  let bad = campaign ~seed:31 { F.none with F.alloc_failure = 1.0 } in
  let good = campaign ~seed:32 F.none in
  check_int "no usable runs" 0 (Array.length (S.Supervisor.times bad));
  (match S.Supervisor.verdict ~min_n:3 bad good with
  | S.Experiment.Insufficient _ -> ()
  | S.Experiment.Verdict _ -> Alcotest.fail "verdict from empty sample");
  check_bool "refusal is described" true
    (String.length
       (S.Experiment.describe_gated (S.Supervisor.verdict ~min_n:3 bad good))
    > 0)

(* ------------------------------------------------------------------ *)
(* Report telemetry                                                    *)
(* ------------------------------------------------------------------ *)

let report_campaign_line_and_csv () =
  let c = campaign ~runs:10 ~seed:41 F.heavy in
  let s = S.Supervisor.summarize c in
  let line = S.Report.campaign_line s in
  check_bool "line mentions run count" true
    (String.length line > 0
    && s.S.Supervisor.runs = List.length c.S.Supervisor.records);
  let csv = S.Report.csv_of_campaign c in
  let all_rows = String.split_on_char '\n' (String.trim csv) in
  (* Data rows exclude the '#'-prefixed power footer comments. *)
  let rows =
    List.filter
      (fun r -> String.length r = 0 || r.[0] <> '#')
      all_rows
  in
  check_int "one row per run + header" (s.S.Supervisor.runs + 1)
    (List.length rows);
  (if s.S.Supervisor.completed >= 1 then
     check_bool "power footer present" true
       (List.exists
          (fun r -> String.length r > 0 && r.[0] = '#')
          all_rows));
  check_bool "header names outcome" true
    (match rows with
    | header :: _ ->
        String.length header >= 7
        && List.mem "outcome" (String.split_on_char ',' header)
    | [] -> false)

let report_csv_header_golden () =
  (* Pin the exact header and its arity against the rows: external
     analysis pipelines parse these columns by name and by position, so
     any drift must be a deliberate, test-visible change. *)
  let expected_header =
    "run,seed,retries,outcome,cycles,seconds,value,l1i_misses,l1d_misses,\
     l2_misses,l3_misses,itlb_misses,dtlb_misses,branch_mispredictions,\
     epochs,relocations"
  in
  let c = campaign ~runs:6 ~seed:43 F.none in
  let csv = S.Report.csv_of_campaign c in
  let rows =
    List.filter
      (fun r -> String.length r > 0 && r.[0] <> '#')
      (String.split_on_char '\n' (String.trim csv))
  in
  match rows with
  | [] -> Alcotest.fail "empty csv"
  | header :: data ->
      Alcotest.(check string) "header is pinned" expected_header header;
      let arity s = List.length (String.split_on_char ',' s) in
      check_int "header arity" 16 (arity header);
      (* 7 identity/measurement columns + 7 counter + epochs + relocations
         = 9 columns after value. *)
      check_int "counter columns after value" 9 (arity header - 7);
      List.iter
        (fun row ->
          check_int "row arity matches header" (arity header) (arity row))
        data

(* ------------------------------------------------------------------ *)
(* Campaign bytes pinned across the reference probe                    *)
(* ------------------------------------------------------------------ *)

(* A campaign's artifacts, pinned: the checkpoint file, the outcome CSV
   and the deterministic Chrome trace, under a profile that arms run 0
   (fuel starvation on every run) and under no faults at all. Every
   combination of --jobs 1/2 and traced/dark must write the same
   records, checkpoint and CSV, and the traced runs the same trace. *)
let golden_campaign_bytes =
  [
    ( "fuel",
      ( "2fc9660a087e8cd36872ae84c08462e2",
        "c518e0afcdd8a403260e4093fa3f45ec",
        "ca17a228430478daea8f0203c889d6f4" ) );
    ( "none",
      ( "307016c15709c0bd2f567f4db3d254cc",
        "ff5fcd9d9d0dd3551821a0cd81f2a618",
        "3c4c8684192392ce75e425bd6d06bbd7" ) );
  ]

let campaign_bytes_pinned () =
  let hex s = Digest.to_hex (Digest.string s) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let actual =
    List.map
      (fun (name, profile) ->
        let variants =
          List.concat_map
            (fun jobs ->
              List.map
                (fun traced ->
                  let path = Filename.temp_file "szc-pin" ".ckpt" in
                  let tr =
                    if traced then Some (Stz_telemetry.Trace.create ()) else None
                  in
                  let c =
                    S.Supervisor.run_campaign ~policy ~profile ~jobs
                      ~checkpoint:path ?telemetry:tr ~config ~base_seed:77L
                      ~runs:6 ~args (Lazy.force program)
                  in
                  let ckpt = read path in
                  Sys.remove path;
                  ( c.S.Supervisor.records,
                    hex ckpt,
                    hex (S.Report.csv_of_campaign c),
                    Option.map
                      (fun tr ->
                        hex
                          (Stz_telemetry.Export.chrome_string
                             (Stz_telemetry.Trace.events tr)))
                      tr ))
                [ false; true ])
            [ 1; 2 ]
        in
        match variants with
        | (records, ckpt, csv, _) :: _ ->
            List.iter
              (fun (r, k, v, _) ->
                check_bool (name ^ ": records agree") true (r = records);
                Alcotest.(check string) (name ^ ": checkpoint agrees") ckpt k;
                Alcotest.(check string) (name ^ ": csv agrees") csv v)
              variants;
            let traces = List.filter_map (fun (_, _, _, t) -> t) variants in
            let trace = List.hd traces in
            List.iter
              (Alcotest.(check string) (name ^ ": trace agrees") trace)
              traces;
            (name, (ckpt, csv, trace))
        | [] -> assert false)
      [ ("fuel", { F.none with F.fuel_starvation = 1.0 }); ("none", F.none) ]
  in
  Alcotest.(check (list (pair string (triple string string string))))
    "checkpoint, csv and trace digests" golden_campaign_bytes actual

(* ------------------------------------------------------------------ *)
(* Profiles and JSON plumbing                                          *)
(* ------------------------------------------------------------------ *)

let profile_parsing () =
  (match F.profile_of_string "light" with
  | Ok p -> check_bool "preset" true (p = F.light)
  | Error e -> Alcotest.fail e);
  (match F.profile_of_string "fuel=0.5,poison=0.25" with
  | Ok p ->
      check_bool "fuel set" true (p.F.fuel_starvation = 0.5);
      check_bool "poison set" true (p.F.seed_poisoning = 0.25);
      check_bool "others off" true (p.F.alloc_failure = 0.0)
  | Error e -> Alcotest.fail e);
  check_bool "unknown preset rejected" true
    (Result.is_error (F.profile_of_string "bogus"));
  check_bool "bad probability rejected" true
    (Result.is_error (F.profile_of_string "fuel=often"))

let fault_class_names_roundtrip () =
  List.iter
    (fun c ->
      check_bool (F.class_to_string c) true
        (F.class_of_string (F.class_to_string c) = Some c))
    F.all_classes

let json_roundtrip () =
  let module J = S.Json in
  let v =
    J.Obj
      [
        ("runs", J.Int 3);
        ("seed", J.of_int64 Int64.min_int);
        ("name", J.String "a \"quoted\" \\ string\n");
        ("xs", J.List [ J.Null; J.Bool true; J.Float 1.5; J.Int (-7) ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok v' -> check_bool "round-trips" true (v = v')
  | Error e -> Alcotest.fail e);
  (match J.member "seed" v with
  | Some s -> check_bool "int64 survives" true (J.to_int64 s = Some Int64.min_int)
  | None -> Alcotest.fail "member lookup");
  check_bool "garbage rejected" true (Result.is_error (J.of_string "{runs:"))

let () =
  Alcotest.run "supervisor"
    [
      ( "injector",
        [
          QCheck_alcotest.to_alcotest injector_deterministic;
          Alcotest.test_case "none is identity" `Quick injector_none_is_identity;
          Alcotest.test_case "chaos arms all" `Quick injector_chaos_arms_everything;
        ] );
      ( "sample",
        [
          QCheck_alcotest.to_alcotest sample_censors_instead_of_raising;
          Alcotest.test_case "starved fuel censored" `Quick
            sample_starved_fuel_escapes_no_more;
          Alcotest.test_case "seed derivation stable" `Quick
            sample_seed_derivation_is_stable;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "budget and reference gates" `Quick outcome_gates;
          Alcotest.test_case "exception classification" `Quick
            outcome_classifies_exceptions;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "never raises, any profile" `Quick
            campaigns_never_raise;
          QCheck_alcotest.to_alcotest campaign_books_balance_qcheck;
          Alcotest.test_case "deterministic" `Quick campaign_deterministic;
          Alcotest.test_case "retries keep other seeds" `Quick
            campaign_retries_do_not_shift_other_seeds;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "json round-trip" `Quick checkpoint_roundtrip;
          Alcotest.test_case "file round-trip" `Quick checkpoint_file_roundtrip;
          Alcotest.test_case "kill + resume = uninterrupted" `Quick
            kill_and_resume_is_uninterrupted;
          Alcotest.test_case "resume of finished is identity" `Quick
            resume_over_finished_campaign_is_identity;
          Alcotest.test_case "foreign checkpoint refused" `Quick
            resume_refuses_foreign_checkpoint;
        ] );
      ( "min-n gate",
        [
          Alcotest.test_case "refuses censored samples" `Quick
            min_n_refuses_censored_samples;
          Alcotest.test_case "gates campaign verdicts" `Quick
            verdict_gates_censored_campaigns;
        ] );
      ( "report",
        [
          Alcotest.test_case "campaign line + csv" `Quick
            report_campaign_line_and_csv;
          Alcotest.test_case "csv header golden" `Quick
            report_csv_header_golden;
          Alcotest.test_case "campaign bytes pinned" `Quick
            campaign_bytes_pinned;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "profile parsing" `Quick profile_parsing;
          Alcotest.test_case "fault class names" `Quick
            fault_class_names_roundtrip;
          Alcotest.test_case "json round-trip" `Quick json_roundtrip;
        ] );
    ]
