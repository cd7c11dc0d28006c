(* The differential fuzzing subsystem end to end: sampler determinism,
   the Text round-trip property over generated programs, Validate
   acceptance of every SPEC-clone pipeline output, oracle determinism,
   the planted-bug acceptance gauntlet (the re-introduced shift-clamp
   must be caught and shrunk small), and the fuzz ledger's crash-atomic
   append/resume discipline. *)

module Fz = Stz_workloads.Fuzz
module Spec = Stz_workloads.Spec
module Gen = Stz_workloads.Generate
module P = Stz_workloads.Profile
module Ir = Stz_vm.Ir
module Text = Stz_vm.Text
module Opt = Stz_vm.Opt
module Validate = Stz_vm.Validate
module Fuzzer = Stabilizer.Fuzzer
module Fl = Stz_store.Fuzzlog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let unwrap = function Ok v -> v | Error e -> Alcotest.fail e

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_temp_dir f =
  let path = Filename.temp_file "szc-fuzz-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program_instrs p =
  Array.fold_left (fun acc f -> acc + Ir.func_instr_count f) 0 p.Ir.funcs

(* "name md5" for the ledger and every reproducer in [dir], by name. *)
let artifact_digests dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         f = Fuzzer.ledger_name
         || (String.starts_with ~prefix:"repro-" f
            && Filename.check_suffix f ".szt"))
  |> List.sort compare
  |> List.map (fun f ->
         f ^ " " ^ Digest.to_hex (Digest.file (Filename.concat dir f)))

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let plan_deterministic () =
  List.iter
    (fun index ->
      let a = Fz.plan ~fuzz_seed:42L ~index in
      let b = Fz.plan ~fuzz_seed:42L ~index in
      check_bool "same plan" true (a = b);
      let pa = Fz.build a and pb = Fz.build b in
      check_bool "same program" true (pa = pb);
      check_string "same text" (Text.to_string pa) (Text.to_string pb);
      check_bool "same args" true (Fz.args a = Fz.args b))
    [ 0; 1; 17; 100; 4096 ]

let plans_diverse () =
  let plans = List.init 200 (fun index -> Fz.plan ~fuzz_seed:9L ~index) in
  let count pred = List.length (List.filter pred plans) in
  let recursive = count (fun p -> p.Fz.recursion_depth > 0) in
  let trap_seeded = count (fun p -> p.Fz.trap_mode <> Fz.No_trap) in
  let func_counts =
    List.sort_uniq compare (List.map (fun p -> p.Fz.profile.P.functions) plans)
  in
  check_bool "a fair share is recursive" true (recursive > 20);
  check_bool "some cases are trap-seeded" true (trap_seeded > 2);
  check_bool "profiles vary" true (List.length func_counts > 1)

(* ------------------------------------------------------------------ *)
(* Text round-trip: parse (print p) = p for generated programs         *)
(* ------------------------------------------------------------------ *)

let round_trip name p =
  let s = Text.to_string p in
  let q = try Text.of_string s with Text.Parse_error { line; message } ->
    Alcotest.failf "%s: parse error at line %d: %s" name line message
  in
  check_bool (name ^ " round-trips") true (p = q);
  check_string (name ^ " text is stable") s (Text.to_string q)

let text_round_trip_spec () =
  List.iter
    (fun prof ->
      let prof = Spec.sized `Test prof in
      round_trip prof.P.name (Gen.program prof))
    Spec.all

let text_round_trip_fuzz () =
  for index = 0 to 49 do
    round_trip
      (Printf.sprintf "fuzz case %d" index)
      (Fz.build (Fz.plan ~fuzz_seed:3L ~index))
  done

(* ------------------------------------------------------------------ *)
(* Validate coverage: every SPEC clone x every pipeline                *)
(* ------------------------------------------------------------------ *)

let validate_spec_pipelines () =
  List.iter
    (fun prof ->
      let prof = Spec.sized `Test prof in
      let p = Gen.program prof in
      List.iter
        (fun lvl ->
          match Validate.check_program (Opt.apply lvl p) with
          | [] -> ()
          | errs ->
              Alcotest.failf "%s at %s: %d validation errors (first: %s: %s)"
                prof.P.name (Opt.level_to_string lvl) (List.length errs)
                (List.hd errs).Validate.where (List.hd errs).Validate.what)
        [ Opt.O0; Opt.O1; Opt.O2; Opt.O3 ])
    Spec.all

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let evaluate_deterministic () =
  List.iter
    (fun index ->
      let a = Fuzzer.evaluate ~fuzz_seed:11L ~index () in
      let b = Fuzzer.evaluate ~fuzz_seed:11L ~index () in
      check_bool "outcome is stable" true (a = b))
    [ 0; 3; 9 ]

let evaluate_clean_on_healthy_optimizer () =
  for index = 0 to 9 do
    match Fuzzer.evaluate ~fuzz_seed:11L ~index () with
    | Fuzzer.Clean _ | Fuzzer.Trapped _ -> ()
    | Fuzzer.Failed { oracle; detail; _ } ->
        Alcotest.failf "index %d failed unexpectedly: %s (%s)" index oracle
          detail
  done

(* The acceptance gauntlet: arm the re-introduced shift-clamp bug, hunt
   with the default seed, and require a small parseable reproducer well
   within the 500-case budget. The same case must be clean with the
   plant disarmed — the failure is the bug's, not the fuzzer's. *)
let planted_bug_caught () =
  let saved = !Opt.planted_bug in
  Fun.protect
    ~finally:(fun () -> Opt.planted_bug := saved)
    (fun () ->
      Opt.planted_bug := Some Opt.Shift_clamp;
      let budget = 500 in
      let rec hunt index =
        if index >= budget then
          Alcotest.failf "planted bug not caught within %d cases" budget
        else
          match Fuzzer.evaluate ~fuzz_seed:7L ~index () with
          | Fuzzer.Failed { oracle; repro_text; repro_instrs; _ } ->
              check_bool "oracle is named" true (String.length oracle > 0);
              check_bool
                (Printf.sprintf "reproducer is small (%d instrs)" repro_instrs)
                true
                (repro_instrs <= 25);
              let repro = Text.of_string repro_text in
              check_int "reproducer parses to the reported size" repro_instrs
                (program_instrs repro);
              check_bool "reproducer validates" true
                (Validate.check_program repro = []);
              Opt.planted_bug := None;
              (match Fuzzer.evaluate ~fuzz_seed:7L ~index () with
              | Fuzzer.Failed _ ->
                  Alcotest.fail "case fails even without the plant"
              | _ -> ());
              Opt.planted_bug := Some Opt.Shift_clamp
          | _ -> hunt (index + 1)
      in
      hunt 0)

(* ------------------------------------------------------------------ *)
(* Fuzz ledger                                                         *)
(* ------------------------------------------------------------------ *)

let meta =
  { Fl.version = 1; fuzz_seed = 5L; count = 6; rand_runs = 2; plant = "none" }

let mk_case i verdict =
  let failing = verdict = Fl.Fail in
  {
    Fl.index = i;
    case_seed = Int64.of_int (1000 + i);
    verdict;
    oracle = (if failing then "divergence(O2)" else "");
    detail = (if failing then "result 4 <> 8" else "ok");
    repro = (if failing then Printf.sprintf "repro-%06d.szt" i else "");
    repro_instrs = (if failing then 7 else 0);
    shrink_steps = (if failing then 12 else 0);
    result = 4;
    cycles = 100 + i;
  }

let verdict_strings () =
  List.iter
    (fun v ->
      check_bool "verdict round-trips" true
        (Fl.verdict_of_string (Fl.verdict_to_string v) = Some v))
    [ Fl.Clean; Fl.Trapped; Fl.Fail; Fl.Crashed; Fl.Hung ]

let fuzzlog_round_trip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fuzz.log" in
      let t = unwrap (Fl.create ~path meta) in
      let cases = [ mk_case 0 Fl.Clean; mk_case 1 Fl.Fail; mk_case 2 Fl.Trapped ] in
      List.iter (Fl.append t) cases;
      Fl.close t;
      let m, cs = unwrap (Fl.load path) in
      check_bool "meta survives" true (m = meta);
      check_bool "cases survive" true (cs = cases))

let fuzzlog_sanitizes_newlines () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fuzz.log" in
      let t = unwrap (Fl.create ~path meta) in
      Fl.append t { (mk_case 0 Fl.Fail) with Fl.detail = "line1\nline2" };
      Fl.close t;
      match unwrap (Fl.load path) with
      | _, [ c ] -> check_string "newline sanitized" "line1 line2" c.Fl.detail
      | _ -> Alcotest.fail "expected exactly one case")

let fuzzlog_resume_heals_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fuzz.log" in
      let t = unwrap (Fl.create ~path meta) in
      let cases = List.init 5 (fun i -> mk_case i Fl.Clean) in
      List.iter (Fl.append t) cases;
      Fl.close t;
      let intact = read_file path in
      (* Chop mid-record, as a SIGKILL between write(2)s would. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (String.length intact - 9);
      Unix.close fd;
      (match unwrap (Stz_store.Durable.recover Fl.container path) with
      | (_, cs), note ->
          check_int "one record lost" 4 (List.length cs);
          check_bool "salvage noted" true (note <> None));
      let t, survivors = unwrap (Fl.resume ~path meta) in
      check_int "resume reports the survivors" 4 (List.length survivors);
      Fl.append t (mk_case 4 Fl.Clean);
      Fl.close t;
      check_string "byte-identical after heal" intact (read_file path))

let fuzzlog_resume_refuses_foreign_meta () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fuzz.log" in
      let t = unwrap (Fl.create ~path meta) in
      Fl.close t;
      match Fl.resume ~path { meta with Fl.fuzz_seed = 6L } with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "resume accepted a mismatched meta")

let fuzzlog_resume_drops_post_gap_records () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fuzz.log" in
      let t = unwrap (Fl.create ~path meta) in
      List.iter (fun i -> Fl.append t (mk_case i Fl.Clean)) [ 0; 1; 3 ];
      Fl.close t;
      let t, survivors = unwrap (Fl.resume ~path meta) in
      Fl.close t;
      check_int "only the contiguous prefix survives" 2 (List.length survivors);
      let _, cs = unwrap (Fl.load path) in
      check_int "the file is rewritten to the prefix" 2 (List.length cs))

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

let campaign_cfg ~out_dir ~jobs ~plant ~count =
  {
    Fuzzer.fuzz_seed = (if plant = None then 11L else 7L);
    count;
    jobs;
    out_dir;
    resume = false;
    rand_runs = 2;
    shrink_budget = 1000;
    plant;
    watchdog = None;
    log = ignore;
  }

let campaign_jobs_independent () =
  with_temp_dir (fun dir ->
      let run jobs sub =
        let out_dir = Filename.concat dir sub in
        let s =
          unwrap
            (Fuzzer.run_campaign
               (campaign_cfg ~out_dir ~jobs ~plant:None ~count:12))
        in
        (s, read_file (Filename.concat out_dir Fuzzer.ledger_name))
      in
      let s1, bytes1 = run 1 "serial" in
      let s3, bytes3 = run 3 "par" in
      check_int "totals agree" s1.Fuzzer.total s3.Fuzzer.total;
      check_int "failures agree" s1.Fuzzer.failed s3.Fuzzer.failed;
      check_string "ledgers are byte-identical" bytes1 bytes3)

let campaign_planted_catches_and_emits_repros () =
  with_temp_dir (fun dir ->
      let s =
        unwrap
          (Fuzzer.run_campaign
             (campaign_cfg ~out_dir:dir ~jobs:2 ~plant:(Some Opt.Shift_clamp)
                ~count:20))
      in
      check_bool "the campaign restores planted_bug on exit" true
        (!Opt.planted_bug = None);
      check_bool "at least one failure" true (s.Fuzzer.failed > 0);
      check_int "one reproducer per failure" s.Fuzzer.failed
        (List.length s.Fuzzer.reproducers);
      List.iter
        (fun name ->
          let text = read_file (Filename.concat dir name) in
          let p = Text.of_string text in
          check_bool (name ^ " is small") true (program_instrs p <= 25))
        s.Fuzzer.reproducers;
      (* The ledger agrees with the summary and passes a strict load. *)
      let m, cs = unwrap (Fl.load (Filename.concat dir Fuzzer.ledger_name)) in
      check_string "plant recorded in meta" "shift-clamp" m.Fl.plant;
      let s' = Fuzzer.summarize cs in
      check_bool "summary matches ledger" true (s = s');
      (* Byte pins: the ledger (Fail records included) and every
         reproducer must stay identical across refactors of the ledger
         and the campaign driver. *)
      Alcotest.(check (list string))
        "ledger and reproducer bytes pinned"
        [
          "fuzz.log c6d9d22e975f36e616bf9a66317046d2";
          "repro-000017.szt 61295f1a455e6f9b82a09ec571b5d57d";
        ]
        (artifact_digests dir))

let () =
  Alcotest.run "fuzz"
    [
      ( "sampler",
        [
          Alcotest.test_case "plan and build are deterministic" `Quick
            plan_deterministic;
          Alcotest.test_case "plans cover the meta-space" `Quick plans_diverse;
        ] );
      ( "text",
        [
          Alcotest.test_case "SPEC clones round-trip through Text" `Quick
            text_round_trip_spec;
          Alcotest.test_case "fuzz programs round-trip through Text" `Quick
            text_round_trip_fuzz;
        ] );
      ( "validate",
        [
          Alcotest.test_case "all 18 workloads pass Validate at O0-O3" `Quick
            validate_spec_pipelines;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "evaluate is deterministic" `Quick
            evaluate_deterministic;
          Alcotest.test_case "healthy optimizer fuzzes clean" `Quick
            evaluate_clean_on_healthy_optimizer;
          Alcotest.test_case "planted shift-clamp is caught and shrunk" `Slow
            planted_bug_caught;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "verdict strings round-trip" `Quick
            verdict_strings;
          Alcotest.test_case "create/append/load round-trip" `Quick
            fuzzlog_round_trip;
          Alcotest.test_case "newlines are sanitized" `Quick
            fuzzlog_sanitizes_newlines;
          Alcotest.test_case "resume heals a torn tail byte-identically"
            `Quick fuzzlog_resume_heals_torn_tail;
          Alcotest.test_case "resume refuses a foreign meta" `Quick
            fuzzlog_resume_refuses_foreign_meta;
          Alcotest.test_case "resume drops records after a gap" `Quick
            fuzzlog_resume_drops_post_gap_records;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "ledger bytes are independent of --jobs" `Slow
            campaign_jobs_independent;
          Alcotest.test_case "planted campaign emits small reproducers" `Slow
            campaign_planted_catches_and_emits_repros;
        ] );
    ]
