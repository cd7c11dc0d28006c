(* The layout-bias attribution profiler end to end: plane separation
   (arming the conflict recorders never changes cycles or hardware
   counters), the planted-conflict acceptance pair (the conflict
   workload's layout η² is high and names the planted pair #1 in the
   L1I table; the control twin's is negligible), report determinism
   across worker counts, the sweep ledger's crash-atomic append/resume
   discipline, and sweep-campaign byte-identity across interruption. *)

module Hierarchy = Stz_machine.Hierarchy
module Cache = Stz_machine.Cache
module Conflict = Stz_attrib.Conflict
module Explain = Stz_attrib.Explain
module Sweep = Stz_attrib.Sweep
module Sl = Stz_store.Sweeplog
module Runtime = Stabilizer.Runtime
module Config = Stabilizer.Config
module Workload = Stz_workloads.Conflict

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
  let path = Filename.temp_file "szc-attrib-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Plane separation                                                    *)
(* ------------------------------------------------------------------ *)

(* The golden-counter contract: a run on an attribution-armed machine
   must report exactly the cycles and hardware counters of a dark run —
   the recorders observe, they never feed back. *)
let armed_run_counters_identical () =
  let p = Workload.program () in
  let args = Workload.default_args in
  let config = Config.one_time in
  List.iter
    (fun seed ->
      let dark = Runtime.run ~config ~seed p ~args in
      let lit =
        Runtime.run
          ~machine_factory:(fun () ->
            let m = Hierarchy.create () in
            Hierarchy.arm_attrib m ~funcs:(Array.length p.Stz_vm.Ir.funcs);
            m)
          ~config ~seed p ~args
      in
      check_int "cycles" dark.Runtime.cycles lit.Runtime.cycles;
      check_int "result" dark.Runtime.return_value lit.Runtime.return_value;
      check_bool "counters" true
        (dark.Runtime.counters = lit.Runtime.counters))
    [ 1L; 7L; 1234567L ]

let dark_recorder_is_dark () =
  let mk () = Cache.create { Cache.name = "t"; sets = 4; ways = 2; line_bits = 6 } in
  let pattern c =
    List.iter (fun a -> ignore (Cache.access c a)) [ 0; 64; 256; 0; 512; 64 ]
  in
  let dark = mk () in
  pattern dark;
  let lit = mk () in
  Cache.arm_attrib lit ~funcs:3;
  Cache.set_attrib_owner lit 1;
  pattern lit;
  check_int "accesses" (Cache.accesses dark) (Cache.accesses lit);
  check_int "misses" (Cache.misses dark) (Cache.misses lit);
  check_bool "armed" true (Cache.attrib_armed lit);
  check_bool "unarmed" false (Cache.attrib_armed dark);
  check_bool "view exists" true (Cache.attrib_view lit <> None)

(* ------------------------------------------------------------------ *)
(* The planted pair                                                    *)
(* ------------------------------------------------------------------ *)

let explain ?(jobs = 1) p =
  unwrap
    (Explain.run ~jobs ~base_seed:1L ~seeds:8
       ~variants:[ [ 50 ]; [ 51 ]; [ 52 ]; [ 53 ] ]
       p)

let conflict_workload_is_layout_dominated () =
  let report = explain (Workload.program ()) in
  let d =
    match report.Explain.decomposition with
    | Some d -> d
    | None -> Alcotest.fail ("no decomposition: " ^ report.Explain.note)
  in
  check_bool
    (Printf.sprintf "layout eta2 %.3f >= 0.5" d.Explain.layout_eta2)
    true
    (d.Explain.layout_eta2 >= 0.5);
  (* The planted (wrapper, rider) pair must top the L1I table. *)
  let wa, ri = Workload.hot_pair in
  match Conflict.pairs_in Conflict.L1i (Option.get report.Explain.merged) with
  | [] -> Alcotest.fail "no l1i conflicts recorded"
  | top :: _ ->
      check_int "victim fid" (min wa ri) top.Conflict.f1;
      check_int "evictor fid" (max wa ri) top.Conflict.f2;
      check_bool "events" true (top.Conflict.events > 0);
      (* And it leads the overall ranking too. *)
      let overall = List.hd report.Explain.pairs in
      check_bool "overall #1 is the planted pair" true
        (overall.Conflict.f1 = min wa ri && overall.Conflict.f2 = max wa ri)

let control_workload_is_layout_indifferent () =
  let report = explain (Workload.control ()) in
  let d =
    match report.Explain.decomposition with
    | Some d -> d
    | None -> Alcotest.fail ("no decomposition: " ^ report.Explain.note)
  in
  check_bool
    (Printf.sprintf "layout eta2 %.4f < 0.1" d.Explain.layout_eta2)
    true
    (d.Explain.layout_eta2 < 0.1);
  check_bool "workload stratum dominates" true (d.Explain.workload_share > 0.5)

let report_independent_of_jobs () =
  let p = Workload.program () in
  let a = explain ~jobs:1 p and b = explain ~jobs:4 p in
  check_string "csv" (Explain.csv a) (Explain.csv b);
  check_string "trace" (Explain.trace_string a) (Explain.trace_string b);
  check_string "table" (Explain.to_string a) (Explain.to_string b)

(* ------------------------------------------------------------------ *)
(* Sweep ledger                                                        *)
(* ------------------------------------------------------------------ *)

let meta =
  {
    Sl.version = 1;
    fuzz_seed = 9L;
    count = 4;
    layout_seeds = 4;
    variants = 3;
    threshold = 0.25;
    shrink_budget = 10;
  }

let case i =
  {
    Sl.index = i;
    case_seed = Int64.of_int (1000 + i);
    verdict = (if i mod 3 = 2 then Sl.Trapped else Sl.Measured);
    eta2 = 0.1 +. (0.7 /. float_of_int (i + 1));
    partial_eta2 = 0.99;
    workload_share = 0.2;
    residual_share = 1e-9;
    mean_cycles = 4000 + i;
    instrs = 200 + i;
    structure = "l1i";
    victim = 1;
    evictor = 2;
    conflict_events = 17 * (i + 1);
    conflict_cycles = 170 * (i + 1);
    repro = (if i = 0 then "repro-000000.szt" else "");
    repro_instrs = (if i = 0 then 12 else 0);
    shrink_steps = (if i = 0 then 5 else 0);
    detail = "multi\nline gets sanitized";
  }

let sweeplog_round_trip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "sweep.log" in
      let t = unwrap (Sl.create ~path meta) in
      List.iter (fun i -> Sl.append t (case i)) [ 0; 1; 2; 3 ];
      Sl.close t;
      let m, cases = unwrap (Sl.load path) in
      check_bool "meta" true (m = meta);
      check_int "cases" 4 (List.length cases);
      let c0 = List.hd cases in
      check_bool "floats bit-exact" true
        (Int64.bits_of_float c0.Sl.eta2 = Int64.bits_of_float (case 0).Sl.eta2);
      check_string "sanitized" "multi line gets sanitized" c0.Sl.detail;
      check_string "repro" "repro-000000.szt" c0.Sl.repro)

let sweeplog_resume_self_heals () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "sweep.log" in
      let t = unwrap (Sl.create ~path meta) in
      List.iter (fun i -> Sl.append t (case i)) [ 0; 1; 2; 3 ];
      Sl.close t;
      let intact = read_file path in
      (* Tear the tail mid-record, as a SIGKILL would. *)
      let torn = String.length intact - 37 in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd torn;
      Unix.close fd;
      let t, survivors = unwrap (Sl.resume ~path meta) in
      check_int "survivors" 3 (List.length survivors);
      (* Re-appending the lost case must reproduce the intact bytes. *)
      Sl.append t (case 3);
      Sl.close t;
      check_string "byte-identical after heal" intact (read_file path);
      (* A different sweep identity is refused, naming what differs —
         a threshold-only change included. *)
      let has sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      (match Sl.resume ~path { meta with Sl.fuzz_seed = 10L } with
      | Ok _ -> Alcotest.fail "resume accepted a mismatched meta"
      | Error e -> check_bool "mentions mismatch" true (has "mismatch" e));
      match Sl.resume ~path { meta with Sl.threshold = 0.5 } with
      | Ok _ -> Alcotest.fail "resume accepted a mismatched threshold"
      | Error e ->
          check_bool "names the threshold" true (has "threshold" e);
          check_bool "names nothing else" false (has "fuzz_seed" e))

(* ------------------------------------------------------------------ *)
(* Sweep campaign                                                      *)
(* ------------------------------------------------------------------ *)

let sweep_cfg ~out ~resume =
  {
    Sweep.fuzz_seed = 5L;
    count = 6;
    jobs = 2;
    out_dir = out;
    resume;
    layout_seeds = 4;
    variants = 3;
    threshold = 0.01;
    shrink_budget = 8;
    watchdog = None;
    log = ignore;
  }

let dir_fingerprint dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Digest.file (Filename.concat dir f)))

let sweep_campaign_resumes_byte_identically () =
  with_temp_dir (fun root ->
      let full = Filename.concat root "full" in
      let cut = Filename.concat root "cut" in
      let s1 = unwrap (Sweep.run_campaign (sweep_cfg ~out:full ~resume:false)) in
      check_int "all measured" 6 (s1.Sweep.total);
      check_bool "campaign found offenders to shrink" true
        (s1.Sweep.offenders <> []);
      check_bool "at least one offender was shrunk" true
        (s1.Sweep.reproducers <> []);
      (* Byte pins: the ledger and every reproducer must stay identical
         across refactors of the ledger and the campaign driver. *)
      Alcotest.(check (list string))
        "ledger and reproducer bytes pinned"
        [
          "repro-000001.szt a7cd0988bc5973b4fcc5e9cd3520132f";
          "repro-000004.szt 96bc0b99e73f8b5f9acef78a3f7b83ab";
          "sweep.log 08e86f259615dd193ea679dfa6d88178";
        ]
        (dir_fingerprint full
        |> List.filter (fun (f, _) ->
               f = Sweep.ledger_name || Filename.check_suffix f ".szt")
        |> List.map (fun (f, d) -> f ^ " " ^ Digest.to_hex d));
      (* Interrupted twin: same campaign, ledger then torn mid-record
         and the tail cases lost, as a SIGKILL mid-sweep would leave it. *)
      ignore (unwrap (Sweep.run_campaign (sweep_cfg ~out:cut ~resume:false)));
      let ledger = Filename.concat cut Sweep.ledger_name in
      let bytes = read_file ledger in
      let fd = Unix.openfile ledger [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (String.length bytes * 2 / 3);
      Unix.close fd;
      let s2 = unwrap (Sweep.run_campaign (sweep_cfg ~out:cut ~resume:true)) in
      check_int "resumed to full count" 6 (s2.Sweep.total);
      check_bool "identical artifacts" true
        (dir_fingerprint full = dir_fingerprint cut);
      check_bool "identical ledger bytes" true (bytes = read_file ledger))

let sweep_case_pure () =
  let a =
    Sweep.evaluate ~layout_seeds:4 ~variants:3 ~threshold:0.01 ~shrink_budget:0
      ~fuzz_seed:5L ~index:1 ()
  in
  let b =
    Sweep.evaluate ~layout_seeds:4 ~variants:3 ~threshold:0.01 ~shrink_budget:0
      ~fuzz_seed:5L ~index:1 ()
  in
  check_bool "pure in (seed, index)" true (a = b)

let () =
  Alcotest.run "attrib"
    [
      ( "plane-separation",
        [
          Alcotest.test_case "armed run: counters identical" `Quick
            armed_run_counters_identical;
          Alcotest.test_case "dark recorder is dark" `Quick
            dark_recorder_is_dark;
        ] );
      ( "explain",
        [
          Alcotest.test_case "conflict workload: layout-dominated" `Quick
            conflict_workload_is_layout_dominated;
          Alcotest.test_case "control workload: layout-indifferent" `Quick
            control_workload_is_layout_indifferent;
          Alcotest.test_case "report independent of --jobs" `Quick
            report_independent_of_jobs;
        ] );
      ( "sweeplog",
        [
          Alcotest.test_case "round trip" `Quick sweeplog_round_trip;
          Alcotest.test_case "torn tail self-heals byte-identically" `Quick
            sweeplog_resume_self_heals;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "campaign resumes byte-identically" `Quick
            sweep_campaign_resumes_byte_identically;
          Alcotest.test_case "case evaluation pure" `Quick sweep_case_pure;
        ] );
    ]
