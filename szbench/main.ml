(* szbench: host time to a STABILIZER verdict, end to end and by layer.

     bash szbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads: verdict-mcf, tenants-rerand, fuzz-gauntlet (see README.md).
   With --trace 0 the run measures the end-to-end metrics with tracing
   off; with --trace 1 it spends half its time on an untraced baseline
   and half on traced repetitions, then replays and probes the layers
   it cannot time directly, and reports the per-layer metrics. Human
   readable rows go to stdout first; the last line is one JSON object
   {correct, attempted, failed, metrics}. Exit code 0 when every output
   check passed, 1 on a mismatch, 2 on bad usage. *)

let work_dir = "_szbench"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  szcd : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload verdict-mcf|tenants-rerand|fuzz-gauntlet --seed N \
     --seconds S --trace 0|1 [--szcd PATH]";
  exit 2

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> go { o with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { o with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--szcd" :: v :: rest -> go { o with szcd = v } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = Pinned.default_seed; seconds = 10.0; trace = false; szcd = "szcd" }
    (List.tl (Array.to_list argv))

(* End-to-end metrics: (name, unit, value, spread note). Per-repetition
   values are medians over the run's repetitions. *)
let end_to_end (r : Bench.result) =
  let reps = r.Bench.reps in
  let per f = List.map f reps in
  let summary xs =
    Printf.sprintf "median of %d reps, q1 %.6g q3 %.6g" (List.length xs) (Util.quantile 0.25 xs)
      (Util.quantile 0.75 xs)
  in
  let med name unit f =
    let xs = per f in
    (name, unit, Util.median xs, summary xs)
  in
  let unit_ms = List.concat_map (fun r -> r.Bench.unit_ms) reps in
  let n = List.length unit_ms in
  let tail_v, tail_note =
    match Util.tail_percentile unit_ms with
    | Some (p, v) -> (v, Printf.sprintf "p%g of %d samples" p n)
    | None -> (List.fold_left max 0.0 unit_ms, Printf.sprintf "max of %d samples" n)
  in
  let attempted = List.fold_left (fun a r -> a + r.Bench.units) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.Bench.failed) 0 reps in
  let mismatches = List.length (List.filter (fun c -> not c.Bench.ok) r.Bench.checks) in
  let ok_units r = float_of_int (r.Bench.units - r.Bench.failed) in
  ( [
      med "verdict_s" "s" (fun r -> r.Bench.verdict_s);
      ( "run_ms_p50",
        "ms",
        Util.median unit_ms,
        Printf.sprintf "p50 of %d samples, q1 %.6g q3 %.6g" n (Util.quantile 0.25 unit_ms)
          (Util.quantile 0.75 unit_ms) );
      ("run_ms_tail", "ms", tail_v, tail_note);
      med "runs_per_s" "1/s" (fun r -> ok_units r /. r.Bench.verdict_s);
      med "sim_mcycles_per_s" "Mcycles/s" (fun r -> r.Bench.sim_cycles /. r.Bench.verdict_s /. 1e6);
      med "setup_s" "s" (fun r -> r.Bench.setup_s);
      ( "max_rss_mb",
        "MiB",
        float_of_int r.Bench.max_rss_kb /. 1024.0,
        "peak VmHWM of the working processes" );
      ( "failed_share",
        "ratio",
        float_of_int (failed + mismatches) /. float_of_int (max 1 attempted),
        Printf.sprintf "(%d failed + %d mismatches) / %d attempted" failed mismatches attempted );
    ],
    attempted,
    failed + mismatches )

(* Per-layer metrics and their units, in report order. Every workload
   reports each one (0 with a note where it does not apply). *)
let layer_units =
  [
    ("workloads.generate_ms", "ms");
    ("opt.apply_ms.O0", "ms");
    ("opt.apply_ms.O1", "ms");
    ("opt.apply_ms.O2", "ms");
    ("opt.apply_ms.O3", "ms");
    ("opt.instrs_out", "instrs");
    ("opt.host_share", "ratio");
    ("validate.check_ms", "ms");
    ("vm.ns_per_instr", "ns");
    ("vm.self_share", "ratio");
    ("vm.minor_words_per_instr", "words/instr");
    ("vm.cold_start_ms", "ms");
    ("machine.data_ns", "ns");
    ("machine.data_ns_spill", "ns");
    ("machine.fetch_ns", "ns");
    ("machine.fetch_ns_spill", "ns");
    ("machine.branch_ns", "ns");
    ("machine.branch_ns_spill", "ns");
    ("machine.cpi", "cycles/instr");
    ("machine.l1i_mpki", "1/kinstr");
    ("machine.l1d_mpki", "1/kinstr");
    ("machine.l2_mpki", "1/kinstr");
    ("machine.dtlb_mpki", "1/kinstr");
    ("machine.mispredict_rate", "ratio");
    ("runtime.enter_ns", "ns");
    ("runtime.frame_ns", "ns");
    ("runtime.heap_ns", "ns");
    ("runtime.indirect_ns", "ns");
    ("runtime.calls_per_kinstr", "calls/kinstr");
    ("runtime.self_share", "ratio");
    ("runtime.run_share", "ratio");
    ("runtime.epochs_per_run", "count");
    ("runtime.relocations_per_run", "count");
    ("supervisor.checkpoint_ms", "ms");
    ("supervisor.checkpoint_bytes", "B");
    ("store.append_us", "us");
    ("store.load_ms", "ms");
    ("store.bytes_per_case", "B");
    ("parallel.harness_share", "ratio");
    ("parallel.roundtrip_us", "us");
    ("stats.verdict_ms", "ms");
    ("daemon.submit_ms", "ms");
    ("daemon.rpc_ms_p50", "ms");
    ("daemon.queue_wait_s", "s");
    ("trace.overhead_share", "ratio");
    ("trace.verdict_s", "s");
  ]
  @ List.map (fun n -> ("self_s." ^ n, "s")) (Bench.layer_names @ [ "other" ])

let json_metrics rows =
  rows
  |> List.map (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Util.json_num v) unit)
  |> String.concat ", "

let () =
  let o = parse Sys.argv in
  let run =
    match o.workload with
    | "verdict-mcf" -> Wl_verdict.run
    | "tenants-rerand" -> Wl_tenants.run ~szcd:o.szcd ~work_dir
    | "fuzz-gauntlet" -> Wl_fuzz.run ~work_dir
    | _ -> usage ()
  in
  Util.mkdir_p work_dir;
  let load_before = Util.loadavg () in
  let tr = Tracer.create ~on:o.trace in
  let result = run ~seed:o.seed ~seconds:o.seconds ~tr in
  let load_after = Util.loadavg () in
  let trace_check =
    if not o.trace then []
    else
      let path = Filename.concat work_dir (o.workload ^ ".trace.json") in
      let text = Tracer.to_chrome tr ~process_name:("szbench " ^ o.workload) in
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      Printf.printf "trace %s (%d spans)\n" path (List.length (Tracer.spans tr));
      match Stz_telemetry.Export.validate_chrome_string text with
      | Ok (spans, _) -> [ Bench.check "trace.chrome" true (Printf.sprintf "%d spans" spans) ]
      | Error e -> [ Bench.check "trace.chrome" false e ]
  in
  let result = { result with Bench.checks = result.Bench.checks @ trace_check } in
  Printf.printf "env workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s git=%s\n" o.workload
    o.seed o.seconds (if o.trace then 1 else 0) (Util.nproc ()) Sys.ocaml_version (Util.git_sha ());
  Printf.printf "env loadavg_before=%s loadavg_after=%s\n" load_before load_after;
  List.iter
    (fun c ->
      Printf.printf "check %-34s %s  %s\n" c.Bench.what (if c.Bench.ok then "ok  " else "FAIL")
        c.Bench.detail)
    result.Bench.checks;
  let e2e, attempted, failed = end_to_end result in
  Printf.printf "%-16s %-20s %-10s %16s  %s\n" "workload" "metric" "unit" "value" "spread";
  List.iter
    (fun (name, unit, v, note) ->
      Printf.printf "%-16s %-20s %-10s %16.6g  %s\n" o.workload name unit v note)
    e2e;
  let metrics =
    if not o.trace then
      (* failed_share is 0 on a healthy run, so it travels as the
         failed/attempted pair rather than as a metric. *)
      List.filter_map
        (fun (name, unit, v, _) -> if name = "failed_share" then None else Some (name, unit, v))
        e2e
    else begin
      List.iter (fun n -> Printf.printf "n/a %s\n" n) result.Bench.notes;
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name result.Bench.layers with
            | Some v -> v
            | None ->
                Printf.eprintf "szbench: %s did not report %s\n" o.workload name;
                Float.nan
          in
          Printf.printf "layer %-30s %-12s %16.6g\n" name unit v;
          (name, unit, v))
        layer_units
    end
  in
  let missing = List.exists (fun (_, _, v) -> Float.is_nan v) metrics in
  let correct = List.for_all (fun c -> c.Bench.ok) result.Bench.checks && not missing in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed
    (json_metrics metrics);
  exit (if correct then 0 else 1)
