(* Layout-sweep ledger: the sweep codec over the case-log engine.
   Effect sizes are hex-float encoded so records round-trip
   bit-exactly. *)

type meta = {
  version : int;
  fuzz_seed : int64;
  count : int;
  layout_seeds : int;
  variants : int;
  threshold : float;
  shrink_budget : int;
}

type verdict = Measured | Trapped | Crashed | Hung

type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  eta2 : float;
  partial_eta2 : float;
  workload_share : float;
  residual_share : float;
  mean_cycles : int;
  instrs : int;
  structure : string;
  victim : int;
  evictor : int;
  conflict_events : int;
  conflict_cycles : int;
  repro : string;
  repro_instrs : int;
  shrink_steps : int;
  detail : string;
}

let verdict_to_string = function
  | Measured -> "measured"
  | Trapped -> "trapped"
  | Crashed -> "crashed"
  | Hung -> "hung"

let verdict_of_string s =
  List.find_opt
    (fun v -> verdict_to_string v = s)
    [ Measured; Trapped; Crashed; Hung ]

module Codec = struct
  type nonrec meta = meta
  type nonrec case = case

  open Caselog

  let ( let* ) = Result.bind
  let kind = "szc-sweep"
  let name = "sweeplog"
  let noun = "sweep ledger"
  let index c = c.index

  let meta_fields m =
    [
      ("version", string_of_int m.version);
      ("fuzz_seed", Int64.to_string m.fuzz_seed);
      ("count", string_of_int m.count);
      ("layout_seeds", string_of_int m.layout_seeds);
      ("variants", string_of_int m.variants);
      ("threshold", hex m.threshold);
      ("shrink_budget", string_of_int m.shrink_budget);
    ]

  let meta_of_fields f =
    let* version = int f "version" in
    let* fuzz_seed = int64 f "fuzz_seed" in
    let* count = int f "count" in
    let* layout_seeds = int f "layout_seeds" in
    let* variants = int f "variants" in
    let* threshold = float f "threshold" in
    let* shrink_budget = int f "shrink_budget" in
    Ok
      {
        version;
        fuzz_seed;
        count;
        layout_seeds;
        variants;
        threshold;
        shrink_budget;
      }

  let case_fields c =
    [
      ("index", string_of_int c.index);
      ("case_seed", Int64.to_string c.case_seed);
      ("verdict", verdict_to_string c.verdict);
      ("eta2", hex c.eta2);
      ("partial_eta2", hex c.partial_eta2);
      ("workload_share", hex c.workload_share);
      ("residual_share", hex c.residual_share);
      ("mean_cycles", string_of_int c.mean_cycles);
      ("instrs", string_of_int c.instrs);
      ("structure", c.structure);
      ("victim", string_of_int c.victim);
      ("evictor", string_of_int c.evictor);
      ("conflict_events", string_of_int c.conflict_events);
      ("conflict_cycles", string_of_int c.conflict_cycles);
      ("repro", c.repro);
      ("repro_instrs", string_of_int c.repro_instrs);
      ("shrink_steps", string_of_int c.shrink_steps);
      ("detail", c.detail);
    ]

  let case_of_fields f =
    let* index = int f "index" in
    let* case_seed = int64 f "case_seed" in
    let* verdict = num verdict_of_string f "verdict" in
    let* eta2 = float f "eta2" in
    let* partial_eta2 = float f "partial_eta2" in
    let* workload_share = float f "workload_share" in
    let* residual_share = float f "residual_share" in
    let* mean_cycles = int f "mean_cycles" in
    let* instrs = int f "instrs" in
    let* structure = str f "structure" in
    let* victim = int f "victim" in
    let* evictor = int f "evictor" in
    let* conflict_events = int f "conflict_events" in
    let* conflict_cycles = int f "conflict_cycles" in
    let* repro = str f "repro" in
    let* repro_instrs = int f "repro_instrs" in
    let* shrink_steps = int f "shrink_steps" in
    let* detail = str f "detail" in
    Ok
      {
        index;
        case_seed;
        verdict;
        eta2;
        partial_eta2;
        workload_share;
        residual_share;
        mean_cycles;
        instrs;
        structure;
        victim;
        evictor;
        conflict_events;
        conflict_cycles;
        repro;
        repro_instrs;
        shrink_steps;
        detail;
      }
end

include (
  Caselog.Make (Codec) : Caselog.S with type meta := meta and type case := case)
