(* Fuzz-campaign ledger: the fuzz codec over the case-log engine. *)

type meta = {
  version : int;
  fuzz_seed : int64;
  count : int;
  rand_runs : int;
  plant : string;
}

type verdict = Clean | Trapped | Fail | Crashed | Hung

type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  oracle : string;
  detail : string;
  repro : string;
  repro_instrs : int;
  shrink_steps : int;
  result : int;
  cycles : int;
}

let verdict_to_string = function
  | Clean -> "clean"
  | Trapped -> "trapped"
  | Fail -> "fail"
  | Crashed -> "crashed"
  | Hung -> "hung"

let verdict_of_string s =
  List.find_opt
    (fun v -> verdict_to_string v = s)
    [ Clean; Trapped; Fail; Crashed; Hung ]

module Codec = struct
  type nonrec meta = meta
  type nonrec case = case

  open Caselog

  let ( let* ) = Result.bind
  let kind = "szc-fuzz"
  let name = "fuzzlog"
  let noun = "fuzz ledger"
  let index c = c.index

  let meta_fields m =
    [
      ("version", string_of_int m.version);
      ("fuzz_seed", Int64.to_string m.fuzz_seed);
      ("count", string_of_int m.count);
      ("rand_runs", string_of_int m.rand_runs);
      ("plant", m.plant);
    ]

  let meta_of_fields f =
    let* version = int f "version" in
    let* fuzz_seed = int64 f "fuzz_seed" in
    let* count = int f "count" in
    let* rand_runs = int f "rand_runs" in
    let* plant = str f "plant" in
    Ok { version; fuzz_seed; count; rand_runs; plant }

  let case_fields c =
    [
      ("index", string_of_int c.index);
      ("case_seed", Int64.to_string c.case_seed);
      ("verdict", verdict_to_string c.verdict);
      ("oracle", c.oracle);
      ("detail", c.detail);
      ("repro", c.repro);
      ("repro_instrs", string_of_int c.repro_instrs);
      ("shrink_steps", string_of_int c.shrink_steps);
      ("result", string_of_int c.result);
      ("cycles", string_of_int c.cycles);
    ]

  let case_of_fields f =
    let* index = int f "index" in
    let* case_seed = int64 f "case_seed" in
    let* verdict = num verdict_of_string f "verdict" in
    let* oracle = str f "oracle" in
    let* detail = str f "detail" in
    let* repro = str f "repro" in
    let* repro_instrs = int f "repro_instrs" in
    let* shrink_steps = int f "shrink_steps" in
    let* result = int f "result" in
    let* cycles = int f "cycles" in
    Ok
      {
        index;
        case_seed;
        verdict;
        oracle;
        detail;
        repro;
        repro_instrs;
        shrink_steps;
        result;
        cycles;
      }
end

include (
  Caselog.Make (Codec) : Caselog.S with type meta := meta and type case := case)
