type entry = {
  label : string;
  fingerprint : string;
  base_seed : int64;
  runs : int;
  completed : int;
  censored : int;
  mean : float;
  sd : float;
  min : float;
  max : float;
  skewness : float;
  kurtosis : float;
  detectable_effect : float;
  verdict : string;
}

let kind = "szc-ledger"
let record_tag = "campaign"

(* Line-oriented payload in {!Caselog}'s "key value" form, fixed order.
   Floats are written as hexadecimal literals so they round-trip
   bit-exactly — the regression decision must be recomputable from the
   ledger alone, on any machine, to the last bit. *)

let entry_to_payload e =
  let hex = Caselog.hex in
  Caselog.payload
    [
      ("label", e.label);
      ("fingerprint", e.fingerprint);
      ("base_seed", Int64.to_string e.base_seed);
      ("runs", string_of_int e.runs);
      ("completed", string_of_int e.completed);
      ("censored", string_of_int e.censored);
      ("mean", hex e.mean);
      ("sd", hex e.sd);
      ("min", hex e.min);
      ("max", hex e.max);
      ("skewness", hex e.skewness);
      ("kurtosis", hex e.kurtosis);
      ("detectable_effect", hex e.detectable_effect);
      ("verdict", e.verdict);
    ]

let entry_of_payload s =
  let open Caselog in
  let ( let* ) = Result.bind in
  let f = parse_fields "ledger" s in
  let* label = str f "label" in
  let* fingerprint = str f "fingerprint" in
  let* base_seed = int64 f "base_seed" in
  let* runs = int f "runs" in
  let* completed = int f "completed" in
  let* censored = int f "censored" in
  let* mean = float f "mean" in
  let* sd = float f "sd" in
  let* min = float f "min" in
  let* max = float f "max" in
  let* skewness = float f "skewness" in
  let* kurtosis = float f "kurtosis" in
  let* detectable_effect = float f "detectable_effect" in
  let* verdict = str f "verdict" in
  Ok
    {
      label;
      fingerprint;
      base_seed;
      runs;
      completed;
      censored;
      mean;
      sd;
      min;
      max;
      skewness;
      kurtosis;
      detectable_effect;
      verdict;
    }

let container =
  {
    Durable.kind;
    noun = "ledger";
    units = ("entry", "entries");
    count = List.length;
    counted = true;
    encode = List.map (fun e -> (record_tag, entry_to_payload e));
    decode =
      (fun ~lenient records ->
        Result.map
          (fun es -> (es, None))
          (Caselog.decode_records ~name:"ledger" ~tag:record_tag ~lenient
             entry_of_payload records));
  }

let load = Durable.load container

let append path e =
  (* A zero-length file is a fresh ledger, not a corrupt one: callers
     (and Filename.temp_file) routinely pre-create the file empty. *)
  let existing =
    if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then load path
    else Ok []
  in
  match existing with
  | Error err -> Error err
  | Ok entries ->
      Durable.write container path (entries @ [ e ]);
      Ok (List.length entries)
