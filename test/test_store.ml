(* The durable-artifact layer: CRC-32, record containers, salvage of
   torn/flipped files, .sum sidecars, seeded storage-fault injection —
   and the supervisor checkpoint built on top of it. The fuzz suites
   are the contract: no byte-level damage to a checkpoint may ever
   raise out of the lenient parser, and whatever survives must be a
   valid record prefix. *)

module A = Stz_store.Artifact
module Crc = Stz_store.Crc32
module Storage = Stz_faults.Storage
module S = Stabilizer
module F = Stz_faults.Fault
module P = Stz_workloads.Profile
module Dr = Stz_store.Durable

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let szc_exe = "../bin/szc.exe"

let with_temp f =
  let path = Filename.temp_file "stz-store" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; A.sum_path path; path ^ ".tmp"; path ^ ".corrupt" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc_vectors () =
  (* The standard check value, plus a couple of published vectors. *)
  check_string "empty" "00000000" (Crc.to_hex (Crc.digest ""));
  check_bool "123456789" true (Crc.digest "123456789" = 0xCBF43926l);
  check_bool "quick brown fox" true
    (Crc.digest "The quick brown fox jumps over the lazy dog" = 0x414FA339l);
  (* Incremental update equals one-shot digest. *)
  let s = "a longer payload, fed in two pieces" in
  let k = String.length s / 2 in
  let inc =
    Crc.update
      (Crc.update 0l (String.sub s 0 k))
      (String.sub s k (String.length s - k))
  in
  check_bool "incremental = one-shot" true (inc = Crc.digest s);
  (* Hex round-trip. *)
  check_bool "hex round-trip" true
    (Crc.of_hex (Crc.to_hex 0xDEADBEEFl) = Some 0xDEADBEEFl)

let crc_detects_any_single_bit_flip =
  QCheck.Test.make ~name:"crc32 detects every single-bit flip" ~count:50
    QCheck.(string_of_size Gen.(int_range 1 64))
    (fun s ->
      let clean = Crc.digest s in
      let ok = ref true in
      for bit = 0 to (8 * String.length s) - 1 do
        let b = Bytes.of_string s in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        if Crc.digest (Bytes.to_string b) = clean then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Record containers                                                   *)
(* ------------------------------------------------------------------ *)

let records =
  [
    ("meta", "{\"version\":3}");
    ("run", "payload with\nembedded newline and @tag-like bytes");
    ("run", "");
    ("state", String.init 257 (fun i -> Char.chr (i mod 256)));
  ]

(* The kind and records of a container that must parse completely. *)
let strict_records path =
  match A.salvage_string (read_file path) with
  | { A.error = Some e; _ } -> Alcotest.failf "%s: %s" path e
  | { A.kind; records; _ } -> (Option.get kind, records)

let container_round_trip () =
  with_temp (fun path ->
      A.write_file path (A.container ~kind:"test-kind" records);
      let kind, got = strict_records path in
      check_string "kind" "test-kind" kind;
      check_bool "records" true (got = records));
  (* Deterministic serialization. *)
  check_string "same records, same bytes"
    (A.container ~kind:"k" records)
    (A.container ~kind:"k" records)

let is_prefix shorter longer =
  List.length shorter <= List.length longer
  && List.for_all2
       (fun a b -> a = b)
       shorter
       (List.filteri (fun i _ -> i < List.length shorter) longer)

let salvage_truncation_fuzz () =
  (* Cutting the container at EVERY byte offset must parse without
     raising, and what survives must be a record prefix with
     [valid_bytes] consistent. *)
  let full = A.container ~kind:"fuzz" records in
  for len = 0 to String.length full do
    let s = A.salvage_string (String.sub full 0 len) in
    check_bool
      (Printf.sprintf "truncate@%d: prefix" len)
      true
      (is_prefix s.A.records records);
    check_int (Printf.sprintf "truncate@%d: total_bytes" len) len s.A.total_bytes;
    check_bool
      (Printf.sprintf "truncate@%d: clean parse covers everything" len)
      true
      (s.A.error <> None || s.A.valid_bytes = s.A.total_bytes);
    (* A clean parse means the cut landed exactly on a record
       boundary: re-serializing the salvage reproduces the bytes. *)
    if s.A.error = None then
      check_string
        (Printf.sprintf "truncate@%d: clean parse is a record boundary" len)
        (String.sub full 0 len)
        (A.container ~kind:"fuzz" s.A.records);
    if len = String.length full then (
      check_bool "full file: everything survives" true (s.A.records = records);
      check_bool "full file: kind" true (s.A.kind = Some "fuzz"))
  done

let salvage_bit_flip_fuzz () =
  (* Flipping one bit at EVERY byte offset must never raise, and must
     never silently keep a damaged record: the salvaged list is always
     a prefix of the originals. *)
  let full = A.container ~kind:"fuzz" records in
  for i = 0 to String.length full - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string full in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let s = A.salvage_string (Bytes.to_string b) in
      check_bool
        (Printf.sprintf "flip byte %d bit %d: prefix" i bit)
        true
        (is_prefix s.A.records records)
    done
  done

let salvage_garbage_never_raises =
  QCheck.Test.make ~name:"salvage_string never raises on arbitrary bytes"
    ~count:200
    QCheck.(string_of_size Gen.(int_range 0 400))
    (fun s ->
      let r = A.salvage_string s in
      r.A.total_bytes = String.length s && r.A.valid_bytes <= r.A.total_bytes)

(* ------------------------------------------------------------------ *)
(* Summed payloads                                                     *)
(* ------------------------------------------------------------------ *)

let sidecar_verifies () =
  with_temp (fun path ->
      let payload = "run,seconds\n0,0.5\n" in
      A.write_with_sum path payload;
      check_string "payload verbatim" payload (read_file path);
      check_bool "verifies" true (A.verify_sum path = Ok true);
      (* Damage the payload behind the sidecar's back. *)
      let oc = open_out_bin path in
      output_string oc "run,seconds\n0,0.6\n";
      close_out oc;
      check_bool "mismatch detected" true
        (match A.verify_sum path with Error _ -> true | Ok _ -> false);
      (* No sidecar: nothing to verify. *)
      Sys.remove (A.sum_path path);
      check_bool "no sidecar" true (A.verify_sum path = Ok false))

(* ------------------------------------------------------------------ *)
(* Seeded storage faults                                               *)
(* ------------------------------------------------------------------ *)

let write_under profile seed path contents n =
  Storage.arm ~seed profile;
  Fun.protect ~finally:Storage.disarm @@ fun () ->
  List.init n (fun i ->
      A.write_file path (contents i);
      if Sys.file_exists path then Some (read_file path) else None)

let storage_faults_deterministic () =
  with_temp (fun p1 ->
      with_temp (fun p2 ->
          let contents i = Printf.sprintf "artifact body %d %s" i (String.make 64 'x') in
          let a = write_under Storage.chaos 42L p1 contents 20 in
          let b = write_under Storage.chaos 42L p2 contents 20 in
          check_bool "same seed, same damage" true (a = b);
          let c = write_under Storage.chaos 43L p1 contents 20 in
          check_bool "different seed, different damage" true (a <> c)))

let storage_faults_actually_fire () =
  with_temp (fun path ->
      let contents i = Printf.sprintf "clean write %d %s" i (String.make 64 'y') in
      let observed = write_under Storage.chaos 7L path contents 20 in
      let damaged =
        List.exists
          (fun (i, got) -> got <> Some (contents i))
          (List.mapi (fun i g -> (i, g)) observed)
      in
      check_bool "chaos profile corrupts some writes" true damaged;
      check_bool "none profile is a no-op armed" true
        (not (Storage.active Storage.none)))

(* ------------------------------------------------------------------ *)
(* Supervisor checkpoints on the artifact layer                        *)
(* ------------------------------------------------------------------ *)

let tiny =
  {
    P.default with
    P.name = "store";
    functions = 8;
    hot_functions = 4;
    iterations = 12;
    inner_trips = 6;
    seed = 0x57_0F_0AB5L;
  }

let program = lazy (Stz_workloads.Generate.program tiny)
let config = S.Config.stabilizer
let args = [ 1 ]

let policy =
  { S.Supervisor.default_policy with S.Supervisor.max_retries = 2 }

let campaign ?(runs = 12) ?checkpoint ?(resume = false) ?on_record ~seed profile
    =
  S.Supervisor.run_campaign ~policy ~profile ?checkpoint ~resume ?on_record
    ~config ~base_seed:(Int64.of_int seed) ~runs ~args (Lazy.force program)

let checkpoint_is_container () =
  with_temp (fun path ->
      let c = campaign ~seed:5 ~checkpoint:path F.light in
      let text = read_file path in
      check_bool "magic" true (A.is_container text);
      let kind, recs = strict_records path in
      check_string "kind" "szc-checkpoint" kind;
      check_int "meta + runs + state" (List.length c.S.Supervisor.records + 2)
        (List.length recs);
      match S.Supervisor.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok c' -> check_bool "round-trips" true (c = c'))

(* Checkpoint versions 1/2 were bare JSON and nothing reads them any
   more: a v2 file is refused everywhere and left byte-identical. *)
let legacy_json_refused () =
  with_temp (fun path ->
      let v2 =
        {|{"version":2,"base_seed":"1","runs":3,"profile":"none","config":"stabilizer","reference":null,"budget_cycles":null,"budget_fuel":null,"quarantined":[],"records":[{"run":0,"seed":"7","retries":0,"outcome":"worker-lost"}]}|}
      in
      let oc = open_out_bin path in
      output_string oc v2;
      close_out oc;
      check_bool "load refuses" true (Result.is_error (S.Supervisor.load path));
      check_bool "recover refuses" true
        (Result.is_error (S.Supervisor.recover path));
      let szc args =
        Sys.command
          (Printf.sprintf "%s %s %s > /dev/null 2>&1" (Filename.quote szc_exe)
             args (Filename.quote path))
      in
      check_int "campaign --resume exits 3" 3
        (szc "campaign bzip2 --runs 3 --scale 0.05 --quiet --resume --checkpoint");
      check_string "checkpoint left byte-identical" v2 (read_file path);
      check_int "fsck exits 1" 1 (szc "fsck"))

let record_prefix shorter longer =
  is_prefix shorter.S.Supervisor.records longer.S.Supervisor.records

let checkpoint_truncation_fuzz () =
  (* Cut the checkpoint at EVERY byte offset: [recover] must never
     raise, and any salvaged campaign must be a run-order prefix of the
     full one. *)
  with_temp (fun path ->
      let c = campaign ~seed:9 ~checkpoint:path F.light in
      let full = read_file path in
      for len = 0 to String.length full do
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 len);
        close_out oc;
        match S.Supervisor.recover path with
        | exception e ->
            Alcotest.failf "truncate@%d raised %s" len (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, note) ->
            check_bool (Printf.sprintf "truncate@%d: prefix" len) true
              (record_prefix got c);
            if len < String.length full then
              check_bool
                (Printf.sprintf "truncate@%d: salvage noted" len)
                true (note <> None)
      done)

let checkpoint_bit_flip_fuzz () =
  (* Flip one bit at EVERY byte offset: never raises, salvage is always
     a prefix, and strict [load] never accepts the damaged file. *)
  with_temp (fun path ->
      let c = campaign ~seed:13 ~runs:8 ~checkpoint:path F.light in
      let full = read_file path in
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        let oc = open_out_bin path in
        output_string oc (Bytes.to_string b);
        close_out oc;
        (match S.Supervisor.recover path with
        | exception e ->
            Alcotest.failf "flip@%d raised %s" i (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool (Printf.sprintf "flip@%d: prefix" i) true
              (record_prefix got c));
        match S.Supervisor.load path with
        | exception e ->
            Alcotest.failf "strict flip@%d raised %s" i (Printexc.to_string e)
        | Ok got ->
            (* A flip inside a record body is caught by its CRC; flips
               in cosmetic header whitespace can't change the parse. *)
            check_bool (Printf.sprintf "strict flip@%d equals original" i) true
              (got = c)
        | Error _ -> ()
      done)

exception Killed

let derived_state_resume_identity () =
  (* Kill a campaign mid-flight, tear the supervisor-state record off
     the checkpoint, and resume: quarantine and budgets are re-derived
     from the surviving run records, bit-exactly. *)
  with_temp (fun ref_path ->
      with_temp (fun path ->
          let reference = campaign ~seed:21 ~runs:16 ~checkpoint:ref_path F.heavy in
          let seen = ref 0 in
          (try
             ignore
               (campaign ~seed:21 ~runs:16 ~checkpoint:path
                  ~on_record:(fun _ ->
                    incr seen;
                    if !seen = 9 then raise Killed)
                  F.heavy)
           with Killed -> ());
          (* Drop the trailing state record, as a torn tail would. *)
          let s = A.salvage_string (read_file path) in
          check_bool "intact before surgery" true (s.A.error = None);
          let without_state =
            List.filter (fun (tag, _) -> tag <> "state") s.A.records
          in
          check_int "exactly one state record" 1
            (List.length s.A.records - List.length without_state);
          A.write_file path (A.container ~kind:"szc-checkpoint" without_state);
          (match S.Supervisor.load path with
          | Ok _ -> Alcotest.fail "strict load must reject a missing state record"
          | Error _ -> ());
          (match S.Supervisor.recover path with
          | Error e -> Alcotest.failf "recover: %s" e
          | Ok (mid, note) ->
              check_bool "salvage noted" true (note <> None);
              check_bool "prefix of the reference" true
                (record_prefix mid reference));
          let resumed =
            campaign ~seed:21 ~runs:16 ~checkpoint:path ~resume:true F.heavy
          in
          check_bool "records identical after derived-state resume" true
            (reference.S.Supervisor.records = resumed.S.Supervisor.records);
          check_bool "quarantine identical" true
            (reference.S.Supervisor.quarantined
            = resumed.S.Supervisor.quarantined);
          check_string "final checkpoints byte-identical" (read_file ref_path)
            (read_file path)))

let campaign_survives_storage_faults () =
  (* A campaign whose every checkpoint write is sabotaged still
     completes, and its final sample equals the clean campaign's: the
     artifact layer absorbs the damage (old checkpoint survives a
     dropped rename; the checkpoint is advisory until resume). *)
  with_temp (fun path ->
      let clean = campaign ~seed:31 F.light in
      Storage.arm ~seed:77L Storage.heavy;
      let faulted =
        Fun.protect ~finally:Storage.disarm @@ fun () ->
        campaign ~seed:31 ~checkpoint:path F.light
      in
      check_bool "samples identical under storage faults" true
        (S.Supervisor.times clean = S.Supervisor.times faulted);
      (* Whatever the last checkpoint write left behind, recovery never
         raises and only ever yields a record prefix. *)
      if Sys.file_exists path then
        match S.Supervisor.recover path with
        | exception e -> Alcotest.failf "recover raised %s" (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool "salvaged prefix" true (record_prefix got clean))

(* ------------------------------------------------------------------ *)
(* History ledger on the artifact layer                                *)
(* ------------------------------------------------------------------ *)

module Ledger = Stz_store.Ledger

let sample_entry i =
  {
    Ledger.label = Printf.sprintf "bench-%d" i;
    fingerprint = Printf.sprintf "bench-%d|O2|0x1p+0|code.heap.stack|none" i;
    base_seed = Int64.of_int (1000 + i);
    runs = 30;
    completed = 28 + (i mod 2);
    censored = 2 - (i mod 2);
    mean = 0.00123 +. (0.0001 *. float_of_int i);
    sd = 1.7e-5;
    min = 0.0011;
    max = 0.0014;
    skewness = -0.12;
    kurtosis = 0.34;
    detectable_effect = 0.71;
    verdict = "enough-runs";
  }

let ledger_round_trip () =
  with_temp (fun path ->
      let entries = List.init 3 sample_entry in
      (* append builds the file one entry at a time, returning 0-based
         sequence numbers. *)
      List.iteri
        (fun i e ->
          match Ledger.append path e with
          | Ok seq -> check_int "sequence number" i seq
          | Error err -> Alcotest.failf "append: %s" err)
        entries;
      (match Ledger.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok got -> check_bool "entries round-trip bit-exactly" true (got = entries));
      (* Payload round-trip is exact even for awkward floats. *)
      let e =
        { (sample_entry 0) with Ledger.mean = 0.1; sd = Float.min_float }
      in
      let c = Ledger.container in
      match c.Dr.decode ~lenient:false (c.Dr.encode [ e ]) with
      | Ok ([ e' ], None) -> check_bool "hex floats are bit-exact" true (e = e')
      | Ok _ -> Alcotest.fail "payload: one entry expected"
      | Error err -> Alcotest.failf "payload: %s" err)

(* `szc campaign --ledger F' when F cannot take the entry: the campaign
   still reports, then ends with one `ledger F: ...' line on stderr and
   exit 3 (aborted), whether F is corrupt or cannot be written. *)
let campaign_ledger_failure ~ledger =
  let err = Filename.temp_file "stz-store" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (Printf.sprintf
         "%s campaign bzip2 --runs 3 --scale 0.05 --quiet --ledger %s \
          >/dev/null 2>%s"
         (Filename.quote szc_exe) (Filename.quote ledger) (Filename.quote err))
  in
  check_int "campaign exits 3" 3 code;
  let prefix = Printf.sprintf "szc: ledger %s: " ledger in
  let text = read_file err in
  check_bool
    (Printf.sprintf "stderr is one %S line (got %S)" prefix text)
    true
    (String.length text > String.length prefix
    && String.sub text 0 (String.length prefix) = prefix
    && String.index text '\n' = String.length text - 1)

let campaign_ledger_corrupt_exits_3 () =
  with_temp (fun path ->
      let junk = "not a ledger\n" in
      let oc = open_out_bin path in
      output_string oc junk;
      close_out oc;
      campaign_ledger_failure ~ledger:path;
      check_string "corrupt ledger left byte-identical" junk (read_file path))

let campaign_ledger_unwritable_exits_3 () =
  with_temp (fun path ->
      campaign_ledger_failure ~ledger:(Filename.concat path "ledger"))

let ledger_refuses_corrupt_append () =
  with_temp (fun path ->
      (match Ledger.append path (sample_entry 0) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "append: %s" e);
      let full = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 3));
      close_out oc;
      (* A damaged ledger must be repaired explicitly, never silently
         truncated by the next append. *)
      check_bool "append refuses a corrupt ledger" true
        (Result.is_error (Ledger.append path (sample_entry 1))))

let ledger_truncation_fuzz () =
  (* Cut the ledger at EVERY byte offset: [recover] must never raise
     and must only ever salvage an entry prefix. *)
  with_temp (fun path ->
      let entries = List.init 4 sample_entry in
      Dr.write Ledger.container path entries;
      let full = read_file path in
      for len = 0 to String.length full do
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 len);
        close_out oc;
        match Dr.recover Ledger.container path with
        | exception e ->
            Alcotest.failf "truncate@%d raised %s" len (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, note) ->
            check_bool (Printf.sprintf "truncate@%d: prefix" len) true
              (is_prefix got entries);
            (* A silent (un-noted) salvage is only acceptable when the
               cut landed exactly on a record boundary — i.e. the
               surviving bytes re-serialize to exactly the truncated
               file, which is indistinguishable from a shorter ledger. *)
            if len < String.length full && note = None then
              check_string
                (Printf.sprintf "truncate@%d: clean salvage is a boundary" len)
                (String.sub full 0 len)
                (Dr.bytes Ledger.container got)
      done)

let ledger_bit_flip_fuzz () =
  (* Flip one bit at EVERY byte offset: [recover] never raises and
     salvages only prefixes; strict [load] never accepts a changed
     parse. *)
  with_temp (fun path ->
      let entries = List.init 3 sample_entry in
      Dr.write Ledger.container path entries;
      let full = read_file path in
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        let oc = open_out_bin path in
        output_string oc (Bytes.to_string b);
        close_out oc;
        (match Dr.recover Ledger.container path with
        | exception e ->
            Alcotest.failf "flip@%d raised %s" i (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool (Printf.sprintf "flip@%d: prefix" i) true
              (is_prefix got entries));
        match Ledger.load path with
        | exception e ->
            Alcotest.failf "strict flip@%d raised %s" i (Printexc.to_string e)
        | Ok got ->
            (* Flips in cosmetic header whitespace cannot change the
               parse; anywhere else the CRC catches them. *)
            check_bool (Printf.sprintf "strict flip@%d equals original" i) true
              (got = entries)
        | Error _ -> ()
      done)

(* ------------------------------------------------------------------ *)
(* Daemon oplog on the artifact layer                                  *)
(* ------------------------------------------------------------------ *)

module Oplog = Stz_telemetry.Oplog
module Json = Stz_telemetry.Json

let write_oplog path n =
  match Oplog.create ~path () with
  | Error e -> Alcotest.fail e
  | Ok l ->
      for i = 0 to n - 1 do
        Oplog.event l ~ts_ms:(1_700_000_000_000 + i) ~ev:"fuzz.event"
          [ ("i", Json.Int i); ("payload", Json.String (String.make 20 'x')) ]
      done;
      Oplog.close l

let oplog_raw_records path = snd (strict_records path)

let oplog_truncation_fuzz () =
  (* Cut the oplog at EVERY byte offset — the SIGKILL-mid-write
     spectrum. [recover] must never raise and must salvage only record
     prefixes, exactly like checkpoints and ledgers. *)
  with_temp (fun path ->
      write_oplog path 5;
      let records = oplog_raw_records path in
      let full = read_file path in
      for len = 0 to String.length full do
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 len);
        close_out oc;
        match Dr.recover Oplog.container path with
        | exception e ->
            Alcotest.failf "truncate@%d raised %s" len (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, note) ->
            check_bool (Printf.sprintf "truncate@%d: prefix" len) true
              (is_prefix got records);
            if len < String.length full && note = None then
              check_string
                (Printf.sprintf "truncate@%d: clean salvage is a boundary" len)
                (String.sub full 0 len)
                (Dr.bytes Oplog.container got)
      done)

let oplog_bit_flip_fuzz () =
  (* Flip one bit at EVERY byte offset: [recover] never raises and
     salvages only prefixes; strict [load] never accepts a changed
     parse. *)
  with_temp (fun path ->
      write_oplog path 4;
      let records = oplog_raw_records path in
      let full = read_file path in
      let intact =
        match Oplog.load path with
        | Ok r -> r
        | Error e -> Alcotest.failf "intact load: %s" e
      in
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        let oc = open_out_bin path in
        output_string oc (Bytes.to_string b);
        close_out oc;
        (match Dr.recover Oplog.container path with
        | exception e ->
            Alcotest.failf "flip@%d raised %s" i (Printexc.to_string e)
        | Error _ -> ()
        | Ok (got, _) ->
            check_bool (Printf.sprintf "flip@%d: prefix" i) true
              (is_prefix got records));
        match Oplog.load path with
        | exception e ->
            Alcotest.failf "strict flip@%d raised %s" i (Printexc.to_string e)
        | Ok got ->
            check_bool (Printf.sprintf "strict flip@%d equals original" i) true
              (got = intact)
        | Error _ -> ()
      done)

let oplog_self_heal_appends_after_torn_tail () =
  (* The daemon's reopen path: truncate mid-record, reopen, append —
     the result must be a fully valid container again. *)
  with_temp (fun path ->
      write_oplog path 5;
      let full = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 11));
      close_out oc;
      (match Oplog.create ~path () with
      | Error e -> Alcotest.failf "self-heal open: %s" e
      | Ok l ->
          Oplog.event l ~ts_ms:1_700_000_000_999 ~ev:"fuzz.after"
            [ ("ok", Json.Bool true) ];
          Oplog.close l);
      (match Oplog.load path with
      | Error e -> Alcotest.failf "healed file not strictly valid: %s" e
      | Ok records ->
          check_int "4 salvaged + 1 appended" 5 (List.length records));
      (* A record that checksums but is not JSON is dropped on reopen
         too, as the next fsck would drop it. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (A.record_string ("op", "not json"));
      close_out oc;
      (match Oplog.create ~path () with
      | Error e -> Alcotest.failf "self-heal open: %s" e
      | Ok l -> Oplog.close l);
      match Oplog.load path with
      | Error e -> Alcotest.failf "undecodable record kept: %s" e
      | Ok records -> check_int "undecodable record dropped" 5 (List.length records))

(* ------------------------------------------------------------------ *)
(* szc fsck golden                                                     *)
(* ------------------------------------------------------------------ *)

module Fl = Stz_store.Fuzzlog
module Sl = Stz_store.Sweeplog
module Spool = Stz_daemon.Spool

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (
      Buffer.add_string b by;
      go (i + n))
    else (
      Buffer.add_char b s.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents b

let fuzz_specimen path =
  let meta =
    { Fl.version = 1; fuzz_seed = 3L; count = 3; rand_runs = 2; plant = "none" }
  in
  match Fl.create ~path meta with
  | Error e -> Alcotest.fail e
  | Ok t ->
      for index = 0 to 2 do
        Fl.append t
          {
            Fl.index;
            case_seed = Int64.of_int (50 + index);
            verdict = (if index = 1 then Fl.Fail else Fl.Clean);
            oracle = (if index = 1 then "opt-equality" else "");
            detail = "";
            repro = (if index = 1 then "repro-000001.szt" else "");
            repro_instrs = 4 * index;
            shrink_steps = index;
            result = 7;
            cycles = 900 + index;
          }
      done;
      Fl.close t

let sweep_specimen path =
  let meta =
    {
      Sl.version = 1;
      fuzz_seed = 3L;
      count = 3;
      layout_seeds = 4;
      variants = 3;
      threshold = 0.3;
      shrink_budget = 8;
    }
  in
  match Sl.create ~path meta with
  | Error e -> Alcotest.fail e
  | Ok t ->
      for index = 0 to 2 do
        Sl.append t
          {
            Sl.index;
            case_seed = Int64.of_int (60 + index);
            verdict = Sl.Measured;
            eta2 = 0.1 *. float_of_int index;
            partial_eta2 = 0.5;
            workload_share = 0.25;
            residual_share = 0.125;
            mean_cycles = 4000;
            instrs = 100;
            structure = "l1i";
            victim = 1;
            evictor = 2;
            conflict_events = 5;
            conflict_cycles = 50;
            repro = "";
            repro_instrs = 0;
            shrink_steps = 0;
            detail = "";
          }
      done;
      Sl.close t

(* One intact specimen per container kind fsck tells apart: (name,
   header kind, first record tag, writer). *)
let fsck_specimens =
  [
    ("ledger", Ledger.container.Dr.kind, "campaign",
      fun path -> Dr.write Ledger.container path (List.init 3 sample_entry));
    ("oplog", Oplog.container.Dr.kind, "op", fun path -> write_oplog path 3);
    ("fuzzlog", Fl.container.Dr.kind, "meta", fuzz_specimen);
    ("sweeplog", Sl.container.Dr.kind, "meta", sweep_specimen);
    ("checkpoint", "szc-checkpoint", "meta",
      fun path -> ignore (campaign ~runs:4 ~checkpoint:path ~seed:5 F.light));
    ("manifest", "szc-manifest", "spec",
      fun path ->
        Dr.write Spool.manifest path
          { Spool.default_spec with Spool.bench = "mcf"; runs = 3; scale = 0.05 });
    ("result", "szc-result", "result",
      fun path -> Dr.write Spool.result path (Spool.Finished 0));
  ]

(* A well-formed container of a kind fsck does not know. *)
let fsck_unknown_kind =
  ("unknown", "szc-mystery", "x", fun path ->
    let oc = open_out_bin path in
    output_string oc (A.container ~kind:"szc-mystery" [ ("x", "payload") ]);
    close_out oc)

(* Three states per kind: intact, torn mid-record, and a valid header
   whose first record checksums but does not decode. *)
let fsck_states =
  [
    ("intact", fun _ _ _ -> ());
    ("torn", fun path _ _ ->
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd ((Unix.fstat fd).Unix.st_size - 7);
      Unix.close fd);
    ("undecodable", fun path kind tag ->
      let oc = open_out_bin path in
      output_string oc
        (A.header_line ~kind ^ A.record_string (tag, "not a payload"));
      close_out oc);
  ]

let fsck_line ~repair (name, kind, tag, write) (state, damage) =
  with_temp (fun path ->
      write path;
      damage path kind tag;
      let out = path ^ ".out" in
      Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
      @@ fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s fsck %s%s > %s 2>&1" (Filename.quote szc_exe)
             (if repair then "--repair " else "")
             (Filename.quote path) (Filename.quote out))
      in
      let lines =
        String.split_on_char '\n' (String.trim (read_file out))
        |> List.map (replace_all ~sub:path ~by:"FILE")
      in
      Printf.sprintf "%s %s%s -> %d%s | %s" name state
        (if repair then " --repair" else "")
        code
        (if Sys.file_exists (path ^ ".corrupt") then " (moved aside)" else "")
        (String.concat " | " lines))

(* Golden: exit code, every output line and the .corrupt move-aside of
   [szc fsck] and [szc fsck --repair] on each kind in each state. *)
let fsck_golden () =
  let actual =
    List.concat_map
      (fun spec ->
        List.concat_map
          (fun st -> [ fsck_line ~repair:false spec st; fsck_line ~repair:true spec st ])
          fsck_states)
      fsck_specimens
    @ List.map
        (fun repair -> fsck_line ~repair fsck_unknown_kind (List.hd fsck_states))
        [ false; true ]
  in
  let expected =
    [
      "ledger intact -> 0 | FILE: ok (ledger, 3 entries)";
      "ledger intact --repair -> 0 | FILE: ok (ledger, 3 entries)";
      "ledger torn -> 2 | FILE: salvageable — salvaged 745 of 1097 bytes (2 entries): record payload truncated";
      "ledger torn --repair -> 2 | FILE: salvageable — salvaged 745 of 1097 bytes (2 entries): record payload truncated | FILE: repaired (rewritten from the salvaged prefix, 2 entries)";
      "ledger undecodable -> 2 | FILE: salvageable — salvaged 63 of 63 bytes (0 entries)";
      "ledger undecodable --repair -> 2 | FILE: salvageable — salvaged 63 of 63 bytes (0 entries) | FILE: repaired (rewritten from the salvaged prefix, 0 entries)";
      "oplog intact -> 0 | FILE: ok (oplog, 3 records)";
      "oplog intact --repair -> 0 | FILE: ok (oplog, 3 records)";
      "oplog torn -> 2 | FILE: salvageable — salvaged 220 of 310 bytes (2 records): record payload truncated";
      "oplog torn --repair -> 2 | FILE: salvageable — salvaged 220 of 310 bytes (2 records): record payload truncated | FILE: repaired (rewritten from the salvaged prefix, 2 records)";
      "oplog undecodable -> 2 | FILE: salvageable — salvaged 56 of 56 bytes (0 records)";
      "oplog undecodable --repair -> 2 | FILE: salvageable — salvaged 56 of 56 bytes (0 records) | FILE: repaired (rewritten from the salvaged prefix, 0 records)";
      "fuzzlog intact -> 0 | FILE: ok (fuzz ledger, 3 cases)";
      "fuzzlog intact --repair -> 0 | FILE: ok (fuzz ledger, 3 cases)";
      "fuzzlog torn -> 2 | FILE: salvageable — salvaged 377 of 497 bytes (2 cases): record payload truncated";
      "fuzzlog torn --repair -> 2 | FILE: salvageable — salvaged 377 of 497 bytes (2 cases): record payload truncated | FILE: repaired (rewritten from the salvaged prefix, 2 cases)";
      "fuzzlog undecodable -> 3 | FILE: unrecoverable — fuzzlog: missing field \"version\"";
      "fuzzlog undecodable --repair -> 3 (moved aside) | FILE: unrecoverable — fuzzlog: missing field \"version\" | FILE: moved aside to FILE.corrupt";
      "sweeplog intact -> 0 | FILE: ok (sweep ledger, 3 cases)";
      "sweeplog intact --repair -> 0 | FILE: ok (sweep ledger, 3 cases)";
      "sweeplog torn -> 2 | FILE: salvageable — salvaged 714 of 997 bytes (2 cases): record payload truncated";
      "sweeplog torn --repair -> 2 | FILE: salvageable — salvaged 714 of 997 bytes (2 cases): record payload truncated | FILE: repaired (rewritten from the salvaged prefix, 2 cases)";
      "sweeplog undecodable -> 3 | FILE: unrecoverable — sweeplog: missing field \"version\"";
      "sweeplog undecodable --repair -> 3 (moved aside) | FILE: unrecoverable — sweeplog: missing field \"version\" | FILE: moved aside to FILE.corrupt";
      "checkpoint intact -> 0 | FILE: ok (checkpoint container)";
      "checkpoint intact --repair -> 0 | FILE: ok (checkpoint container)";
      "checkpoint torn -> 2 | FILE: salvageable — salvaged 1915 of 1986 bytes (4 records): record payload truncated; supervisor state re-derived from run records";
      "checkpoint torn --repair -> 2 | FILE: salvageable — salvaged 1915 of 1986 bytes (4 records): record payload truncated; supervisor state re-derived from run records | FILE: repaired (rewritten from the salvaged prefix, 4 records)";
      "checkpoint undecodable -> 3 | FILE: unrecoverable — at 0: expected null";
      "checkpoint undecodable --repair -> 3 (moved aside) | FILE: unrecoverable — at 0: expected null | FILE: moved aside to FILE.corrupt";
      "manifest intact -> 0 | FILE: ok (spool manifest)";
      "manifest intact --repair -> 0 | FILE: ok (spool manifest)";
      "manifest torn -> 3 | FILE: unrecoverable — spool manifest: expected one \"spec\" record";
      "manifest torn --repair -> 3 (moved aside) | FILE: unrecoverable — spool manifest: expected one \"spec\" record | FILE: moved aside to FILE.corrupt";
      "manifest undecodable -> 3 | FILE: unrecoverable — at 0: expected null";
      "manifest undecodable --repair -> 3 (moved aside) | FILE: unrecoverable — at 0: expected null | FILE: moved aside to FILE.corrupt";
      "result intact -> 0 | FILE: ok (spool result)";
      "result intact --repair -> 0 | FILE: ok (spool result)";
      "result torn -> 3 | FILE: unrecoverable — spool result: expected one \"result\" record";
      "result torn --repair -> 3 (moved aside) | FILE: unrecoverable — spool result: expected one \"result\" record | FILE: moved aside to FILE.corrupt";
      "result undecodable -> 3 | FILE: unrecoverable — result: malformed state";
      "result undecodable --repair -> 3 (moved aside) | FILE: unrecoverable — result: malformed state | FILE: moved aside to FILE.corrupt";
      "unknown intact -> 1 | FILE: unknown container kind \"szc-mystery\"";
      "unknown intact --repair -> 1 | FILE: unknown container kind \"szc-mystery\"";
    ]
  in
  Alcotest.(check (list string)) "fsck golden" expected actual

(* ------------------------------------------------------------------ *)
(* Durable containers: tail-tear property, one per kind                *)
(* ------------------------------------------------------------------ *)

let take k l = List.filteri (fun i _ -> i < k) l

(* For random values of one container kind, written by the kind's own
   writer ([write], whose bytes must equal [Dr.bytes]), cut the file at
   every byte offset inside its last two records. [prefix v k] is what a
   file holding only the first [k] [item] records decodes to ([None]:
   nothing survives), compared with [same] (default: equal container
   bytes, since writers sanitize what they encode). At every cut:
   - [recover] returns exactly that decode-prefix, noted unless the cut
     fell on a record boundary;
   - [repair] then [load] gives it back, or, when nothing survives, the
     cut file is moved aside byte-identical;
   - [reopen path v k], for kinds appended in place, reopens the cut
     file and re-appends from item [k]: the result is the intact bytes. *)
let tail_heal (type a) ?(count = 5) name (c : a Dr.t) ~item ?same ~prefix
    ?reopen ~write (gen : a QCheck.Gen.t) =
  let same =
    Option.value same ~default:(fun a b -> Dr.bytes c a = Dr.bytes c b)
  in
  QCheck.Test.make ~name ~count (QCheck.make gen) (fun v ->
      with_temp (fun path ->
          write path v;
          let intact = read_file path in
          let header = String.length (A.header_line ~kind:c.Dr.kind) in
          (* (end offset, tag) of every record. *)
          let ends =
            List.rev
              (snd
                 (List.fold_left
                    (fun (pos, acc) r ->
                      let pos = pos + String.length (A.record_string r) in
                      (pos, (pos, fst r) :: acc))
                    (header, []) (c.Dr.encode v)))
          in
          let n = List.length ends in
          let start = if n >= 3 then fst (List.nth ends (n - 3)) else header in
          if intact <> Dr.bytes c v then Alcotest.fail "writer bytes differ";
          for cut = start to String.length intact - 1 do
            let expect what b = if not b then Alcotest.failf "cut at %d: %s" cut what in
            let torn = String.sub intact 0 cut in
            let put () =
              let oc = open_out_bin path in
              output_string oc torn;
              close_out oc
            in
            put ();
            let k =
              List.length (List.filter (fun (e, tag) -> tag = item && e <= cut) ends)
            in
            let want = prefix v k in
            (* A cut on a record boundary leaves a shorter file that may
               still load (the checkpoint's also needs its state record). *)
            let boundary = cut = header || List.exists (fun (e, _) -> e = cut) ends in
            let loads = Result.is_ok (Dr.load c path) in
            (match (Dr.recover c path, want) with
            | Ok (got, note), Some w ->
                expect "recover is the prefix" (same got w);
                expect "noted exactly when load fails" ((note = None) = loads);
                expect "a mid-record cut is noted" (boundary || note <> None)
            | Error _, None -> ()
            | _ -> expect "recover" false);
            (match (Dr.repair c path, want) with
            | (Dr.Intact _ | Dr.Salvaged _), Some w -> (
                match Dr.load c path with
                | Ok got -> expect "repaired file loads the prefix" (same got w)
                | Error e -> expect ("load after repair: " ^ e) false)
            | Dr.Unrecoverable _, None ->
                expect "moved aside intact"
                  ((not (Sys.file_exists path)) && read_file (Dr.aside path) = torn)
            | _ -> expect "repair" false);
            Option.iter
              (fun reopen ->
                put ();
                reopen path v k;
                expect "reopen re-appends the intact bytes" (read_file path = intact))
              reopen
          done;
          true))

let caselog_tail_heal (type m c) name
    (module L : Stz_store.Caselog.S with type meta = m and type case = c)
    (meta : m) (gen_case : int -> c QCheck.Gen.t) =
  let gen =
    QCheck.Gen.(
      int_range 2 5 >>= fun n ->
      map (fun cs -> (meta, cs)) (flatten_l (List.init n gen_case)))
  in
  let append_from cases k t =
    List.iteri (fun i c -> if i >= k then L.append t c) cases;
    L.close t
  in
  tail_heal name L.container ~item:"case"
    ~prefix:(fun (m, cs) k -> Some (m, take k cs))
    ~write:(fun path (m, cs) ->
      match L.create ~path m with
      | Error e -> Alcotest.fail e
      | Ok t -> append_from cs 0 t)
    ~reopen:(fun path (m, cs) k ->
      match L.resume ~path m with
      | Error e -> Alcotest.failf "resume: %s" e
      | Ok (t, kept) ->
          if List.length kept <> k then
            Alcotest.failf "resume kept %d, wanted %d" (List.length kept) k;
          append_from cs k t)
    gen

let gen_text =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; ' '; '\n'; '\r'; 'z'; '%' ]) (int_range 0 9))

let gen_fuzz_case index =
  let open QCheck.Gen in
  let* case_seed = ui64 in
  let* verdict = oneofl [ Fl.Clean; Fl.Trapped; Fl.Fail; Fl.Crashed; Fl.Hung ] in
  let* oracle = gen_text in
  let* detail = gen_text in
  let* repro = gen_text in
  let* repro_instrs = int in
  let* shrink_steps = nat in
  let* result = int in
  let* cycles = int in
  return
    {
      Fl.index;
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

let gen_sweep_case index =
  let open QCheck.Gen in
  let* case_seed = ui64 in
  let* verdict = oneofl [ Sl.Measured; Sl.Trapped; Sl.Crashed; Sl.Hung ] in
  let* eta2 = float in
  let* partial_eta2 = float in
  let* workload_share = float_range 0. 1. in
  let* residual_share = float in
  let* mean_cycles = int in
  let* instrs = nat in
  let* structure = gen_text in
  let* victim = int in
  let* evictor = int in
  let* conflict_events = nat in
  let* conflict_cycles = int in
  let* repro = gen_text in
  let* repro_instrs = nat in
  let* shrink_steps = nat in
  let* detail = gen_text in
  return
    {
      Sl.index;
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

let fuzzlog_tail_heal =
  caselog_tail_heal "fuzzlog: every tail cut heals byte-identically"
    (module Fl)
    { Fl.version = 1; fuzz_seed = 3L; count = 5; rand_runs = 2; plant = "none" }
    gen_fuzz_case

let sweeplog_tail_heal =
  caselog_tail_heal "sweeplog: every tail cut heals byte-identically"
    (module Sl)
    {
      Sl.version = 1;
      fuzz_seed = 3L;
      count = 5;
      layout_seeds = 4;
      variants = 3;
      threshold = 0.3;
      shrink_budget = 8;
    }
    gen_sweep_case

let list_of gen = QCheck.Gen.(int_range 2 5 >>= fun n -> list_repeat n gen)

let gen_entry =
  let open QCheck.Gen in
  let* label = gen_text in
  let* fingerprint = gen_text in
  let* base_seed = ui64 in
  let* runs = nat in
  let* completed = nat in
  let* censored = nat in
  let* mean = float in
  let* sd = float in
  let* min = float in
  let* max = float in
  let* skewness = float in
  let* kurtosis = float in
  let* detectable_effect = float in
  let* verdict = gen_text in
  return
    {
      Ledger.label;
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

let ledger_tail_heal =
  tail_heal "ledger: every tail cut recovers a prefix" Ledger.container
    ~item:"campaign"
    ~prefix:(fun es k -> Some (take k es))
    ~write:(fun path es ->
      List.iter
        (fun e -> if Result.is_error (Ledger.append path e) then Alcotest.fail "append")
        es)
    (list_of gen_entry)

(* Oplog values are the raw records; the writer logs them as events. *)
let oplog_tail_heal =
  let log_from path records k =
    match Oplog.create ~path () with
    | Error e -> Alcotest.fail e
    | Ok l ->
        List.iteri
          (fun i (_, p) ->
            if i >= k then Oplog.log l (Result.get_ok (Json.of_string p)))
          records;
        Oplog.close l
  in
  let gen_event =
    QCheck.Gen.(
      map2
        (fun ts ev ->
          let j = Json.Obj [ ("ts_ms", Json.Int ts); ("ev", Json.String ev) ] in
          ("op", Json.to_string j))
        nat gen_text)
  in
  tail_heal "oplog: every tail cut heals byte-identically" Oplog.container
    ~item:"op"
    ~prefix:(fun rs k -> Some (take k rs))
    ~write:(fun path rs -> log_from path rs 0)
    ~reopen:log_from (list_of gen_event)

(* A lost state record is re-derived, so only the run records are
   compared. *)
let checkpoint_tail_heal =
  tail_heal ~count:3 "checkpoint: every tail cut recovers a run prefix"
    S.Supervisor.checkpoint ~item:"run"
    ~same:(fun a b -> a.S.Supervisor.records = b.S.Supervisor.records)
    ~prefix:(fun c k ->
      Some { c with S.Supervisor.records = take k c.S.Supervisor.records })
    ~write:S.Supervisor.save
    QCheck.Gen.(
      map2 (fun seed runs -> campaign ~runs ~seed F.heavy) (int_range 1 1000)
        (int_range 3 5))

(* One record: any cut loses it, so the file is moved aside. *)
let manifest_tail_heal =
  let gen_spec =
    let open QCheck.Gen in
    let* bench = oneofl [ "mcf"; "bzip2"; "gcc" ] in
    let* runs = nat in
    let* seed = nat in
    let* scale = float_range 0.01 4.0 in
    let* opt = oneofl [ "O0"; "O1"; "O2"; "O3" ] in
    let* faults = oneofl [ "none"; "light"; "heavy" ] in
    let* storage_seed = nat in
    let* ledger = bool in
    let* trace = bool in
    return
      {
        Spool.default_spec with
        Spool.bench;
        runs;
        seed;
        scale;
        opt;
        faults;
        storage_seed;
        ledger;
        trace;
      }
  in
  tail_heal "manifest: every tail cut is moved aside" Spool.manifest
    ~item:"spec"
    ~prefix:(fun spec k -> if k = 1 then Some spec else None)
    ~write:(Dr.write Spool.manifest) gen_spec

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick crc_vectors;
          QCheck_alcotest.to_alcotest crc_detects_any_single_bit_flip;
        ] );
      ( "container",
        [
          Alcotest.test_case "round-trip" `Quick container_round_trip;
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            salvage_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            salvage_bit_flip_fuzz;
          QCheck_alcotest.to_alcotest salvage_garbage_never_raises;
        ] );
      ( "sidecar",
        [ Alcotest.test_case "write + verify" `Quick sidecar_verifies ] );
      ( "storage faults",
        [
          Alcotest.test_case "seed-deterministic" `Quick
            storage_faults_deterministic;
          Alcotest.test_case "chaos corrupts writes" `Quick
            storage_faults_actually_fire;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "container round-trip" `Quick checkpoint_is_container;
          Alcotest.test_case "legacy JSON refused" `Quick legacy_json_refused;
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            checkpoint_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            checkpoint_bit_flip_fuzz;
          Alcotest.test_case "derived-state resume identity" `Quick
            derived_state_resume_identity;
          Alcotest.test_case "campaign survives storage faults" `Quick
            campaign_survives_storage_faults;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "round-trip + sequence" `Quick ledger_round_trip;
          Alcotest.test_case "append refuses corruption" `Quick
            ledger_refuses_corrupt_append;
          Alcotest.test_case "campaign: corrupt ledger exits 3" `Quick
            campaign_ledger_corrupt_exits_3;
          Alcotest.test_case "campaign: unwritable ledger exits 3" `Quick
            campaign_ledger_unwritable_exits_3;
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            ledger_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            ledger_bit_flip_fuzz;
        ] );
      ( "oplog",
        [
          Alcotest.test_case "truncation fuzz (every offset)" `Quick
            oplog_truncation_fuzz;
          Alcotest.test_case "bit-flip fuzz (every offset)" `Quick
            oplog_bit_flip_fuzz;
          Alcotest.test_case "self-heal then append" `Quick
            oplog_self_heal_appends_after_torn_tail;
        ] );
      ( "caselog",
        [
          QCheck_alcotest.to_alcotest fuzzlog_tail_heal;
          QCheck_alcotest.to_alcotest sweeplog_tail_heal;
          QCheck_alcotest.to_alcotest ledger_tail_heal;
          QCheck_alcotest.to_alcotest oplog_tail_heal;
          QCheck_alcotest.to_alcotest checkpoint_tail_heal;
          QCheck_alcotest.to_alcotest manifest_tail_heal;
        ] );
      ( "fsck",
        [ Alcotest.test_case "golden exit codes and lines" `Quick fsck_golden ]
      );
    ]
