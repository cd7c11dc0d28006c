(** The cross-campaign regression history: an append-only, CRC-checked
    {!Artifact} record container (kind ["szc-ledger"]) holding one
    record per finished campaign. Campaign results used to evaporate
    once their CSV was written; the ledger is what lets [szc regress]
    compare today's campaign against last week's baseline without
    re-running anything.

    Each entry keeps the campaign's identity (label, configuration
    fingerprint, base seed) and its summary moments — enough to
    recompute effect-size confidence intervals from the ledger alone.
    Floats are serialized as hexadecimal literals ([%h]), so a value
    written and read back is bit-identical and the regression decision
    is exactly reproducible.

    Appending re-writes the container through {!Artifact.write_file}
    (atomic, durable); existing records are never modified, so the file
    history is append-only even though the bytes are rewritten. A torn
    or bit-flipped ledger salvages to its longest valid entry prefix
    ([Durable.recover container], [szc fsck --repair]). *)

type entry = {
  label : string;  (** benchmark name *)
  fingerprint : string;
      (** full configuration identity: bench, optimization level,
          randomization config, fault profile, scale — campaigns are
          comparable when their labels match, identical when their
          fingerprints do *)
  base_seed : int64;
  runs : int;  (** planned runs *)
  completed : int;
  censored : int;
  mean : float;  (** seconds, over completed runs *)
  sd : float;
  min : float;
  max : float;
  skewness : float;
  kurtosis : float;
  detectable_effect : float;
      (** smallest standardized effect detectable at 0.8 power with
          [completed] runs per side *)
  verdict : string;
      (** the monitor's final stopping verdict, or ["-"] when the
          campaign ran unmonitored *)
}

(** The ledger as a {!Durable} container: one ["campaign"] record per
    entry (line-oriented [key value] text, floats in hexadecimal),
    counted in entries. *)
val container : entry list Durable.t

(** [Durable.load container]. *)
val load : string -> (entry list, string) result

(** [append path e] adds one entry: creates the ledger when [path] does
    not exist or is empty, otherwise strict-loads it first — a corrupt ledger is
    refused (run [szc fsck --repair]) rather than silently truncated.
    Returns the new entry's sequence number (0-based position). *)
val append : string -> entry -> (int, string) result
