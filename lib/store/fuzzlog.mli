(** The fuzz ledger: the durable record of a [szc fuzz] campaign, a
    {!Caselog} of kind ["szc-fuzz"]: one [meta] record, then one [case]
    record per fuzzed index. Append, resume and repair semantics are the
    engine's; see "Case logs" in the "Durable containers" section of
    DESIGN.md. *)

(** Campaign identity. {!resume} refuses a file whose meta differs —
    resuming under different knobs would silently change what the
    remaining indices compute. *)
type meta = {
  version : int;
  fuzz_seed : int64;
  count : int;
  rand_runs : int;  (** randomization seeds per case (oracle b) *)
  plant : string;  (** planted bug name, ["none"] normally *)
}

type verdict =
  | Clean
  | Trapped  (** trap-seeded case trapped as designed; oracles skipped *)
  | Fail  (** an oracle fired; a reproducer was shrunk and written *)
  | Crashed  (** worker died mid-case (censored) *)
  | Hung  (** watchdog killed the worker (censored) *)

type case = {
  index : int;
  case_seed : int64;
  verdict : verdict;
  oracle : string;  (** which oracle fired, [""] unless [Fail] *)
  detail : string;  (** one-line diagnosis (newlines are sanitized) *)
  repro : string;  (** reproducer file name, [""] unless [Fail] *)
  repro_instrs : int;  (** static instructions in the reproducer *)
  shrink_steps : int;  (** accepted shrink transformations *)
  result : int;  (** O0 return value ([Clean]/[Fail]) *)
  cycles : int;  (** O0 baseline cycles ([Clean]) *)
}

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option

(** The log operations; [kind] is ["szc-fuzz"]. *)
include Caselog.S with type meta := meta and type case := case
