(** One campaign job, shared by [szc campaign] and the [szcd] runner:
    {!resolve} checks and parses a campaign spec once, and {!run}
    executes it through {!Driver.campaign} and does everything after
    it. Both front ends get the same artifact bytes and lines by
    construction. *)

(** A resolved spec: benchmark and scale mapped to a workload, the
    optimization level and both fault profiles parsed, every number
    range-checked. *)
type t

(** A benchmark's profile at [scale]: [Error] for a non-positive or
    non-finite scale, or an unknown benchmark. The one workload lookup
    of every command that takes a benchmark and [--scale]. *)
val workload : bench:string -> scale:float -> (Stz_workloads.Profile.t, string) result

(** The spec in its CLI/manifest spelling ([opt] ["O0".."O3"],
    [faults]/[storage_faults] profile strings). [Error] names the first
    problem: unknown benchmark, unparsable level or profile,
    [runs < 1], negative [retries]/[min_n], non-positive or non-finite
    [scale]. *)
val resolve :
  bench:string ->
  scale:float ->
  opt:string ->
  faults:string ->
  storage_faults:string ->
  storage_seed:int ->
  seed:int ->
  runs:int ->
  retries:int ->
  min_n:int ->
  (t, string) result

(** ["run   3:    1782689 cycles (0.000557 s)"], or
    ["run   5: censored: fuel-starvation  (retries=2)"]. *)
val progress_line : Supervisor.record -> string

(** The exit code (0 enough uncensored runs, 2 fewer than [min_n], 3
    aborted) and its summary line: the campaign line on 0, otherwise
    the reason. *)
type finish = { exit_code : int; line : string }

(** [run ~progress ~say job] runs the campaign, checkpointing to
    [checkpoint] as runs finish, then writes [trace], [metrics] and
    [csv] through {!Stz_store.Artifact.write_with_sum} and appends the
    [ledger] entry. [progress run line] gets each progress line in run
    order; [say] gets the report lines ([# wrote PATH], header,
    campaign and time summary, [live] monitor status and verdict,
    ledger receipt, the exit-2 line).

    The monitor is armed when [live] or [ledger] is set; its final
    verdict goes into the ledger entry. The spec's storage faults are
    armed unless [arm_storage] is [false], and disarmed on return. A
    wedge-free run-fault profile gets a fixed 120 s watchdog grace:
    nothing can legitimately hang, and a calibrated grace could misfire
    on an oversubscribed host. A checkpoint mismatch, every run
    censored, or a ledger that cannot take the entry (corrupt, or an IO
    error) is exit 3. *)
val run :
  ?config:Config.t ->
  ?jobs:int ->
  ?dispatch:Parallel.dispatcher ->
  ?lanes:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?trace:string ->
  ?metrics:string ->
  ?csv:string ->
  ?ledger:string ->
  ?live:bool ->
  ?arm_storage:bool ->
  progress:(int -> string -> unit) ->
  say:(string -> unit) ->
  t ->
  finish
