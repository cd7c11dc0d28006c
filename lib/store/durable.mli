(** The durable-container contract. Every checksummed record container
    the harness keeps — the supervisor checkpoint, the history ledger,
    the fuzz and sweep case logs, the daemon oplog, the spool's
    manifest and result — is one value of {!t}: its header kind, the
    words its messages use, and a strict and a lenient decode of its
    [(tag, payload)] records. Strict load, lenient salvage and
    repair-or-move-aside are written once, here, on top of it. See the
    "Durable containers" section of DESIGN.md. *)

type 'a t = {
  kind : string;  (** header kind, e.g. ["szc-ledger"] *)
  noun : string;  (** names the container in messages, e.g. ["ledger"] *)
  units : string * string;  (** singular and plural of what {!count} counts *)
  count : 'a -> int;
  counted : bool;  (** [szc fsck] names the count on an intact file *)
  encode : 'a -> (string * string) list;
      (** the records, in file order; deterministic *)
  decode :
    lenient:bool ->
    (string * string) list ->
    ('a * string option, string) result;
      (** The value, and a remark naming what it had to re-derive
          because a record was lost (the checkpoint's supervisor state).
          Strict ([lenient = false]): every record must decode and none
          may be missing. Lenient: the longest decodable prefix,
          skipping records of other tags; [Error] only when not even a
          value survives. *)
}

(** A container of any value type, for tables keyed by kind. *)
type any = Any : 'a t -> any

(** The container bytes of a value. *)
val bytes : 'a t -> 'a -> string

(** Durable, atomic write of {!bytes} ({!Artifact.write_file}). *)
val write : 'a t -> string -> 'a -> unit

(** Strict load: the whole file parses, every record checksums, the
    kind matches and every record decodes. *)
val load : 'a t -> string -> ('a, string) result

(** Lenient load: the value decoded from the longest valid record
    prefix, plus the salvage note. The note is [None] exactly when the
    whole file parsed and every record decoded (the strict decode
    succeeds, so an intact file is decoded once); otherwise
    it reads ["salvaged V of T bytes (N <units>)"], then
    [": <framing error>"] when framing stopped early, then
    ["; <remark>"]. [Error] when the file is unreadable, is not a
    container, holds another kind, or no value survives. *)
val recover : 'a t -> string -> ('a * string option, string) result

type 'a status =
  | Intact of 'a  (** {!load} succeeded *)
  | Salvaged of 'a * string  (** {!load} failed, {!recover} did; the note *)
  | Unrecoverable of string  (** both failed; why *)

(** Classify a file without writing anything. *)
val check : 'a t -> string -> 'a status

(** {!check}, then act on it: a salvaged file is rewritten from its
    salvaged value ({!write}), an unrecoverable one is moved aside
    ({!move_aside}). Returns what {!check} found. *)
val repair : 'a t -> string -> 'a status

(** Where an unrecoverable file is moved: [FILE.corrupt]. *)
val aside : string -> string

(** Rename a file to {!aside}, best effort. *)
val move_aside : string -> unit

(** The kind in a file's header, from its contents: [Ok None] when the
    text is not a container at all, [Error] when it starts like one
    but its header line is damaged. *)
val header_kind : string -> (string option, string) result

(** A container holding exactly one [tag] record whose payload is
    [encode v] (lenient decoding takes the first record, when it is a
    [tag] one). Its intact line names no count. *)
val single :
  kind:string ->
  noun:string ->
  tag:string ->
  encode:('a -> string) ->
  decode:(string -> ('a, string) result) ->
  'a t
