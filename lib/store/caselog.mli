(** The case-log engine: one durable, resumable, index-ordered ledger
    per indexed campaign ([szc fuzz], [szc layout sweep]). See the
    "Case logs" part of the "Durable containers" section of DESIGN.md
    for the invariants.

    A case log is a [%szc-artifact] container: the header, one [meta]
    record pinning the campaign's identity, then one [case] record per
    index, appended strictly in index order. Each record's payload is
    line-oriented [key value] text in the codec's fixed field order;
    values have newlines sanitized to spaces on write. Appends are one
    unbuffered [write(2)] each, so a SIGKILL at any instant leaves a
    valid prefix that {!S.resume} heals byte-identically. A codec
    supplies only the field lists; this module owns everything else,
    once. *)

(** {1 Payload fields} *)

(** [payload fields] is the record payload: one ["key value"] line per
    field, in order, with newlines in values sanitized to spaces. The
    history ledger's entries use this form too. *)
val payload : (string * string) list -> string

(** A parsed record payload, ready for field lookups. *)
type fields

(** [parse_fields name payload]; lookup errors are prefixed [name]
    (the codec's {!CODEC.name}) and name the field. A line without a
    space is a key with an empty value. *)
val parse_fields : string -> string -> fields

(** [str f key] is the raw value of [key]. *)
val str : fields -> string -> (string, string) result

(** [num conv f key] is [conv] of the raw value; [None] is a bad field. *)
val num : (string -> 'a option) -> fields -> string -> ('a, string) result

val int : fields -> string -> (int, string) result
val int64 : fields -> string -> (int64, string) result

(** Parses decimal and [%h] hex literals; pair with {!hex} on write. *)
val float : fields -> string -> (float, string) result

(** [%h]: a float that prints and parses bit-exactly, so a record's
    bytes never depend on decimal rounding. *)
val hex : float -> string

(** [decode_records ~name ~tag ~lenient decode records] decodes the
    payload of every [tag] record, in order. Strict ([lenient = false]):
    an undecodable payload or another tag is an error ("[name]: unknown
    record tag ..."). Lenient: stops at the first undecodable payload
    and skips other tags — the longest decodable prefix of a salvage. *)
val decode_records :
  name:string ->
  tag:string ->
  lenient:bool ->
  (string -> ('a, string) result) ->
  (string * string) list ->
  ('a list, string) result

(** {1 Codecs and logs} *)

module type CODEC = sig
  type meta
  type case

  (** Container kind in the header, e.g. ["szc-fuzz"]. *)
  val kind : string

  (** Error-message prefix, e.g. ["fuzzlog"]. *)
  val name : string

  (** What [szc fsck] calls the log, e.g. ["fuzz ledger"]. *)
  val noun : string

  (** Ordered [(key, value)] fields of each record's payload. *)
  val meta_fields : meta -> (string * string) list

  val meta_of_fields : fields -> (meta, string) result
  val case_fields : case -> (string * string) list
  val case_of_fields : fields -> (case, string) result

  (** The campaign index a case was computed for. *)
  val index : case -> int
end

module type S = sig
  type meta
  type case

  (** The log as a {!Durable} container: the meta and the cases, counted
      in cases. *)
  val container : (meta * case list) Durable.t

  (** An open log, positioned for appending. *)
  type t

  (** Start a fresh log (truncating any existing file): header + meta
      record. *)
  val create : path:string -> meta -> (t, string) result

  (** Reopen an existing log: salvage to the longest valid record
      prefix, check the stored meta against [meta], keep the contiguous
      index prefix [0..k-1] of cases (anything torn, undecodable or past
      a gap is dropped) and rewrite the file to exactly the bytes an
      uninterrupted run has at that point. Returns the kept cases. A
      missing or empty file degrades to {!create}. A foreign file is
      refused, and so is a stored meta whose encoded fields differ from
      [meta]'s: the error names each differing field with both values. *)
  val resume : path:string -> meta -> (t * case list, string) result

  (** Append one case — one [write(2)], crash-atomic at record
      granularity. Raises [Unix.Unix_error] on real IO failure. *)
  val append : t -> case -> unit

  val close : t -> unit

  (** [Durable.load container]. *)
  val load : string -> (meta * case list, string) result
end

module Make (C : CODEC) : S with type meta = C.meta and type case = C.case
