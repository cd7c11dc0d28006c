(** Structured operational log (oplog): an append-only JSONL stream of
    daemon lifecycle events, framed with the {!Stz_store.Artifact}
    container/CRC discipline.

    Each record is one compact JSON object checksummed with CRC-32, so
    the file is a valid [%szc-artifact] container of kind
    ["szc-oplog"]: [szc fsck] verifies it, a SIGKILL mid-write
    salvages to the longest valid record prefix, and a reopened oplog
    {e self-heals} through [Durable.repair] before appending resumes (a
    torn or undecodable tail is cut off; a foreign file is moved
    aside). Appends are one [write(2)] each — unbuffered, so a
    forked child that inherits the descriptor can never duplicate
    bytes at exit; the child simply closes the fd and stays silent.

    Size-based rotation: when the current file would exceed
    [max_bytes], it is renamed to [path.1] (shifting [path.1] to
    [path.2], ... keeping [keep] generations) and a fresh container is
    started.

    This is the {e wall-clock} plane's log. Nothing here is read by —
    or written from — campaign execution; enabling the oplog changes
    zero bytes of any campaign artifact. *)

type t

(** Open (or create) the oplog at [path], self-healing any torn tail.
    [max_bytes] (default 4 MiB) bounds each generation; [keep]
    (default 3) rotated generations are retained. *)
val create :
  path:string -> ?max_bytes:int -> ?keep:int -> unit -> (t, string) result

(** Append one record. IO errors are swallowed — losing an ops log
    line must never take the daemon down. *)
val log : t -> Json.t -> unit

(** [event t ~ts_ms ~ev fields] appends
    [{"ts_ms": ts_ms, "ev": ev, ...fields}]. [ts_ms] is the caller's
    wall clock in milliseconds. *)
val event : t -> ts_ms:int -> ev:string -> (string * Json.t) list -> unit

val path : t -> string
val close : t -> unit

(** The oplog as a {!Stz_store.Durable} container: its raw
    [(tag, payload)] records, each payload valid JSON, so a repair
    rewrites the surviving bytes exactly. *)
val container : (string * string) list Stz_store.Durable.t

(** Strict read: every record frames, checksums and parses as JSON. *)
val load : string -> (Json.t list, string) result
