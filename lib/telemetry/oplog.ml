(* Structured operational log for the daemon: one JSON object per
   record, framed with the store's container/CRC discipline so a crash
   mid-write salvages to the longest valid prefix and `szc fsck` can
   diagnose and repair it like any other artifact. Appends are one
   write(2) each — no buffering, so a forked child inheriting the fd
   never duplicates bytes at exit. *)

module A = Stz_store.Artifact
module Durable = Stz_store.Durable

let kind = "szc-oplog"
let record_tag = "op"
let header = A.header_line ~kind

type t = {
  path : string;
  max_bytes : int;
  keep : int;
  mutable fd : Unix.file_descr;
  mutable size : int;
  mutable closed : bool;
}

let open_fresh path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  A.write_exact fd header;
  (fd, String.length header)

(* Raw [(tag, payload)] records, so a repair rewrites the surviving
   bytes exactly; a record counts only when its payload parses as JSON. *)
let container =
  {
    Durable.kind;
    noun = "oplog";
    units = ("record", "records");
    count = List.length;
    counted = true;
    encode = Fun.id;
    decode =
      (fun ~lenient records ->
        Result.map
          (fun records -> (records, None))
          (Stz_store.Caselog.decode_records ~name:"oplog" ~tag:record_tag
             ~lenient
             (fun p ->
               match Json.of_string p with
               | Ok _ -> Ok (record_tag, p)
               | Error e -> Error ("oplog: bad record payload: " ^ e))
             records));
  }

(* A reopened oplog self-heals through the one container repair: a torn
   tail (daemon SIGKILLed mid-write) or an undecodable record is cut
   back to the longest decodable prefix, and a file that is not our
   container at all is moved aside rather than silently destroyed. *)
let create ~path ?(max_bytes = 4 * 1024 * 1024) ?(keep = 3) () =
  match
    let kept =
      Sys.file_exists path
      && (Unix.stat path).Unix.st_size > 0
      &&
      match Durable.repair container path with
      | Durable.Unrecoverable _ -> false
      | Durable.Intact _ | Durable.Salvaged _ -> true
    in
    let fd, size =
      if kept then
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        (fd, (Unix.fstat fd).Unix.st_size)
      else open_fresh path
    in
    { path; max_bytes = Stdlib.max max_bytes (String.length header + 1); keep; fd; size; closed = false }
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "oplog %s: %s" path (Unix.error_message e))
  | exception Sys_error e -> Error (Printf.sprintf "oplog %s: %s" path e)

let rotated t i = Printf.sprintf "%s.%d" t.path i

(* path -> path.1 -> path.2 ... up to [keep] rotated generations. *)
let rotate t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (try Sys.remove (rotated t t.keep) with Sys_error _ -> ());
  for i = t.keep - 1 downto 1 do
    if Sys.file_exists (rotated t i) then
      try Sys.rename (rotated t i) (rotated t (i + 1)) with Sys_error _ -> ()
  done;
  (if t.keep >= 1 then
     try Sys.rename t.path (rotated t 1) with Sys_error _ -> ());
  let fd, size = open_fresh t.path in
  t.fd <- fd;
  t.size <- size

let log t json =
  if not t.closed then begin
    let bytes = A.record_string (record_tag, Json.to_string json) in
    if
      t.size > String.length header
      && t.size + String.length bytes > t.max_bytes
    then rotate t;
    match A.write_exact t.fd bytes with
    | () -> t.size <- t.size + String.length bytes
    | exception Unix.Unix_error _ -> ()
  end

let event t ~ts_ms ~ev fields =
  log t (Json.Obj (("ts_ms", Json.Int ts_ms) :: ("ev", Json.String ev) :: fields))

let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Read side (fsck, tests)                                             *)
(* ------------------------------------------------------------------ *)

let load path =
  Result.map
    (List.map (fun (_, p) -> Result.get_ok (Json.of_string p)))
    (Durable.load container path)
