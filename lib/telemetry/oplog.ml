(* Structured operational log for the daemon: one JSON object per
   record, framed with the store's container/CRC discipline so a crash
   mid-write salvages to the longest valid prefix and `szc fsck` can
   diagnose and repair it like any other artifact. Appends are one
   write(2) each — no buffering, so a forked child inheriting the fd
   never duplicates bytes at exit. *)

module A = Stz_store.Artifact

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

(* A reopened oplog self-heals: a torn tail (daemon SIGKILLed
   mid-write) is truncated back to the longest valid record prefix so
   subsequent appends stay parseable; a file that is not our container
   at all is moved aside rather than silently destroyed. *)
let open_existing path =
  match A.read_file path with
  | Error _ -> open_fresh path
  | Ok text when String.length text = 0 -> open_fresh path
  | Ok text -> (
      let s = A.salvage_string text in
      match s.A.kind with
      | Some k when k = kind ->
          let valid = s.A.valid_bytes in
          if valid = String.length text then begin
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            (fd, valid)
          end
          else begin
            let fd =
              Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
            in
            A.write_exact fd (String.sub text 0 valid);
            (fd, valid)
          end
      | _ ->
          (try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ());
          open_fresh path)

let create ~path ?(max_bytes = 4 * 1024 * 1024) ?(keep = 3) () =
  match
    let fd, size =
      if Sys.file_exists path then open_existing path else open_fresh path
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

let ( let* ) = Result.bind

let load path =
  let* k, records = A.read_records path in
  let* () =
    if k = kind then Ok ()
    else Error (Printf.sprintf "oplog: unexpected artifact kind %S" k)
  in
  Stz_store.Caselog.decode_records ~name:"oplog" ~tag:record_tag
    ~lenient:false
    (fun p ->
      Result.map_error (( ^ ) "oplog: bad record payload: ") (Json.of_string p))
    records

(* Longest valid prefix, as raw (tag, payload) records suitable for
   {!rewrite}; the note reports what was lost, [None] when intact. *)
let recover path =
  let* text = A.read_file path in
  if not (A.is_container text) then Error "oplog: not a container"
  else
    let s = A.salvage_string text in
    if s.A.kind <> Some kind then
      Error
        (match s.A.error with
        | Some e -> e
        | None -> "oplog: unexpected artifact kind")
    else
      let rec valid_prefix acc = function
        | (tag, payload) :: rest
          when tag = record_tag && Result.is_ok (Json.of_string payload) ->
            valid_prefix ((tag, payload) :: acc) rest
        | _ -> List.rev acc
      in
      let records = valid_prefix [] s.A.records in
      let note =
        if s.A.error = None && List.length records = List.length s.A.records
        then None
        else
          Some
            (Printf.sprintf "salvaged %d of %d bytes (%d records)%s"
               s.A.valid_bytes s.A.total_bytes (List.length records)
               (match s.A.error with Some e -> ": " ^ e | None -> ""))
      in
      Ok (records, note)

let rewrite path records = A.write_records path ~kind records
