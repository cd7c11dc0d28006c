(* The case-log engine shared by the fuzz and sweep ledgers: a meta
   record plus one case record per index, appended with the oplog
   discipline (one unbuffered write(2) per record, torn-tail self-heal
   on reopen) so a log is resumable byte-identically after a SIGKILL. *)

module A = Artifact

let ( let* ) = Result.bind

type fields = { name : string; tbl : (string, string) Hashtbl.t }

(* Values may not contain newlines: free text is sanitized on write. *)
let sanitize s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let payload fields =
  String.concat "\n" (List.map (fun (k, v) -> k ^ " " ^ sanitize v) fields)

let parse_fields name s =
  let tbl = Hashtbl.create 24 in
  List.iter
    (fun line ->
      if line <> "" then
        match String.index_opt line ' ' with
        | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
        | None -> Hashtbl.replace tbl line "")
    (String.split_on_char '\n' s);
  { name; tbl }

let str f key =
  match Hashtbl.find_opt f.tbl key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" f.name key)

let num conv f key =
  let* v = str f key in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: bad field %S" f.name key)

let int = num int_of_string_opt
let int64 = num Int64.of_string_opt
let float = num float_of_string_opt
let hex x = Printf.sprintf "%h" x

module type CODEC = sig
  type meta
  type case

  val kind : string
  val name : string
  val noun : string
  val meta_fields : meta -> (string * string) list
  val meta_of_fields : fields -> (meta, string) result
  val case_fields : case -> (string * string) list
  val case_of_fields : fields -> (case, string) result
  val index : case -> int
end

module type S = sig
  type meta
  type case

  val container : (meta * case list) Durable.t

  type t

  val create : path:string -> meta -> (t, string) result
  val resume : path:string -> meta -> (t * case list, string) result
  val append : t -> case -> unit
  val close : t -> unit
  val load : string -> (meta * case list, string) result
end

let decode_records ~name ~tag ~lenient decode records =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (t, payload) :: rest when t = tag -> (
        match decode payload with
        | Ok x -> go (x :: acc) rest
        | Error e -> if lenient then Ok (List.rev acc) else Error e)
    | (t, _) :: rest ->
        if lenient then go acc rest
        else Error (Printf.sprintf "%s: unknown record tag %S" name t)
  in
  go [] records

let meta_tag = "meta"
let case_tag = "case"

module Make (C : CODEC) = struct
  type meta = C.meta
  type case = C.case

  let case_record c = (case_tag, payload (C.case_fields c))

  (* Record-list decode: meta first, then cases. [lenient] (salvage may
     have kept a record whose bytes checksum but whose payload predates a
     format change) behaves as in {!decode_records}. *)
  let decode ~lenient records =
    match records with
    | [] -> Error (C.name ^ ": empty container (no meta record)")
    | (tag, _) :: _ when tag <> meta_tag ->
        Error (Printf.sprintf "%s: expected %S first, got %S" C.name meta_tag tag)
    | (_, payload) :: rest ->
        let* meta = C.meta_of_fields (parse_fields C.name payload) in
        let* cs =
          decode_records ~name:C.name ~tag:case_tag ~lenient
            (fun p -> C.case_of_fields (parse_fields C.name p))
            rest
        in
        Ok ((meta, cs), None)

  let container =
    {
      Durable.kind = C.kind;
      noun = C.noun;
      units = ("case", "cases");
      count = (fun (_, cs) -> List.length cs);
      counted = true;
      encode =
        (fun (meta, cs) ->
          (meta_tag, payload (C.meta_fields meta)) :: List.map case_record cs);
      decode;
    }

  (* Only a contiguous index prefix 0..k-1 is trustworthy for resume:
     anything after a gap was appended out of order (impossible in a
     healthy run) and is dropped. *)
  let contiguous_prefix cases =
    let rec go next acc = function
      | c :: rest when C.index c = next -> go (next + 1) (c :: acc) rest
      | _ -> List.rev acc
    in
    go 0 [] cases

  type t = { fd : Unix.file_descr; mutable closed : bool }

  let wrap_io path f =
    match f () with
    | v -> Ok v
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s %s: %s" C.name path (Unix.error_message e))
    | exception Sys_error e -> Error (Printf.sprintf "%s %s: %s" C.name path e)

  (* Truncate [path] to exactly [bytes], positioned for appending. *)
  let open_with path bytes =
    wrap_io path (fun () ->
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        A.write_exact fd bytes;
        { fd; closed = false })

  let create ~path meta = open_with path (Durable.bytes container (meta, []))

  (* Meta identity is equality of the encoded fields, so a hex-float
     knob compares bit-exactly. *)
  let meta_diffs stored meta =
    let stored = C.meta_fields stored in
    List.filter_map
      (fun (k, v) ->
        let old = Option.value (List.assoc_opt k stored) ~default:"" in
        if sanitize old = sanitize v then None
        else Some (Printf.sprintf "%s: ledger %s, requested %s" k old v))
      (C.meta_fields meta)

  let resume ~path meta =
    if (not (Sys.file_exists path)) || (Unix.stat path).Unix.st_size = 0 then
      Result.map (fun t -> (t, [])) (create ~path meta)
    else
      let* (stored, cases), _ =
        Result.map_error
          (Printf.sprintf "%s %s: %s" C.name path)
          (Durable.recover container path)
      in
      match meta_diffs stored meta with
      | _ :: _ as diffs ->
          Error
            (Printf.sprintf "%s %s: campaign mismatch (%s)" C.name path
               (String.concat "; " diffs))
      | [] ->
          (* Rebuild the exact byte prefix an uninterrupted run would
             have at this point — covers torn tails, undecodable-but-
             checksummed records, and out-of-order survivors alike. *)
          let cases = contiguous_prefix cases in
          Result.map
            (fun t -> (t, cases))
            (open_with path (Durable.bytes container (meta, cases)))

  let append t c =
    if t.closed then invalid_arg (String.capitalize_ascii C.name ^ ".append: closed");
    A.write_exact t.fd (A.record_string (case_record c))

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  let load = Durable.load container
end
