(* The one durable-container contract: strict load, lenient salvage and
   repair-or-move-aside, written once over a kind's record decoder. *)

module A = Artifact

let ( let* ) = Result.bind

type 'a t = {
  kind : string;
  noun : string;
  units : string * string;
  count : 'a -> int;
  counted : bool;
  encode : 'a -> (string * string) list;
  decode :
    lenient:bool ->
    (string * string) list ->
    ('a * string option, string) result;
}

type any = Any : 'a t -> any

let bytes c v = A.container ~kind:c.kind (c.encode v)
let write c path v = A.write_file path (bytes c v)

let wrong_kind c k = Printf.sprintf "%s: unexpected artifact kind %S" c.noun k

(* A salvage with no error parsed the whole file, so it has a kind. *)
let load c path =
  let* text = A.read_file path in
  match A.salvage_string text with
  | { A.error = Some e; _ } -> Error e
  | { A.kind = Some k; _ } when k <> c.kind -> Error (wrong_kind c k)
  | { A.records; _ } -> Result.map fst (c.decode ~lenient:false records)

let recover c path =
  let* text = A.read_file path in
  let s = A.salvage_string text in
  match s.A.kind with
  | None ->
      Error
        (Printf.sprintf "%s: not a container (%s)" c.noun
           (Option.value s.A.error ~default:""))
  | Some k when k <> c.kind -> Error (wrong_kind c k)
  | Some _ -> (
      (* Every record decoded exactly when the strict decode succeeds. *)
      let whole =
        if s.A.error <> None then None
        else Result.to_option (c.decode ~lenient:false s.A.records)
      in
      match whole with
      | Some (value, _) -> Ok (value, None)
      | None ->
          let* value, remark = c.decode ~lenient:true s.A.records in
          Ok
            ( value,
              Some
                (Printf.sprintf "salvaged %d of %d bytes (%d %s)%s%s"
                   s.A.valid_bytes s.A.total_bytes (c.count value)
                   (snd c.units)
                   (match s.A.error with Some e -> ": " ^ e | None -> "")
                   (match remark with Some r -> "; " ^ r | None -> "")) ))

type 'a status = Intact of 'a | Salvaged of 'a * string | Unrecoverable of string

let check c path =
  match load c path with
  | Ok v -> Intact v
  | Error strict -> (
      match recover c path with
      | Ok (v, note) -> Salvaged (v, Option.value note ~default:strict)
      | Error e -> Unrecoverable e)

let aside path = path ^ ".corrupt"
let move_aside path = try Sys.rename path (aside path) with Sys_error _ -> ()

let repair c path =
  let status = check c path in
  (match status with
  | Intact _ -> ()
  | Salvaged (v, _) -> write c path v
  | Unrecoverable _ -> move_aside path);
  status

let header_kind text =
  if not (A.is_container text) then Ok None
  else
    match A.salvage_string text with
    | { A.kind = Some k; _ } -> Ok (Some k)
    | { A.error; _ } -> Error (Option.value error ~default:"bad header")

let single ~kind ~noun ~tag ~encode ~decode =
  {
    kind;
    noun;
    units = ("record", "records");
    count = (fun _ -> 1);
    counted = false;
    encode = (fun v -> [ (tag, encode v) ]);
    decode =
      (fun ~lenient records ->
        match records with
        | (t, payload) :: rest when t = tag && (lenient || rest = []) ->
            Result.map (fun v -> (v, None)) (decode payload)
        | _ -> Error (Printf.sprintf "%s: expected one %S record" noun tag));
  }
