type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------- print -- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no literal for non-finite floats: the old code printed "inf" /
   "nan" here, which [of_string] rejects — a record containing one was
   silently dropped when the store re-read its log.  Non-finite floats are
   instead serialized as the string sentinels ["Infinity"], ["-Infinity"]
   and ["NaN"] (see [emit]), which [get_float] maps back, so the numeric
   view round-trips even though the constructor changes to [String]. *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips; fall back to 17 digits *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    (* a large integral float (2^53, say) prints as bare digits, which
       [of_string] would read back as an [Int] *)
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let nonfinite_sentinel f =
  if Float.is_nan f then Some "NaN"
  else if f = Float.infinity then Some "Infinity"
  else if f = Float.neg_infinity then Some "-Infinity"
  else None

(* [indent = None] is the compact form; [Some pad] pretty-prints. *)
let rec emit buf ~indent ~level = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (match nonfinite_sentinel f with
     | Some sentinel -> escape buf sentinel
     | None -> Buffer.add_string buf (float_literal f))
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    seq buf ~indent ~level '[' ']' (fun buf level item -> emit buf ~indent ~level item) items
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    seq buf ~indent ~level '{' '}'
      (fun buf level (k, v) ->
        escape buf k;
        Buffer.add_string buf (if indent = None then ":" else ": ");
        emit buf ~indent ~level v)
      fields

and seq : 'a. Buffer.t -> indent:string option -> level:int -> char -> char ->
    (Buffer.t -> int -> 'a -> unit) -> 'a list -> unit =
 fun buf ~indent ~level open_ close each items ->
  let pad level =
    match indent with
    | None -> ()
    | Some pad ->
      Buffer.add_char buf '\n';
      for _ = 1 to level do
        Buffer.add_string buf pad
      done
  in
  Buffer.add_char buf open_;
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      pad (level + 1);
      each buf (level + 1) item)
    items;
  pad level;
  Buffer.add_char buf close

let render ~indent json =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 json;
  Buffer.contents buf

let to_string json = render ~indent:None json
let to_string_pretty json = render ~indent:(Some "  ") json

(* ------------------------------------------------------------- parse -- *)

exception Fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           let is_hex = function
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
             | _ -> false
           in
           (* validate before converting: int_of_string accepts OCaml-isms
              (underscores, sign) and raises on garbage, both of which must
              surface as a parse error, not an escaping Failure *)
           if not (String.for_all is_hex hex) then fail "bad \\u escape";
           let code =
             match int_of_string_opt ("0x" ^ hex) with
             | Some code -> code
             | None -> fail "bad \\u escape"
           in
           pos := !pos + 4;
           (* we only emit \u for control characters; decode the BMP point
              as UTF-8 so parse inverts print *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    let consume () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); true
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        true
      | _ -> false
    in
    while consume () do
      ()
    done;
    let lit = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail ("bad float " ^ lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail ("bad number " ^ lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* --------------------------------------------------------- accessors -- *)

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> Null

let get_string = function String s -> Some s | _ -> None
let get_int = function Int i -> Some i | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | String "Infinity" -> Some Float.infinity
  | String "-Infinity" -> Some Float.neg_infinity
  | String "NaN" -> Some Float.nan
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List l -> Some l | _ -> None
