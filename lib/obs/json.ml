type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- printing ---------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec clean s i = i >= String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let escape buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
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

(* The same digits as [string_of_int], without going through C's printf. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* The C primitive behind [Printf.sprintf "%.Ng"]: same bytes, without the
   format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Digits 13-17 of a [%.17g] string, counted from its first non-zero
   digit and read as one integer in [0, 99999]; [-1] when the string has
   at most 12 digits. *)
let tail_digits s =
  let len = String.length s in
  let rec go i n tail =
    if i < len && String.unsafe_get s i <> 'e' then
      match String.unsafe_get s i with
      | '0' .. '9' as c when n > 0 || c <> '0' ->
        let n = n + 1 in
        go (i + 1) n (if n > 12 then (tail * 10) + Char.code c - Char.code '0' else tail)
      | _ -> go (i + 1) n tail
    else if n <= 12 then -1
    else pad n tail
  and pad n tail = if n >= 17 then tail else pad (n + 1) (tail * 10) in
  go 0 0 0

(* [%.12g] when that string reads back as [x], otherwise [%.17g] (which
   always does). Not the shortest round-tripping form: the two fixed
   precisions are the output contract.

   [%.17g] is formatted first, and [%.12g] only when it can differ and
   round-trip:
   - a [%.17g] string of at most 12 digits has exponent -4..11 in plain
     notation, or lies outside -4..16 in exponent notation; [%.12g]
     prints the same digits the same way, so it is the answer;
   - for a normal double, if the 12-digit decimal [d12] reads back as [x]
     then [|x - d12| <= ulp x / 2], which is under 12 units of the 17th
     significant digit; so digits 13-17 of the [%.17g] string sit within
     12 of [00000] or [99999], well inside the margin of 100 used here.
     Subnormals have a larger relative ulp and always try [%.12g]. *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else begin
    let s17 = format_float "%.17g" x in
    let tail = tail_digits s17 in
    if tail < 0 then s17
    else if Float.abs x >= Float.min_float && tail > 100 && tail < 99_900 then s17
    else
      let s12 = format_float "%.12g" x in
      if float_of_string s12 = x then s12 else s17
  end

(* 10^0 .. 10^22, every one an exact double *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14;
     1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let ipow10 = Array.init 18 (fun p -> int_of_float pow10.(p))

(* [ax >= 10^j] exactly, for [-22 <= j <= 22]. Below 0 the product
   [ax * 10^-j] is compared with 1 through its exact residual. *)
let[@inline] at_least_pow10 ax j =
  if j >= 0 then ax >= pow10.(j)
  else
    let p = pow10.(-j) in
    let hi = ax *. p in
    hi > 1.0 || (hi = 1.0 && Float.fma ax p (-1.0) >= 0.0)

(* [floor (log10 ax)] for a positive normal [ax] in (1e-7, 1e17): the
   binary exponent [e] puts it at [floor (e log10 2)] or one more *)
let[@inline] decimal_exponent ax =
  let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float ax) 52) - 1023 in
  let k = (e * 78913) asr 18 in
  if at_least_pow10 ax (k + 1) then k + 1 else k

let rec trailing_zeros n = if n mod 10 = 0 then 1 + trailing_zeros (n / 10) else 0

(* The [w] digits of [n], with a '.' after the first [point] of them. *)
let rec add_digits_point buf n w point =
  if w > 1 then add_digits_point buf (n / 10) (w - 1) point;
  if w = point + 1 then Buffer.add_char buf '.';
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* [float_repr x] into [buf], without C's printf for the common case: a
   finite [x] with [k = floor (log10 |x|)] in [-6, 16]. There
   [|x| * 10^(16-k)] lies in [10^16, 10^17), and [10^(16-k)] is an exact
   double, so the product is exactly [hi + lo] (the [fma] residual) with
   [hi] an integer; rounding it half to even gives the 17 significant
   digits [d] that glibc's [%.17g] prints, laid out the way [%g] lays
   them out. A value whose digits 13-17 are within 100 of [00000] or
   [99999] may have a [%.12g] form that reads back (see [float_repr]),
   and goes through [float_repr]; so do subnormals, values outside the
   range and non-finite ones. *)
let add_float buf x =
  let ax = Float.abs x in
  if x = 0.0 then Buffer.add_string buf (if Float.sign_bit x then "-0" else "0")
  else if not (ax > 1e-7 && ax < 1e17) then Buffer.add_string buf (float_repr x)
  else begin
    let k = decimal_exponent ax in
    if k < -6 then Buffer.add_string buf (float_repr x)
    else begin
      let scale = pow10.(16 - k) in
      let hi = ax *. scale in
      let lo = Float.fma ax scale (-.hi) in
      let floor_lo = Float.floor lo in
      let d = int_of_float hi + int_of_float floor_lo in
      let frac = lo -. floor_lo in
      let d = if frac > 0.5 || (frac = 0.5 && d land 1 = 1) then d + 1 else d in
      let carry = d = ipow10.(17) in
      let d = if carry then ipow10.(16) else d in
      let k = if carry then k + 1 else k in
      let fixed = k >= -4 && k < 17 in
      let nd = 17 - trailing_zeros d in
      let shown = if fixed && k >= nd then k + 1 else nd in
      let tail = d mod 100_000 in
      if shown > 12 && (tail <= 100 || tail >= 99_900) then
        Buffer.add_string buf (float_repr x)
      else begin
        if x < 0.0 then Buffer.add_char buf '-';
        let digits = d / ipow10.(17 - nd) in
        if not fixed then begin
          add_digits_point buf digits nd 1;
          Buffer.add_string buf (if k < 0 then "e-0" else "e+");
          add_digits buf (abs k)
        end
        else if k < 0 then begin
          Buffer.add_string buf "0.";
          for _ = 2 to -k do
            Buffer.add_char buf '0'
          done;
          add_digits buf digits
        end
        else if k >= nd then add_digits buf (d / ipow10.(16 - k))
        else add_digits_point buf digits nd (k + 1)
      end
    end
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float x -> add_float buf x
  | String s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc j;
      output_char oc '\n')

(* ---------- parsing (strict subset, enough to validate our output) ---------- *)

(* The parser reads [src.[base .. stop - 1]]; error offsets count from
   [base], so a slice fails with the message its text alone would. *)
type cursor = { src : string; mutable pos : int; base : int; stop : int }

let fail c msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" (c.pos - c.base) msg))

let at_end c = c.pos >= c.stop

(* The char under the cursor; only call it when [not (at_end c)]. *)
let peek c = c.src.[c.pos]

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  if not (at_end c) then
    match peek c with
    | ' ' | '\t' | '\n' | '\r' ->
      advance c;
      skip_ws c
    | _ -> ()

let expect c ch =
  if at_end c then fail c (Printf.sprintf "expected %c, found end of input" ch)
  else if peek c = ch then advance c
  else fail c (Printf.sprintf "expected %c, found %c" ch (peek c))

let literal c word value =
  let n = String.length word in
  let rec same i = i = n || (c.src.[c.pos + i] = word.[i] && same (i + 1)) in
  if c.pos + n <= c.stop && same 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as h -> Char.code h - Char.code '0'
  | 'a' .. 'f' as h -> Char.code h - Char.code 'a' + 10
  | 'A' .. 'F' as h -> Char.code h - Char.code 'A' + 10
  | _ -> -1

(* The code of the four hex digits at [i], or a negative number. *)
let hex4 s i =
  let d k = hex_digit s.[i + k] in
  let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
  if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 then -1
  else (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

(* End of the run of plain string chars starting at [i]. *)
let rec run_end c i =
  if i < c.stop && c.src.[i] <> '"' && c.src.[i] <> '\\' then run_end c (i + 1) else i

(* The rest of a string that holds an escape, from the cursor on. *)
let parse_escaped c =
  let buf = Buffer.create 16 in
  let rec loop () =
    let stop = run_end c c.pos in
    Buffer.add_substring buf c.src c.pos (stop - c.pos);
    c.pos <- stop;
    if at_end c then fail c "unterminated string"
    else if peek c = '"' then advance c
    else begin
      advance c;
      if at_end c then fail c "unterminated escape";
      let e = peek c in
      advance c;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        if c.pos + 4 > c.stop then fail c "bad \\u escape";
        let code = hex4 c.src c.pos in
        if code < 0 then fail c "bad \\u escape";
        c.pos <- c.pos + 4;
        (* non-ASCII code points are preserved as UTF-8 *)
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
      | _ -> fail c "unknown escape");
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

(* A string token; one with no escape is [copy src start len]. *)
let parse_run c copy =
  expect c '"';
  let start = c.pos in
  let stop = run_end c start in
  if stop < c.stop && c.src.[stop] = '"' then begin
    c.pos <- stop + 1;
    copy c.src start (stop - start)
  end
  else parse_escaped c

let parse_string c = parse_run c String.sub

(* Object keys repeat: a report spells its few keys thousands of times.
   Each domain keeps the last key seen in each of [key_slots] hash
   slots, and a key equal to its slot's shares that string. It is still
   a copy, never the input's own bytes. *)
let key_slots = 64

let key_cache = Domain.DLS.new_key (fun () -> Array.make key_slots "")

let rec same_bytes src start key i =
  i >= String.length key
  || (String.unsafe_get src (start + i) = String.unsafe_get key i
     && same_bytes src start key (i + 1))

let intern src start len =
  let h = ref 0 in
  for i = start to start + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get src i)
  done;
  let keys = Domain.DLS.get key_cache in
  let slot = !h land (key_slots - 1) in
  let cached = keys.(slot) in
  if String.length cached = len && same_bytes src start cached 0 then cached
  else begin
    let key = String.sub src start len in
    keys.(slot) <- key;
    key
  end

let parse_key c = parse_run c intern

let is_digit ch = ch >= '0' && ch <= '9'

let rec digits_end s i stop = if i < stop && is_digit s.[i] then digits_end s (i + 1) stop else i

let char_at s stop i ch = i < stop && s.[i] = ch

(* The end of one or more digits from [i]; past [stop] (never valid)
   when there are none. *)
let some_digits s stop i =
  let j = digits_end s i stop in
  if j > i then j else stop + 1

(* RFC 8259 over [s.[start .. stop - 1]]:
   [-? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?]. No local
   closures: this runs once per number. *)
let valid_number s start stop =
  let i = if char_at s stop start '-' then start + 1 else start in
  let i = if char_at s stop i '0' then i + 1 else some_digits s stop i in
  let i = if char_at s stop i '.' then some_digits s stop (i + 1) else i in
  let i =
    if char_at s stop i 'e' || char_at s stop i 'E' then
      some_digits s stop
        (if char_at s stop (i + 1) '+' || char_at s stop (i + 1) '-' then i + 2 else i + 1)
    else i
  in
  i = stop

let rec decimal s i stop acc =
  if i >= stop then acc else decimal s (i + 1) stop ((acc * 10) + Char.code s.[i] - Char.code '0')

(* [float_of_string] of [src.[start .. start + len - 1]]. A token of up
   to [scratch_max] bytes is copied into this domain's scratch of its
   length, which is read only during the call: no string per number. *)
let scratch_max = 32

let scratch = Domain.DLS.new_key (fun () -> Array.init (scratch_max + 1) Bytes.create)

let float_token src start len =
  if len > scratch_max then float_of_string (String.sub src start len)
  else begin
    let b = (Domain.DLS.get scratch).(len) in
    Bytes.blit_string src start b 0 len;
    float_of_string (Bytes.unsafe_to_string b)
  end

let bad_number c start =
  fail c (Printf.sprintf "bad number %S" (String.sub c.src start (c.pos - start)))

(* A valid token without [.], [e] or [E] is an [Int] when it fits one;
   up to 18 digits always do, and are read in place. *)
let parse_number c =
  let start = c.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (not (at_end c)) && is_number_char (peek c) do
    advance c
  done;
  let stop = c.pos in
  if not (valid_number c.src start stop) then bad_number c start
  else begin
    let neg = c.src.[start] = '-' in
    let first = if neg then start + 1 else start in
    let integer = digits_end c.src first stop = stop in
    if integer && stop - first <= 18 then
      let v = decimal c.src first stop 0 in
      Int (if neg then -v else v)
    else
      match
        if integer then int_of_string_opt (String.sub c.src start (stop - start)) else None
      with
      | Some i -> Int i
      | None ->
        let x = float_token c.src start (stop - start) in
        if Float.is_finite x then Float x else bad_number c start
  end

(* A list is built in order by plain recursion, one stack frame per
   element, and only a list longer than [direct_length] continues with
   an accumulator that is reversed at the end: no garbage list for most
   documents, and a stack that stays shallow for any frame. Neither way
   writes into a cell already allocated. Built in place instead
   ([tail_mod_cons]), a list that a minor collection interrupts gets
   its later cells written into a promoted one, so the next collection
   promotes the rest of the document through the remembered set even
   when it is already dead. *)
let direct_length = 4096

(* After a member: [true] past a comma, [false] past [close]. *)
let list_next c close msg =
  skip_ws c;
  if at_end c then fail c msg;
  match peek c with
  | ',' ->
    advance c;
    true
  | ch when ch = close ->
    advance c;
    false
  | _ -> fail c msg

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match peek c with
  | '"' -> String (parse_string c)
  | '{' ->
    advance c;
    skip_ws c;
    if (not (at_end c)) && peek c = '}' then begin
      advance c;
      Obj []
    end
    else Obj (fields c 1)
  | '[' ->
    advance c;
    skip_ws c;
    if (not (at_end c)) && peek c = ']' then begin
      advance c;
      List []
    end
    else List (elements c 1)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character %c" ch)

(* The fields from the cursor to the closing brace, the [n]th first. *)
and fields c n =
  let kv = field c in
  match list_next c '}' "expected , or } in object" with
  | false -> [ kv ]
  | true when n < direct_length -> kv :: fields c (n + 1)
  | true -> kv :: fields_rev c []

and fields_rev c acc =
  let kv = field c in
  if list_next c '}' "expected , or } in object" then fields_rev c (kv :: acc)
  else List.rev (kv :: acc)

and field c =
  skip_ws c;
  let k = parse_key c in
  skip_ws c;
  expect c ':';
  (k, parse_value c)

and elements c n =
  let v = parse_value c in
  match list_next c ']' "expected , or ] in array" with
  | false -> [ v ]
  | true when n < direct_length -> v :: elements c (n + 1)
  | true -> v :: elements_rev c []

and elements_rev c acc =
  let v = parse_value c in
  if list_next c ']' "expected , or ] in array" then elements_rev c (v :: acc)
  else List.rev (v :: acc)

let parse src ~pos ~len =
  let c = { src; pos; base = pos; stop = pos + len } in
  let v = parse_value c in
  skip_ws c;
  if not (at_end c) then fail c "trailing garbage";
  v

let of_string s = parse s ~pos:0 ~len:(String.length s)

let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Json.of_bytes";
  (* read only during the call, and every token is copied out *)
  parse (Bytes.unsafe_to_string b) ~pos ~len

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
