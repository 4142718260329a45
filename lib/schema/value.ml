open Seed_util

type date = { year : int; month : int; day : int }

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Date of date
  | Enum of string

let equal a b =
  match (a, b) with
  | String x, String y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Date x, Date y -> x = y
  | Enum x, Enum y -> String.equal x y
  | (String _ | Int _ | Float _ | Bool _ | Date _ | Enum _), _ -> false

let compare a b =
  let rank = function
    | String _ -> 0
    | Int _ -> 1
    | Float _ -> 2
    | Bool _ -> 3
    | Date _ -> 4
    | Enum _ -> 5
  in
  match (a, b) with
  | String x, String y -> String.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | Enum x, Enum y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let to_string = function
  | String s -> Printf.sprintf "%S" s
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Bool b -> string_of_bool b
  | Date d -> Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day
  | Enum c -> c


let type_name = function
  | String _ -> "STRING"
  | Int _ -> "INT"
  | Float _ -> "FLOAT"
  | Bool _ -> "BOOL"
  | Date _ -> "DATE"
  | Enum _ -> "ENUM"

let days_in_month year month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 ->
    let leap = (year mod 4 = 0 && year mod 100 <> 0) || year mod 400 = 0 in
    if leap then 29 else 28
  | _ -> 0

let date year month day =
  if month < 1 || month > 12 || day < 1 || day > days_in_month year month then
    invalid_arg
      (Printf.sprintf "Value.date: not a calendar date: %d-%d-%d" year month
         day);
  Date { year; month; day }

let check ty v =
  let mismatch () =
    Seed_error.fail
      (Seed_error.Type_mismatch
         { expected = Value_type.to_string ty; got = type_name v })
  in
  match (ty, v) with
  | Value_type.String, String _
  | Value_type.Int, Int _
  | Value_type.Float, Float _
  | Value_type.Bool, Bool _
  | Value_type.Date, Date _ ->
    Ok ()
  | Value_type.Enum cases, Enum c ->
    if List.exists (String.equal c) cases then Ok ()
    else
      Seed_error.fail
        (Seed_error.Type_mismatch
           { expected = Value_type.to_string ty; got = "ENUM constant " ^ c })
  | (Value_type.String | Int | Float | Bool | Date | Enum _), _ -> mismatch ()
