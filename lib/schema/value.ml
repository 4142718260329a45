open Seed_util

type date = { year : int; month : int; day : int }

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Date of date
  | Enum of string

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
