open Seed_util

type t = String | Int | Float | Bool | Date | Enum of string list

let equal a b =
  match (a, b) with
  | String, String | Int, Int | Float, Float | Bool, Bool | Date, Date -> true
  | Enum xs, Enum ys -> List.equal String.equal xs ys
  | (String | Int | Float | Bool | Date | Enum _), _ -> false

let to_string = function
  | String -> "STRING"
  | Int -> "INT"
  | Float -> "FLOAT"
  | Bool -> "BOOL"
  | Date -> "DATE"
  | Enum cs -> Printf.sprintf "ENUM(%s)" (String.concat "," cs)

let of_string s =
  match s with
  | "STRING" -> Ok String
  | "INT" -> Ok Int
  | "FLOAT" -> Ok Float
  | "BOOL" -> Ok Bool
  | "DATE" -> Ok Date
  | _ ->
    let n = String.length s in
    if n > 6 && String.sub s 0 5 = "ENUM(" && s.[n - 1] = ')' then
      let inner = String.sub s 5 (n - 6) in
      let cases = String.split_on_char ',' inner in
      if List.exists (String.equal "") cases then
        Seed_error.fail (Seed_error.Schema_violation ("bad value type: " ^ s))
      else Ok (Enum cases)
    else Seed_error.fail (Seed_error.Schema_violation ("bad value type: " ^ s))
