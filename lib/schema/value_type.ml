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
