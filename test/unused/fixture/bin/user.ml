open Unused_fixture
module Keys = Set.Make (Key)

let () =
  let open Ops in
  let sum =
    let* x = Some B.shared in
    Some (x + Keys.cardinal (Keys.singleton 0))
  in
  print_int (Option.get sum)
