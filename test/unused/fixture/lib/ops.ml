let ( let* ) = Option.bind
