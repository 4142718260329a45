type policy = {
  attempts : int;
  base_delay : float;
  max_delay : float;
  multiplier : float;
}

let default_policy =
  { attempts = 5; base_delay = 0.001; max_delay = 0.1; multiplier = 2.0 }

let delay_for p ~attempt =
  Float.min p.max_delay (p.base_delay *. (p.multiplier ** float_of_int (attempt - 1)))

let transient_only = function Seed_error.Io_transient _ -> true | _ -> false

let with_deadline ?(policy = default_policy) ?(sleep = Unix.sleepf)
    ?(now = Unix.gettimeofday) ?(should_retry = transient_only)
    ?(on_retry = fun ~attempt:_ _ -> ()) ~deadline f =
  let harden = function
    | Seed_error.Io_transient m ->
      Error
        (Seed_error.Io_error (Printf.sprintf "deadline exceeded retrying: %s" m))
    | e -> Error e
  in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e when should_retry e ->
      (* the next delay must fit before the deadline: sleeping past it
         would retry on borrowed time, so the tail of the window is
         spent on one final shortened wait instead *)
      let t = now () in
      if t >= deadline then harden e
      else begin
        on_retry ~attempt e;
        (* the delay curve saturates; freezing the exponent keeps the
           attempt index from overflowing on very long deadlines *)
        let d = delay_for policy ~attempt:(min attempt 32) in
        let d = Float.min d (deadline -. t) in
        if d > 0.0 then sleep d;
        go (attempt + 1)
      end
    | Error _ as err -> err
  in
  go 1

let with_retry ?(sleep = Unix.sleepf) ?(should_retry = transient_only)
    ?(on_retry = fun ~attempt:_ _ -> ()) f =
  let attempts = default_policy.attempts in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e when attempt < attempts && should_retry e ->
      on_retry ~attempt e;
      let d = delay_for default_policy ~attempt in
      if d > 0.0 then sleep d;
      go (attempt + 1)
    | Error (Seed_error.Io_transient m) ->
      (* out of attempts: harden the error so Io_transient never escapes *)
      Error (Seed_error.Io_error (Printf.sprintf "giving up after %d attempts: %s" attempts m))
    | Error _ as err -> err
  in
  go 1
