let () = print_int (Unused_fixture.A.probe ())
