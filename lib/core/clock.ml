let now_ns () = Int64.to_int (Monotonic_clock.now ())
