type t = {
  mean_gap_ns : float;
  rng : Random.State.t;
  mutable clock_ns : float;
}

let create ~rate_mops ~seed =
  if rate_mops <= 0.0 then invalid_arg "Load_gen.create: rate must be > 0";
  {
    mean_gap_ns = 1000.0 /. rate_mops;
    rng = Random.State.make [| seed; 0xA9 |];
    clock_ns = 0.0;
  }

let next_arrival t =
  (* Poisson arrivals: exponential inter-arrival gaps. [1 - u] keeps the
     log argument away from 0 ([Random.State.float] can return 0). *)
  let u = Random.State.float t.rng 1.0 in
  t.clock_ns <- t.clock_ns -. (t.mean_gap_ns *. log (1.0 -. u));
  t.clock_ns
