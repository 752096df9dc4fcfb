(* Tests for Armvirt_stats: summaries, counters and the barriered cycle
   counter. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Summary = Armvirt_stats.Summary
module Counter = Armvirt_stats.Counter
module Cycle_counter = Armvirt_stats.Cycle_counter

(* --- Summary ------------------------------------------------------- *)

let test_summary_basics () =
  let s = Summary.of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "count" 3 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Summary.mean s);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Summary.median s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Summary.max s)

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty sample")
    (fun () -> ignore (Summary.of_list []))

let test_summary_singleton () =
  let s = Summary.of_list [ 5.0 ] in
  Alcotest.(check (float 1e-9)) "stddev zero" 0.0 (Summary.stddev s);
  Alcotest.(check (float 1e-9)) "p99 = value" 5.0 (Summary.percentile s 99.0)

let test_summary_cv () =
  (* Regression for the explicit Float.equal zero-mean guard. *)
  let z = Summary.of_list [ -1.0; 1.0 ] in
  Alcotest.(check (float 1e-9)) "zero-mean guard" 0.0
    (Summary.coefficient_of_variation z);
  let s = Summary.of_list [ 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "cv = stddev/mean"
    (Summary.stddev s /. 3.0)
    (Summary.coefficient_of_variation s)

let test_summary_percentiles () =
  let s = Summary.of_list (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-6)) "p0" 0.0 (Summary.percentile s 0.0);
  Alcotest.(check (float 1e-6)) "p50" 50.0 (Summary.percentile s 50.0);
  Alcotest.(check (float 1e-6)) "p100" 100.0 (Summary.percentile s 100.0);
  Alcotest.(check (float 1e-6)) "p25" 25.0 (Summary.percentile s 25.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Summary.percentile: out of range") (fun () ->
      ignore (Summary.percentile s 101.0))

let test_summary_stddev () =
  (* Sample [2;4;4;4;5;5;7;9]: sample stddev = sqrt(32/7). *)
  let s = Summary.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check (float 1e-6)) "sample stddev" (sqrt (32.0 /. 7.0))
    (Summary.stddev s)

let test_summary_ci95_student_t () =
  (* n = 4 < 30: the half-width must use t(0.975, df=3) = 3.182, not
     z = 1.96. Sample [1;2;3;4]: mean 2.5, sample sd = sqrt(5/3). *)
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  let lo, hi = Summary.ci95 s in
  let sd = sqrt (5.0 /. 3.0) in
  let half = 3.182 *. sd /. 2.0 in
  Alcotest.(check (float 1e-6)) "lower" (2.5 -. half) lo;
  Alcotest.(check (float 1e-6)) "upper" (2.5 +. half) hi;
  (* n = 2, the widest interval: t(0.975, df=1) = 12.706. *)
  let s2 = Summary.of_list [ 10.0; 20.0 ] in
  let lo2, hi2 = Summary.ci95 s2 in
  let half2 = 12.706 *. Summary.stddev s2 /. sqrt 2.0 in
  Alcotest.(check (float 1e-6)) "n=2 lower" (15.0 -. half2) lo2;
  Alcotest.(check (float 1e-6)) "n=2 upper" (15.0 +. half2) hi2

let test_summary_ci95_normal_for_large_n () =
  (* n >= 30 keeps the normal approximation: half = 1.96 * sd / sqrt n. *)
  let values = List.init 30 (fun i -> float_of_int i) in
  let s = Summary.of_list values in
  let lo, hi = Summary.ci95 s in
  let half = 1.96 *. Summary.stddev s /. sqrt 30.0 in
  Alcotest.(check (float 1e-6)) "half-width" half ((hi -. lo) /. 2.0);
  Alcotest.(check (float 1e-6)) "centered on mean" (Summary.mean s)
    ((hi +. lo) /. 2.0)

let test_summary_of_cycles () =
  let s = Summary.of_cycles [ Cycles.of_int 10; Cycles.of_int 20 ] in
  Alcotest.(check int) "median cycles" 15
    (Cycles.to_int (Summary.median_cycles s))

let prop_summary_median_bounded =
  QCheck.Test.make ~name:"median between min and max"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun values ->
      let s = Summary.of_list values in
      Summary.min s <= Summary.median s && Summary.median s <= Summary.max s)

let prop_summary_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 2 50) (float_bound_inclusive 1000.0))
        (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun (values, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let s = Summary.of_list values in
      Summary.percentile s lo <= Summary.percentile s hi +. 1e-9)

(* --- Counter ------------------------------------------------------- *)

let test_counter_accumulation () =
  let set = Counter.create_set () in
  Counter.incr set "traps";
  Counter.incr set "traps";
  Counter.add set "cycles" 100;
  Counter.add_cycles set "cycles" (Cycles.of_int 23);
  Alcotest.(check int) "incr" 2 (Counter.get set "traps");
  Alcotest.(check int) "add" 123 (Counter.get set "cycles");
  Alcotest.(check int) "untouched" 0 (Counter.get set "nothing");
  Alcotest.(check (list string)) "names sorted" [ "cycles"; "traps" ]
    (Counter.names set);
  Counter.reset set;
  Alcotest.(check int) "reset" 0 (Counter.get set "traps")

(* --- Cycle_counter -------------------------------------------------- *)

let test_cycle_counter_measure () =
  let sim = Sim.create () in
  let measured = ref Cycles.zero in
  Sim.spawn sim ~name:"measurer" (fun () ->
      let counter = Cycle_counter.create ~barrier_cost:(Cycles.of_int 24) in
      measured :=
        Cycle_counter.measure counter (fun () -> Sim.delay (Cycles.of_int 500)));
  Sim.run sim;
  (* The trailing barrier is subtracted; the measured work is exact. *)
  Alcotest.(check int) "measures the operation alone" 500
    (Cycles.to_int !measured)

let test_cycle_counter_read_pays_barrier () =
  let sim = Sim.create () in
  let t = ref Cycles.zero in
  Sim.spawn sim ~name:"reader" (fun () ->
      let counter = Cycle_counter.create ~barrier_cost:(Cycles.of_int 24) in
      t := Cycle_counter.read counter);
  Sim.run sim;
  Alcotest.(check int) "barrier consumed simulated time" 24 (Cycles.to_int !t)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "coefficient of variation" `Quick
            test_summary_cv;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "ci95 Student-t for small n" `Quick
            test_summary_ci95_student_t;
          Alcotest.test_case "ci95 normal for large n" `Quick
            test_summary_ci95_normal_for_large_n;
          Alcotest.test_case "of_cycles" `Quick test_summary_of_cycles;
        ]
        @ qcheck [ prop_summary_median_bounded; prop_summary_percentile_monotone ]
      );
      ("counter", [ Alcotest.test_case "accumulation" `Quick test_counter_accumulation ]);
      ( "cycle_counter",
        [
          Alcotest.test_case "measure subtracts overhead" `Quick
            test_cycle_counter_measure;
          Alcotest.test_case "read pays barrier" `Quick
            test_cycle_counter_read_pays_barrier;
        ] );
    ]
