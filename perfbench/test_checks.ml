(* Negative controls for the benchmark's output checks: each check is
   handed a right answer, which it must accept, and a wrong one, which it
   must reject. The soak's lag recomputation is also held against the
   engine's own convergence-lag checker on the same event stream. *)

open Repro_engine
open Repro_discovery
module Checks = Perfbench.Checks

let failures = ref 0

let expect name ~ok (outcome : Checks.outcome) =
  match (ok, outcome) with
  | true, Ok () | false, Error _ -> Printf.printf "ok    %s\n" name
  | true, Error e ->
    incr failures;
    Printf.printf "FAIL  %s: rejected a right answer: %s\n" name e
  | false, Ok () ->
    incr failures;
    Printf.printf "FAIL  %s: accepted a wrong answer\n" name

(* n nodes that each know every id, except that [missing] (node, id)
   pairs are left out *)
let knowledge ~n ~missing =
  let labels = Array.init n Fun.id in
  Array.init n (fun v ->
      let k = Knowledge.create ~n ~owner:v ~labels () in
      for id = 0 to n - 1 do
        if not (List.mem (v, id) missing) then ignore (Knowledge.add k id)
      done;
      Some k)

let test_knowledge () =
  let n = 64 in
  expect "knowledge: every node knows all n ids" ~ok:true
    (Checks.knowledge_complete ~n (knowledge ~n ~missing:[]));
  expect "knowledge: a node missing one id" ~ok:false
    (Checks.knowledge_complete ~n (knowledge ~n ~missing:[ (17, 40) ]));
  let ks = knowledge ~n ~missing:[] in
  ks.(3) <- None;
  expect "knowledge: a node never instantiated" ~ok:false (Checks.knowledge_complete ~n ks)

let test_discovery_run () =
  expect "sends = deliveries + drops" ~ok:true (Checks.sends_balance ~sent:10 ~delivered:8 ~dropped:2);
  expect "sends one more than deliveries + drops" ~ok:false
    (Checks.sends_balance ~sent:11 ~delivered:8 ~dropped:2);
  expect "completion round 7 at n = 2048" ~ok:true (Checks.sublogarithmic ~n:2048 ~lag_max:7);
  expect "completion round log2 n at n = 2048" ~ok:false (Checks.sublogarithmic ~n:2048 ~lag_max:11);
  expect "last completion in the final round" ~ok:true
    (Checks.last_completion_is_final_round ~rounds:7 [| 5; 7; 6 |]);
  expect "last completion before the final round" ~ok:false
    (Checks.last_completion_is_final_round ~rounds:7 [| 5; 6; 6 |]);
  expect "every node reports a complete_tick" ~ok:true (Checks.every_node_completes [| Some 4; Some 6 |]);
  expect "a node without a complete_tick" ~ok:false (Checks.every_node_completes [| Some 4; None |])

let test_mux () =
  let oracle = { Checks.time = 7.25; messages = 24_000; pointers = 900_000; bytes = 1_500_000 } in
  expect "mux equals the oracle" ~ok:true (Checks.mux_matches_oracle ~mux:oracle ~oracle);
  expect "mux one message off the oracle" ~ok:false
    (Checks.mux_matches_oracle ~mux:{ oracle with messages = oracle.messages + 1 } ~oracle);
  expect "mux virtual time off the oracle" ~ok:false
    (Checks.mux_matches_oracle ~mux:{ oracle with time = 7.5 } ~oracle)

let test_lag_bound () =
  expect "lag samples within the bound" ~ok:true (Checks.lag_within ~bound:64.0 [| 0; 12; 64 |]);
  expect "a lag sample past the bound" ~ok:false (Checks.lag_within ~bound:64.0 [| 0; 12; 65 |])

(* A small soak-shaped event stream: four founders, then a crash, a join
   and a leave, with convergence reports arriving ticks later. *)
let stream =
  let ticks t live = List.map (fun node -> Trace.Tick { node; time = t; count = int_of_float t }) live in
  List.concat
    [
      List.map (fun node -> Trace.Join { node }) [ 0; 1; 2; 3 ];
      ticks 1.0 [ 0; 1; 2; 3 ];
      [ Trace.Crash { node = 2 } ];
      ticks 2.0 [ 0; 1; 3 ];
      [ Trace.Converge { node = 0; epoch = 1 }; Trace.Join { node = 4 } ];
      ticks 3.0 [ 0; 1; 3; 4 ];
      [ Trace.Converge { node = 1; epoch = 2 }; Trace.Converge { node = 4; epoch = 2 } ];
      ticks 4.0 [ 0; 1; 3; 4 ];
      [ Trace.Converge { node = 3; epoch = 2 }; Trace.Converge { node = 0; epoch = 2 } ];
      ticks 5.0 [ 0; 1; 3; 4 ];
      [ Trace.Leave { node = 1 } ];
      ticks 6.0 [ 0; 3; 4 ];
      [ Trace.Converge { node = 0; epoch = 3 }; Trace.Converge { node = 3; epoch = 3 } ];
      ticks 7.0 [ 0; 3; 4 ];
      [ Trace.Converge { node = 4; epoch = 3 } ];
      ticks 8.0 [ 0; 3; 4 ];
    ]

let test_soak_stream () =
  let ours = Checks.Soak_lag.create ~cap:8 in
  let engine = Trace.Lag.create ~bound:64.0 () in
  List.iter
    (fun ev ->
      Checks.Soak_lag.on_event ours ev;
      Trace.emit (Trace.Lag.sink engine) ev)
    stream;
  expect "recomputed max lag equals the engine checker's" ~ok:true
    (Checks.max_lag_agrees ~ours:(Checks.Soak_lag.max_fleet_lag ours) ~reported:(Trace.Lag.max_lag engine));
  expect "epochs counted alike" ~ok:true
    (if Checks.Soak_lag.epochs ours = Trace.Lag.epochs engine && Checks.Soak_lag.open_epochs ours = 0
     then Ok ()
     else Error "epoch counts differ");
  expect "a max lag one tick off" ~ok:false
    (Checks.max_lag_agrees ~ours:(Checks.Soak_lag.max_fleet_lag ours +. 1.0)
       ~reported:(Trace.Lag.max_lag engine));
  let rebuilt = Checks.Soak_lag.live_count ours in
  expect "membership rebuilt from events" ~ok:true (Checks.membership_matches ~rebuilt ~final_live:3);
  expect "a membership count off by one" ~ok:false
    (Checks.membership_matches ~rebuilt ~final_live:(rebuilt + 1));
  (* per-member samples: epoch 1 (crash at t=1) owed by 0, 1, 3; epoch 2
     (join at t=2) owed by 0, 1, 3, 4; epoch 3 (leave at t=5) by 0, 3, 4 *)
  let samples = Checks.Soak_lag.samples ours in
  Array.sort compare samples;
  expect "per-member lag samples" ~ok:true
    (if samples = [| 1; 1; 1; 1; 1; 2; 2; 2; 2; 3 |] then Ok ()
     else
       Error
         (String.concat " " (Array.to_list (Array.map string_of_int samples))));
  let unfinished = Checks.Soak_lag.create ~cap:8 in
  List.iter (Checks.Soak_lag.on_event unfinished)
    (List.filter (function Trace.Converge { node = 4; epoch = 3 } -> false | _ -> true) stream);
  expect "an epoch left open is seen" ~ok:false
    (if Checks.Soak_lag.open_epochs unfinished = 0 then Ok () else Error "open epoch")

let test_quantile () =
  let a = [| 5; 1; 4; 2; 3 |] in
  expect "nearest-rank quantiles" ~ok:true
    (if Checks.quantile a 0.5 = 3 && Checks.quantile a 0.99 = 5 && Checks.quantile a 1.0 = 5 then Ok ()
     else Error "wrong quantile")

let () =
  test_knowledge ();
  test_discovery_run ();
  test_mux ();
  test_lag_bound ();
  test_soak_stream ();
  test_quantile ();
  if !failures > 0 then begin
    Printf.printf "%d negative-control failures\n" !failures;
    exit 1
  end
