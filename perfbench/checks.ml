(* Output checks for the benchmark's workloads.

   Each check compares a run's output against a computation made apart
   from the engine that produced it, or against a property the method
   must have. None compares against a stored copy of earlier output.
   A check returns [Error reason] instead of raising, so the benchmark
   counts a failed check and still prints its whole report. *)

open Repro_util
open Repro_engine
open Repro_discovery

type outcome = (unit, string) result

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* --- discovery runs (sim-hm, mux-hm) ----------------------------------- *)

(* [ks.(v)] is node v's knowledge as held by the instrumented algorithm
   wrapper; [None] means the engine never instantiated node v. *)
let knowledge_complete ~n (ks : Knowledge.t option array) =
  if Array.length ks <> n then fail "%d instances for n = %d" (Array.length ks) n
  else begin
    let bad = ref (Ok ()) in
    Array.iteri
      (fun v k ->
        if !bad = Ok () then
          match k with
          | None -> bad := fail "node %d was never instantiated" v
          | Some k ->
            let c = Knowledge.cardinal k in
            if c <> n then bad := fail "node %d knows %d of %d ids" v c n)
      ks;
    !bad
  end

let sends_balance ~sent ~delivered ~dropped =
  if sent = delivered + dropped then Ok ()
  else fail "sends %d <> deliveries %d + drops %d" sent delivered dropped

let log2 n = log (float_of_int n) /. log 2.0

(* The paper's sub-logarithmic completion time. *)
let sublogarithmic ~n ~lag_max =
  if float_of_int lag_max < log2 n then Ok ()
  else fail "completion round %d is not below log2 %d = %.2f" lag_max n (log2 n)

(* The last node to complete does so in the run's final round: the
   synchronous run stops exactly when every node knows every id. *)
let last_completion_is_final_round ~rounds (lags : int array) =
  let last = Array.fold_left max 0 lags in
  if last = rounds then Ok ()
  else fail "last node completed in round %d but the run took %d rounds" last rounds

type async_summary = { time : float; messages : int; pointers : int; bytes : int }

let summary_of (r : Run_async.result) =
  {
    time = r.Run_async.time;
    messages = r.Run_async.messages;
    pointers = r.Run_async.pointers;
    bytes = Metrics.bytes_sent r.Run_async.metrics;
  }

let mux_matches_oracle ~(mux : async_summary) ~(oracle : async_summary) =
  if mux.time <> oracle.time then fail "mux virtual time %g <> oracle %g" mux.time oracle.time
  else if mux.messages <> oracle.messages then
    fail "mux messages %d <> oracle %d" mux.messages oracle.messages
  else if mux.pointers <> oracle.pointers then
    fail "mux pointers %d <> oracle %d" mux.pointers oracle.pointers
  else if mux.bytes <> oracle.bytes then fail "mux bytes %d <> oracle %d" mux.bytes oracle.bytes
  else Ok ()

let every_node_completes (ticks : int option array) =
  let missing = ref (-1) in
  Array.iteri (fun v t -> if !missing < 0 && t = None then missing := v) ticks;
  if !missing < 0 then Ok () else fail "node %d reports no complete_tick" !missing

(* --- the service soak --------------------------------------------------- *)

let lag_within ~bound (samples : int array) =
  match Array.find_opt (fun s -> float_of_int s > bound) samples with
  | None -> Ok ()
  | Some s -> fail "lag sample %d ticks exceeds the bound %g" s bound

let membership_matches ~rebuilt ~final_live =
  if rebuilt = final_live then Ok ()
  else fail "membership rebuilt from events has %d members, the service reports %d" rebuilt
      final_live

let max_lag_agrees ~ours ~reported =
  if ours = reported then Ok ()
  else fail "lag recomputed from the event stream is %g, the service reports %g" ours reported

(* Convergence lag recomputed from the service's event stream, apart from
   the runtime's own checker: every membership change ([Join], [Leave],
   [Crash] once the clock runs) opens an epoch at the current tick; a
   member owes an epoch if it is live and (re)joined no later than the
   change; it pays it at the first [Converge] naming that epoch or a later
   one, or is released if it departs first. Per-member lags are the
   samples of the lag distribution; an epoch's fleet lag is its last
   release, whose maximum the runtime reports as [max_lag]. *)
module Soak_lag = struct
  type t = {
    mutable clock : float;
    mutable started : bool;
    mutable epoch : int;
    mutable epoch_time : float array;  (* index k: tick of change k *)
    mutable fleet : float array;  (* index k: latest release so far *)
    live : bool array;
    join_time : float array;
    first_owed : int array;  (* first epoch a node's incarnation owes *)
    conv : int array;  (* highest epoch paid by the current incarnation *)
    samples : Intvec.t;
    mutable member_ticks : int;
  }

  let create ~cap =
    {
      clock = 0.0;
      started = false;
      epoch = 0;
      epoch_time = Array.make 64 0.0;
      fleet = Array.make 64 0.0;
      live = Array.make cap false;
      join_time = Array.make cap 0.0;
      first_owed = Array.make cap 1;
      conv = Array.make cap 0;
      samples = Intvec.create ();
      member_ticks = 0;
    }

  let grow a len = if len < Array.length a then a else Array.append a (Array.make len 0.0)

  let bump t =
    if t.started then begin
      t.epoch <- t.epoch + 1;
      t.epoch_time <- grow t.epoch_time t.epoch;
      t.fleet <- grow t.fleet t.epoch;
      t.epoch_time.(t.epoch) <- t.clock;
      t.fleet.(t.epoch) <- 0.0
    end

  let release t k =
    let lag = t.clock -. t.epoch_time.(k) in
    if lag > t.fleet.(k) then t.fleet.(k) <- lag

  let owed_from t node = max (t.conv.(node) + 1) t.first_owed.(node)

  let on_event t (ev : Trace.event) =
    match ev with
    | Tick { time; _ } ->
      t.started <- true;
      t.member_ticks <- t.member_ticks + 1;
      if time > t.clock then t.clock <- time
    | Join { node } ->
      bump t;
      let jt = if t.started then t.clock else 0.0 in
      t.live.(node) <- true;
      t.join_time.(node) <- jt;
      t.conv.(node) <- 0;
      (* changes earlier in this same tick are owed too: the joiner's
         join time equals their change time *)
      let k = ref t.epoch in
      while !k >= 1 && t.epoch_time.(!k) >= jt do
        decr k
      done;
      t.first_owed.(node) <- !k + 1
    | Leave { node } | Crash { node } ->
      bump t;
      for k = owed_from t node to t.epoch do
        release t k
      done;
      t.live.(node) <- false
    | Converge { node; epoch } ->
      for k = owed_from t node to epoch do
        release t k;
        Intvec.push t.samples (int_of_float (t.clock -. t.epoch_time.(k)))
      done;
      if epoch > t.conv.(node) then t.conv.(node) <- epoch
    | Round_begin _ | Send _ | Deliver _ | Drop _ | Suspect _ | Retire _ | Genesis _ | Content _
    | Complete | Give_up ->
      ()

  let epochs t = t.epoch
  let samples t = Intvec.to_array t.samples
  let member_ticks t = t.member_ticks

  let live_count t = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 t.live

  (* epochs some live member still owes at the end of the stream *)
  let open_epochs t =
    let low = ref (t.epoch + 1) in
    Array.iteri (fun node l -> if l then low := min !low (owed_from t node)) t.live;
    max 0 (t.epoch - !low + 1)

  let max_fleet_lag t =
    let m = ref 0.0 in
    for k = 1 to t.epoch do
      if t.fleet.(k) > !m then m := t.fleet.(k)
    done;
    !m
end

(* --- distributions ------------------------------------------------------ *)

(* Nearest-rank quantile of a non-empty sample. *)
let quantile (a : int array) q =
  let s = Array.copy a in
  Array.sort compare s;
  let len = Array.length s in
  let rank = int_of_float (Float.ceil (q *. float_of_int len)) in
  s.(max 0 (min (len - 1) (rank - 1)))
