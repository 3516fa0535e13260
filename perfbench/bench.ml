(* The benchmark's measuring program.

   One process runs one named workload: it builds the inputs for a fixed
   list of seeds, runs the job once per seed with observers attached to
   check the outputs and collect the deterministic counts, then times
   whole passes over the seed list with tracing off until the requested
   measuring time is spent. With [--trace 1] it instead attributes time
   to layers from outside the program (see README.md) and reports the
   per-layer metrics. The last line of standard output is one JSON
   object; [perfbench/run.py] adds the peak-memory probe and prints the
   final result.

     bench.exe --workload sim-hm --seeds 1,2,3,4 --seconds 10 --order 7 --trace 0
     bench.exe --workload sim-hm --seeds 1,2,3,4 --probe        (run the job once) *)

open Repro_util
open Repro_graph
open Repro_engine
open Repro_discovery
module Mux = Repro_net.Mux
module Loopback = Repro_net.Loopback
module Control = Repro_net.Control
module Envelope = Repro_net.Envelope
module Backend = Repro_net.Backend
module Service = Repro_service.Service
module Checks = Perfbench.Checks

let now = Unix.gettimeofday

let median (a : float array) =
  let s = Array.copy a in
  Array.sort compare s;
  let len = Array.length s in
  if len = 0 then nan
  else if len mod 2 = 1 then s.(len / 2)
  else (s.((len / 2) - 1) +. s.(len / 2)) /. 2.0

(* --- report ---------------------------------------------------------------- *)

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
  metrics : (string, float * string) Hashtbl.t;
}

let report = { attempted = 0; failed = 0; failures = []; metrics = Hashtbl.create 64 }
let metric name unit value = Hashtbl.replace report.metrics name (value, unit)

(* One operation: its checks either all pass, or it counts as failed
   with every failing reason recorded. An exception out of the program
   (an invariant or lag violation, a crash) fails the operation too. *)
let operation ?(weight = 1) label (f : unit -> Checks.outcome list) =
  report.attempted <- report.attempted + weight;
  let errors =
    match f () with
    | outcomes -> List.filter_map (function Ok () -> None | Error e -> Some e) outcomes
    | exception e -> [ "raised " ^ Printexc.to_string e ]
  in
  if errors <> [] then begin
    report.failed <- report.failed + weight;
    List.iter (fun e -> report.failures <- (label ^ ": " ^ e) :: report.failures) errors
  end

(* Counts that must repeat exactly between two executions of one input. *)
let same_count what ~expected ~got =
  if expected = got then Ok () else Checks.fail "%s %d differs from the first run's %d" what got expected

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("lag_p50_ticks", "ticks");
    ("lag_p99_ticks", "ticks");
    ("lag_max_ticks", "ticks");
    ("msgs_per_node", "msgs");
    ("bytes_per_node", "bytes");
  ]

(* Every per-layer metric, in print order. A workload that bypasses a
   layer reports 0 for it: the layer did no work there. *)
let per_layer =
  [
    ("graph.generate_s", "s");
    ("protocol.round_s", "s");
    ("protocol.receive_s", "s");
    ("protocol.round_calls", "count");
    ("protocol.receive_calls", "count");
    ("sim.self_s", "s");
    ("async_sim.run_s", "s");
    ("mux.over_async", "ratio");
    ("mux.self_s", "s");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("wire.bytes_per_msg", "bytes");
    ("envelope.encode_ns", "ns");
    ("envelope.decode_ns", "ns");
    ("net.frames_sent", "count");
    ("net.retransmits", "count");
    ("service.tick_ms", "ms");
    ("service.probes", "count");
    ("service.gossip", "count");
    ("service.entries_per_gossip", "count");
    ("service.full_syncs", "count");
    ("service.bootstraps", "count");
    ("service.probe_reqs", "count");
    ("service.suspicion_msgs", "count");
    ("service.false_suspicions", "count");
    ("service.dropped_dead", "count");
    ("lag.epochs", "count");
    ("lag.snapshots_peak", "count");
    ("lag.table_peak", "count");
    ("gc.minor_mwords", "Mwords");
    ("gc.promoted_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead", "ratio");
  ]

let print_report ~trace =
  let names = if trace then per_layer else end_to_end in
  let b = Buffer.create 1024 in
  (* every check runs inside an operation, so a wrong output shows as a
     failed operation and makes the run incorrect *)
  Printf.bprintf b "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{"
    (report.failed = 0) report.attempted report.failed;
  List.iteri
    (fun i (name, unit) ->
      (* a metric left unmeasured by a failed operation prints as 0; the
         failure itself is in [failed] *)
      let value = match Hashtbl.find_opt report.metrics name with Some (v, _) -> v | None -> 0.0 in
      Printf.bprintf b "%s\"%s\":{\"value\":%.12g,\"unit\":\"%s\"}"
        (if i = 0 then "" else ",")
        name value unit)
    names;
  Buffer.add_string b "},\"failures\":[";
  List.iteri
    (fun i f -> Printf.bprintf b "%s%S" (if i = 0 then "" else ",") f)
    (List.rev report.failures);
  Buffer.add_string b "]}";
  print_endline (Buffer.contents b)

(* --- timing ---------------------------------------------------------------- *)

(* Repeat [f] until [seconds] have passed and at least [min_reps] times
   (at most [max_reps]); returns each repetition's duration. [between]
   runs before each repetition, outside its timing. *)
let repeat ?(between = ignore) ~seconds ~min_reps ~max_reps f =
  let start = now () in
  let times = ref [] and reps = ref 0 in
  while !reps < max_reps && (!reps < min_reps || now () -. start < seconds) do
    between ();
    let t0 = now () in
    f ();
    times := (now () -. t0) :: !times;
    incr reps
  done;
  Array.of_list (List.rev !times)

(* The timed window of an untraced run. Before each timed pass come a
   burst of set-up repetitions and a full major collection, both outside
   the pass's time: set-up takes milliseconds, so sampling it across the
   whole window rather than in one short burst keeps it as steady as the
   job. The burst itself starts after a full major collection too, so it
   does not pay the previous pass's collection debt (about 6-8% of its
   time otherwise). Returns the median set-up time and the pass times. *)
let timed_window ~seconds ~setup ~pass =
  let setup_times = ref [] in
  let between () =
    Gc.full_major ();
    let burst = repeat ~seconds:0.25 ~min_reps:3 ~max_reps:1000 setup in
    setup_times := Array.to_list burst @ !setup_times;
    Gc.full_major ()
  in
  let times = repeat ~between ~seconds ~min_reps:3 ~max_reps:1000 pass in
  Printf.eprintf "perfbench: %d timed passes, s: %s\n%!" (Array.length times)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  (median (Array.of_list !setup_times), times)

(* Seconds per operation of [f], which runs [ops] operations, timed
   after a full major collection. *)
let timed_per ~ops f =
  Gc.full_major ();
  let t0 = now () in
  f ();
  (now () -. t0) /. float_of_int ops

(* The traced run's pass with tracing off: its wall time per operation,
   and the GC counters it moved, per operation. *)
let untraced_pass ~ops pass =
  let a = Gc.quick_stat () in
  let wall = timed_per ~ops pass in
  let b = Gc.quick_stat () in
  let per x = x /. float_of_int ops in
  metric "gc.minor_mwords" "Mwords" (per (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6);
  metric "gc.promoted_mwords" "Mwords" (per (b.Gc.promoted_words -. a.Gc.promoted_words) /. 1e6);
  metric "gc.major_collections" "count"
    (per (float_of_int (b.Gc.major_collections - a.Gc.major_collections)));
  metric "gc.top_heap_mb" "MB" (float_of_int (b.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  wall

(* --- spans ----------------------------------------------------------------- *)

(* Spans of the traced run, kept in memory and written out at the end:
   name, parent, start and end, recorded from the benchmark's side of
   each call into a layer. *)
module Spans = struct
  type span = { id : int; name : string; parent : int; start : float; mutable stop : float }

  let all : span Queue.t = Queue.create ()

  let add ?(parent = -1) name start stop =
    let s = { id = Queue.length all; name; parent; start; stop } in
    Queue.push s all;
    s

  let write path =
    let base = match Queue.peek_opt all with Some s -> s.start | None -> 0.0 in
    let oc = open_out path in
    Queue.iter
      (fun s ->
        Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n" s.id
          s.name s.parent (s.start -. base) (s.stop -. base))
      all;
    close_out oc;
    Printf.eprintf "perfbench: %d spans written to %s\n%!" (Queue.length all) path
end

(* --- discovery workloads: inputs and instrumented algorithms ---------------- *)

let kout3 =
  match Generate.family_of_string "kout:3" with Ok f -> f | Error e -> failwith e

let hm =
  match Registry.find "hm" with Ok a -> a | Error e -> failwith e

(* the topology discovery_cli builds for [--topology kout:3 --seed s] *)
let topology ~n seed = Generate.build kout3 ~rng:(Rng.substream ~seed ~index:0x70b0) ~n

(* Records each instance's knowledge set; round and receive are the
   algorithm's own closures, so the timed job runs unobserved. *)
let capturing (ks : Knowledge.t option array) =
  {
    hm with
    Algorithm.make =
      (fun ctx ->
        let i = hm.Algorithm.make ctx in
        ks.(ctx.Algorithm.node) <- Some i.Algorithm.knowledge;
        i);
  }

(* The traced run's timing: every round and receive, minus the time
   spent inside the engine's send callback (on the live backends that is
   the wire codec, envelope and go-back-N), a span per call, and every
   [capture_stride]-th payload kept for the codec replay when [capture]
   is set (only the live backends run the codec). *)
type prof = {
  mutable round_s : float;
  mutable receive_s : float;
  mutable round_calls : int;
  mutable receive_calls : int;
  mutable payloads_seen : int;
  capture : bool;
  captured : Payload.t Queue.t;
  mutable job_span : int;  (* the id of the job's span, the parent of each call's *)
}

let new_prof ~capture =
  {
    round_s = 0.0;
    receive_s = 0.0;
    round_calls = 0;
    receive_calls = 0;
    payloads_seen = 0;
    capture;
    captured = Queue.create ();
    job_span = -1;
  }

let capture_stride = 8
let capture_cap = 16_384

(* Records each instance's knowledge and the round in which it became
   complete; with [prof], also times every call. *)
let observed ?prof (ks : Knowledge.t option array) (lags : int array) =
  let cur = ref 0 in
  {
    hm with
    Algorithm.make =
      (fun ctx ->
        let i = hm.Algorithm.make ctx in
        let v = ctx.Algorithm.node and k = i.Algorithm.knowledge in
        ks.(v) <- Some k;
        lags.(v) <- (if Knowledge.is_complete k then 0 else -1);
        let note () = if lags.(v) < 0 && Knowledge.is_complete k then lags.(v) <- !cur in
        match prof with
        | None ->
          {
            i with
            Algorithm.round =
              (fun ~round ~send ->
                cur := round;
                i.Algorithm.round ~round ~send;
                note ());
            receive =
              (fun ~src p ->
                i.Algorithm.receive ~src p;
                note ());
          }
        | Some prof ->
          let excluded = ref 0.0 in
          let send_through send ~dst p =
            prof.payloads_seen <- prof.payloads_seen + 1;
            if
              prof.capture
              && prof.payloads_seen mod capture_stride = 0
              && Queue.length prof.captured < capture_cap
            then Queue.push p prof.captured;
            let s0 = now () in
            send ~dst p;
            excluded := !excluded +. (now () -. s0)
          in
          {
            i with
            Algorithm.round =
              (fun ~round ~send ->
                cur := round;
                excluded := 0.0;
                let t0 = now () in
                i.Algorithm.round ~round ~send:(send_through send);
                let t1 = now () in
                prof.round_s <- prof.round_s +. (t1 -. t0 -. !excluded);
                prof.round_calls <- prof.round_calls + 1;
                ignore (Spans.add ~parent:prof.job_span "protocol.round" t0 t1);
                note ());
            receive =
              (fun ~src p ->
                let t0 = now () in
                i.Algorithm.receive ~src p;
                let t1 = now () in
                prof.receive_s <- prof.receive_s +. (t1 -. t0);
                prof.receive_calls <- prof.receive_calls + 1;
                ignore (Spans.add ~parent:prof.job_span "protocol.receive" t0 t1);
                note ());
          });
  }

type counts = { mutable sends : int; mutable delivers : int; mutable drops : int }

(* The traced run's sink for a discovery run: event counts and the
   execution invariants, adding the time spent inside them to [sink_s],
   so that self times can leave the observers out. *)
let checking_sink sink_s =
  let c = { sends = 0; delivers = 0; drops = 0 } and inv = Trace.Invariants.create () in
  let check = Trace.Invariants.sink inv in
  let count = function
    | Trace.Send _ -> c.sends <- c.sends + 1
    | Trace.Deliver _ -> c.delivers <- c.delivers + 1
    | Trace.Drop _ -> c.drops <- c.drops + 1
    | _ -> ()
  in
  let sink =
    Trace.callback (fun ev ->
        let t0 = now () in
        Trace.emit check ev;
        count ev;
        sink_s := !sink_s +. (now () -. t0))
  in
  (c, inv, sink)

(* Per-seed set-up time for the traced run's [graph.generate_s]. *)
let setup_reps ~seeds build =
  let reps = repeat ~seconds:1.0 ~min_reps:15 ~max_reps:2000 (fun () -> ignore (List.map build seeds)) in
  median reps /. float_of_int (List.length seeds)

let rotate order l =
  let len = List.length l in
  let k = ((order mod len) + len) mod len in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let report_lags (samples : int array) =
  if samples = [||] then
    operation "lag samples" (fun () -> [ Checks.fail "no lag samples were recorded" ])
  else begin
    metric "lag_p50_ticks" "ticks" (float_of_int (Checks.quantile samples 0.5));
    metric "lag_p99_ticks" "ticks" (float_of_int (Checks.quantile samples 0.99));
    metric "lag_max_ticks" "ticks" (float_of_int (Checks.quantile samples 1.0))
  end

(* --- codec and envelope replay ------------------------------------------- *)

(* ns per item of [f] over [items]: the median of seven loops of at
   least 50 ms each. *)
let ns_per_item items f =
  let count = Array.length items in
  if count = 0 then 0.0
  else begin
    let loop () =
      let t0 = now () in
      let rounds = ref 0 in
      while now () -. t0 < 0.05 do
        Array.iter f items;
        incr rounds
      done;
      (now () -. t0) /. float_of_int (!rounds * count) *. 1e9
    in
    median (Array.init 7 (fun _ -> loop ()))
  end

let replay_wire ~universe (payloads : Payload.t array) =
  let encoded = Array.map (Wire.encode Wire.Adaptive ~universe) payloads in
  let enc = ns_per_item payloads (fun p -> ignore (Wire.encode Wire.Adaptive ~universe p)) in
  let dec = ns_per_item encoded (fun b -> ignore (Wire.decode Wire.Adaptive ~universe b)) in
  let total = Array.fold_left (fun acc b -> acc + Bytes.length b) 0 encoded in
  metric "wire.encode_ns" "ns" enc;
  metric "wire.decode_ns" "ns" dec;
  metric "wire.bytes_per_msg" "bytes" (float_of_int total /. float_of_int (max 1 (Array.length encoded)));
  (encoded, enc +. dec)

(* Data frames around the given bodies, encoded and decoded with the
   CRC-32 over header and body; returns ns per frame, both directions. *)
let replay_envelope (bodies : bytes array) =
  let envs =
    Array.mapi
      (fun i body ->
        { Envelope.kind = Envelope.Data; src = 1; stamp = 7; seq = i + 1; ack = i; comp = false; body })
      bodies
  in
  let frames = Array.map Envelope.encode envs in
  let enc = ns_per_item envs (fun e -> ignore (Envelope.encode e)) in
  let dec =
    ns_per_item frames (fun f ->
        match Envelope.decode f ~off:0 ~len:(Bytes.length f) with
        | `Frame _ -> ()
        | `Need_more | `Corrupt _ -> failwith "envelope replay: frame did not decode")
  in
  metric "envelope.encode_ns" "ns" enc;
  metric "envelope.decode_ns" "ns" dec;
  enc +. dec

(* --- sim-hm: hm on the synchronous simulator ----------------------------- *)

type sim_expect = {
  rounds : int;
  messages : int;
  pointers : int;
  bytes : int;
  delivered : int;
  dropped : int;
}

let sim_counts (r : Run.result) =
  {
    rounds = r.Run.rounds;
    messages = r.Run.messages;
    pointers = r.Run.pointers;
    bytes = r.Run.bytes;
    delivered = r.Run.delivered;
    dropped = r.Run.dropped;
  }

let same_sim (e : sim_expect) (g : sim_expect) =
  [
    same_count "rounds" ~expected:e.rounds ~got:g.rounds;
    same_count "messages" ~expected:e.messages ~got:g.messages;
    same_count "pointers" ~expected:e.pointers ~got:g.pointers;
    same_count "bytes" ~expected:e.bytes ~got:g.bytes;
    same_count "delivered" ~expected:e.delivered ~got:g.delivered;
    same_count "dropped" ~expected:e.dropped ~got:g.dropped;
  ]

let sim_n = 2048

let sim_spec seed = { Run.default_spec with Run.seed }

let sim_checks ~n (r : Run.result) ks =
  [
    (if r.Run.completed then Ok () else Checks.fail "did not complete in %d rounds" r.Run.rounds);
    Checks.knowledge_complete ~n ks;
    Checks.sends_balance ~sent:r.Run.messages ~delivered:r.Run.delivered ~dropped:r.Run.dropped;
  ]

(* The first execution of each seed: observed, checked, and the source of
   the counts every later execution must repeat. *)
let sim_checked ~n topos =
  List.map
    (fun (seed, topo) ->
      let ks = Array.make n None and lags = Array.make n (-1) in
      let expect = ref None in
      operation (Printf.sprintf "sim-hm seed %d" seed) (fun () ->
          let r = Run.exec_spec (sim_spec seed) (observed ks lags) topo in
          expect := Some (sim_counts r);
          let lag_max = Array.fold_left max 0 lags in
          sim_checks ~n r ks
          @ [
              (if Array.exists (fun l -> l < 0) lags then Checks.fail "a node never completed"
               else Ok ());
              Checks.sublogarithmic ~n ~lag_max;
              Checks.last_completion_is_final_round ~rounds:r.Run.rounds lags;
            ]);
      (seed, topo, !expect, lags))
    topos

let sim_run_plain ~n (seed, topo, expect, _) =
  let ks = Array.make n None in
  operation (Printf.sprintf "sim-hm seed %d" seed) (fun () ->
      let r = Run.exec_spec (sim_spec seed) (capturing ks) topo in
      sim_checks ~n r ks
      @ match expect with Some e -> same_sim e (sim_counts r) | None -> [ Checks.fail "no first run" ])

let sim_totals ~n checked =
  let runs = List.length checked in
  let lags = Array.concat (List.map (fun (_, _, _, l) -> l) checked) in
  let sum f =
    List.fold_left (fun acc (_, _, e, _) -> match e with Some e -> acc + f e | None -> acc) 0 checked
  in
  let per_node x = float_of_int x /. float_of_int (runs * n) in
  (lags, per_node (sum (fun e -> e.messages)), per_node (sum (fun e -> e.bytes)))

let sim_hm ~seeds ~order ~seconds ~trace =
  let n = sim_n in
  let topos = List.map (fun s -> (s, topology ~n s)) seeds in
  let checked = sim_checked ~n topos in
  let lags, msgs, bytes = sim_totals ~n checked in
  let runs = float_of_int (List.length seeds) in
  let pass () = List.iter (sim_run_plain ~n) (rotate order checked) in
  if not trace then begin
    let setup () = ignore (List.map (topology ~n) seeds) in
    let setup_s, times = timed_window ~seconds ~setup ~pass in
    metric "setup_s" "s" (setup_s /. runs);
    metric "wall_s" "s" (median times /. runs);
    report_lags lags;
    metric "msgs_per_node" "msgs" msgs;
    metric "bytes_per_node" "bytes" bytes
  end
  else begin
    metric "graph.generate_s" "s" (setup_reps ~seeds (topology ~n));
    let ops = List.length seeds in
    let wall_u = untraced_pass ~ops pass in
    let prof = new_prof ~capture:false and sink_s = ref 0.0 in
    let traced (seed, topo, expect, first_lags) =
      let ks = Array.make n None and tl = Array.make n (-1) in
      let c, inv, sink = checking_sink sink_s in
      operation (Printf.sprintf "sim-hm traced seed %d" seed) (fun () ->
          let s0 = now () in
          let job = Spans.add "sim.run" s0 s0 in
          prof.job_span <- job.Spans.id;
          let r = Run.exec_spec { (sim_spec seed) with Run.trace = sink } (observed ~prof ks tl) topo in
          job.Spans.stop <- now ();
          Trace.Invariants.final_check inv r.Run.metrics;
          sim_checks ~n r ks
          @ (match expect with Some e -> same_sim e (sim_counts r) | None -> [])
          @ [
              same_count "traced sends" ~expected:r.Run.messages ~got:c.sends;
              Checks.sends_balance ~sent:c.sends ~delivered:c.delivers ~dropped:c.drops;
              (if sorted tl = sorted first_lags then Ok ()
               else Checks.fail "traced completion rounds differ from the untraced run's");
            ])
    in
    let wall_t = timed_per ~ops (fun () -> List.iter traced checked) in
    let per x = x /. runs in
    metric "protocol.round_s" "s" (per prof.round_s);
    metric "protocol.receive_s" "s" (per prof.receive_s);
    metric "protocol.round_calls" "count" (per (float_of_int prof.round_calls));
    metric "protocol.receive_calls" "count" (per (float_of_int prof.receive_calls));
    metric "sim.self_s" "s" (wall_t -. per (!sink_s +. prof.round_s +. prof.receive_s));
    metric "trace.overhead" "ratio" (wall_t /. wall_u)
  end

(* --- mux-hm: hm on the mux wire stack, the loopback oracle as cross-check -- *)

let mux_n = 1024

type mux_expect = { summary : Checks.async_summary; frames : int; retransmits : int; ticks : int array }

let mux_spec seed = { Run_async.default_spec with Run_async.seed }

let finals_sum f (finals : Control.final array) = Array.fold_left (fun acc x -> acc + f x) 0 finals

let mux_expect_of (r : Run_async.result) finals =
  {
    summary = Checks.summary_of r;
    frames = finals_sum (fun f -> f.Control.sent) finals;
    retransmits = finals_sum (fun f -> f.Control.retransmits) finals;
    ticks = Array.map (fun f -> Option.value f.Control.complete_tick ~default:(-1)) finals;
  }

let mux_checks ~n (r : Run_async.result) finals ks =
  [
    (if r.Run_async.completed then Ok () else Checks.fail "did not complete by t = %g" r.Run_async.time);
    Checks.knowledge_complete ~n ks;
    Checks.every_node_completes (Array.map (fun f -> f.Control.complete_tick) finals);
  ]

let same_mux (e : mux_expect) (g : mux_expect) =
  [
    Checks.mux_matches_oracle ~mux:g.summary ~oracle:e.summary;
    same_count "frames" ~expected:e.frames ~got:g.frames;
    same_count "retransmits" ~expected:e.retransmits ~got:g.retransmits;
    (if e.ticks = g.ticks then Ok ()
     else Checks.fail "per-node complete_tick differs from the first run's");
  ]

let mux_checked ~n topos =
  List.map
    (fun (seed, topo) ->
      let ks = Array.make n None in
      let expect = ref None in
      operation (Printf.sprintf "mux-hm seed %d" seed) (fun () ->
          let oracle, _ = Loopback.exec_spec (mux_spec seed) hm topo in
          let r, finals = Mux.exec_spec (mux_spec seed) (capturing ks) topo in
          expect := Some (mux_expect_of r finals);
          mux_checks ~n r finals ks
          @ [ Checks.mux_matches_oracle ~mux:(Checks.summary_of r) ~oracle:(Checks.summary_of oracle) ]);
      (seed, topo, !expect))
    topos

let mux_run_plain ~n (seed, topo, expect) =
  let ks = Array.make n None in
  operation (Printf.sprintf "mux-hm seed %d" seed) (fun () ->
      let r, finals = Mux.exec_spec (mux_spec seed) (capturing ks) topo in
      mux_checks ~n r finals ks
      @
      match expect with
      | Some e -> same_mux e (mux_expect_of r finals)
      | None -> [ Checks.fail "no first run" ])

let mux_hm ~seeds ~order ~seconds ~trace =
  let n = mux_n in
  let topos = List.map (fun s -> (s, topology ~n s)) seeds in
  let checked = mux_checked ~n topos in
  let runs = float_of_int (List.length seeds) in
  let expects = List.filter_map (fun (_, _, e) -> e) checked in
  let pass () = List.iter (mux_run_plain ~n) (rotate order checked) in
  if not trace then begin
    let setup () = ignore (List.map (topology ~n) seeds) in
    let setup_s, times = timed_window ~seconds ~setup ~pass in
    let per_node f =
      float_of_int (List.fold_left (fun acc e -> acc + f e) 0 expects) /. (runs *. float_of_int n)
    in
    metric "setup_s" "s" (setup_s /. runs);
    metric "wall_s" "s" (median times /. runs);
    report_lags (Array.concat (List.map (fun e -> e.ticks) expects));
    metric "msgs_per_node" "msgs" (per_node (fun e -> e.summary.Checks.messages));
    metric "bytes_per_node" "bytes" (per_node (fun e -> e.summary.Checks.bytes))
  end
  else begin
    metric "graph.generate_s" "s" (setup_reps ~seeds (topology ~n));
    let ops = List.length seeds in
    let wall_u = untraced_pass ~ops pass in
    let oracle_s =
      timed_per ~ops (fun () ->
          List.iter (fun (seed, topo, _) -> ignore (Loopback.exec_spec (mux_spec seed) hm topo)) checked)
    in
    metric "async_sim.run_s" "s" oracle_s;
    metric "mux.over_async" "ratio" (wall_u /. oracle_s);
    let prof = new_prof ~capture:true and sink_s = ref 0.0 in
    let traced (seed, topo, expect) =
      let ks = Array.make n None and tl = Array.make n (-1) in
      let c, inv, sink = checking_sink sink_s in
      operation (Printf.sprintf "mux-hm traced seed %d" seed) (fun () ->
          let s0 = now () in
          let job = Spans.add "mux.run" s0 s0 in
          prof.job_span <- job.Spans.id;
          let r, finals =
            Mux.exec_spec { (mux_spec seed) with Run_async.trace = sink } (observed ~prof ks tl) topo
          in
          job.Spans.stop <- now ();
          Trace.Invariants.final_check inv r.Run_async.metrics;
          mux_checks ~n r finals ks
          @ (match expect with Some e -> same_mux e (mux_expect_of r finals) | None -> [])
          @ [ same_count "traced sends" ~expected:r.Run_async.messages ~got:c.sends ])
    in
    let wall_t = timed_per ~ops (fun () -> List.iter traced checked) in
    let per x = x /. runs in
    let total f = float_of_int (List.fold_left (fun acc e -> acc + f e) 0 expects) in
    let frames = per (total (fun e -> e.frames + e.retransmits)) in
    metric "protocol.round_s" "s" (per prof.round_s);
    metric "protocol.receive_s" "s" (per prof.receive_s);
    metric "protocol.round_calls" "count" (per (float_of_int prof.round_calls));
    metric "protocol.receive_calls" "count" (per (float_of_int prof.receive_calls));
    metric "net.frames_sent" "count" frames;
    metric "net.retransmits" "count" (per (total (fun e -> e.retransmits)));
    metric "trace.overhead" "ratio" (wall_t /. wall_u);
    let bodies, wire_ns = replay_wire ~universe:n (Array.of_seq (Queue.to_seq prof.captured)) in
    let env_ns = replay_envelope bodies in
    let msgs = per (total (fun e -> e.summary.Checks.messages)) in
    metric "mux.self_s" "s"
      (wall_t
      -. per (!sink_s +. prof.round_s +. prof.receive_s)
      -. (msgs *. wire_ns *. 1e-9)
      -. (frames *. env_ns *. 1e-9))
  end

(* --- soak-mux: the continuous service on the mux wire stack --------------- *)

let soak_n = 192
let soak_cap = soak_n + max 16 (soak_n / 4)
let soak_ticks = 1000
let soak_churn = 0.02
let soak_loss = 0.05

let soak_config seed =
  let bound = Service.default_lag_bound ~cap:soak_cap in
  let cooldown = int_of_float bound + 16 in
  let fault =
    match Fault.of_string (Printf.sprintf "loss=%g" soak_loss) with
    | Ok f -> f
    | Error e -> failwith e
  in
  {
    Service.n = soak_n;
    cap = soak_cap;
    seed;
    ticks = soak_ticks;
    churn = Some { Service.rate = soak_churn; min_live = soak_n / 2; until = soak_ticks - cooldown };
    fault;
    lag_bound = Some bound;
    full_sync = None;
    backend = Some Backend.Mux;
    indirect_k = 2;
    lifeguard = true;
    trace = Trace.null;
  }

(* A soak's operations are its membership changes, counted per run. *)
let soak_checked seed =
  let cfg = soak_config seed in
  let lag = Checks.Soak_lag.create ~cap:soak_cap in
  let cfg = { cfg with Service.trace = Trace.callback (Checks.Soak_lag.on_event lag) } in
  match Service.run cfg with
  | stats ->
    let samples = Checks.Soak_lag.samples lag in
    let bound = Option.value cfg.Service.lag_bound ~default:0.0 in
    operation ~weight:(max 1 stats.Service.epochs) (Printf.sprintf "soak-mux seed %d" seed) (fun () ->
        [
          same_count "epochs seen in the event stream" ~expected:stats.Service.epochs
            ~got:(Checks.Soak_lag.epochs lag);
          same_count "closed epochs" ~expected:stats.Service.epochs ~got:stats.Service.epochs_closed;
          same_count "epochs still owed at the end" ~expected:0 ~got:(Checks.Soak_lag.open_epochs lag);
          Checks.lag_within ~bound samples;
          Checks.max_lag_agrees ~ours:(Checks.Soak_lag.max_fleet_lag lag) ~reported:stats.Service.max_lag;
          Checks.membership_matches ~rebuilt:(Checks.Soak_lag.live_count lag)
            ~final_live:stats.Service.final_live;
        ]);
    Some (stats, lag)
  | exception e ->
    operation (Printf.sprintf "soak-mux seed %d" seed) (fun () -> raise e);
    None

let same_stats (e : Service.stats) (g : Service.stats) =
  if Service.stats_to_json e = Service.stats_to_json g then Ok ()
  else Checks.fail "stats differ from the first run's: %s" (Service.stats_to_json g)

let soak_run_plain (seed, first) =
  match first with
  | None -> operation (Printf.sprintf "soak-mux seed %d" seed) (fun () -> [ Checks.fail "no first run" ])
  | Some ((e : Service.stats), _) ->
    operation ~weight:(max 1 e.Service.epochs) (Printf.sprintf "soak-mux seed %d" seed) (fun () ->
        [ same_stats e (Service.run (soak_config seed)) ])

let soak_mux ~seeds ~order ~seconds ~trace =
  let checked = List.map (fun seed -> (seed, soak_checked seed)) seeds in
  let firsts = List.filter_map snd checked in
  let runs = float_of_int (List.length seeds) in
  let pass () = List.iter soak_run_plain (rotate order checked) in
  if not trace then begin
    (* fleet genesis: the same config run for a single tick *)
    let genesis = List.map (fun seed -> { (soak_config seed) with Service.ticks = 1 }) seeds in
    let setup () = List.iter (fun cfg -> ignore (Service.run cfg)) genesis in
    let setup_s, times = timed_window ~seconds ~setup ~pass in
    let member_ticks = List.fold_left (fun acc (_, l) -> acc + Checks.Soak_lag.member_ticks l) 0 firsts in
    let per_kilo f =
      float_of_int (List.fold_left (fun acc (s, _) -> acc + f s) 0 firsts)
      *. 1000.0 /. float_of_int (max 1 member_ticks)
    in
    metric "setup_s" "s" (setup_s /. runs);
    metric "wall_s" "s" (median times /. runs);
    report_lags (Array.concat (List.map (fun (_, l) -> Checks.Soak_lag.samples l) firsts));
    metric "msgs_per_node" "msgs" (per_kilo (fun s -> s.Service.msgs));
    metric "bytes_per_node" "bytes" (per_kilo (fun s -> s.Service.bytes))
  end
  else begin
    let ops = List.length seeds in
    let wall_u = untraced_pass ~ops pass in
    let traced (seed, first) =
      let lag = Checks.Soak_lag.create ~cap:soak_cap in
      let t0 = now () in
      let job = Spans.add "service.run" t0 t0 in
      let last_tick = ref 0.0 and open_tick = ref None in
      let close_tick t = Option.iter (fun (s : Spans.span) -> s.Spans.stop <- t) !open_tick in
      let on_tick = function
        | Trace.Tick { time; _ } when time > !last_tick ->
          let t = now () in
          close_tick t;
          open_tick := Some (Spans.add ~parent:job.Spans.id "service.tick" t t);
          last_tick := time
        | _ -> ()
      in
      let sink = Trace.tee (Trace.callback (Checks.Soak_lag.on_event lag)) (Trace.callback on_tick) in
      match first with
      | None -> ()
      | Some ((e : Service.stats), first_lag) ->
        operation ~weight:(max 1 e.Service.epochs) (Printf.sprintf "soak-mux traced seed %d" seed)
          (fun () ->
            let s = Service.run { (soak_config seed) with Service.trace = sink } in
            let t = now () in
            close_tick t;
            job.Spans.stop <- t;
            [
              same_stats e s;
              (if sorted (Checks.Soak_lag.samples lag) = sorted (Checks.Soak_lag.samples first_lag)
               then Ok ()
               else Checks.fail "traced lag samples differ from the untraced run's");
            ])
    in
    let wall_t = timed_per ~ops (fun () -> List.iter traced checked) in
    metric "trace.overhead" "ratio" (wall_t /. wall_u);
    metric "service.tick_ms" "ms" (wall_u /. float_of_int soak_ticks *. 1e3);
    let per f =
      float_of_int (List.fold_left (fun acc ((s : Service.stats), _) -> acc + f s) 0 firsts) /. runs
    in
    metric "net.frames_sent" "count" (per (fun s -> s.Service.msgs + s.Service.retransmits));
    metric "net.retransmits" "count" (per (fun s -> s.Service.retransmits));
    metric "service.probes" "count" (per (fun s -> s.Service.probes));
    metric "service.gossip" "count" (per (fun s -> s.Service.gossip));
    metric "service.entries_per_gossip" "count"
      (per (fun s -> s.Service.update_entries) /. Float.max 1.0 (per (fun s -> s.Service.gossip)));
    metric "service.full_syncs" "count" (per (fun s -> s.Service.full_syncs));
    metric "service.bootstraps" "count" (per (fun s -> s.Service.bootstraps));
    metric "service.probe_reqs" "count" (per (fun s -> s.Service.probe_reqs));
    metric "service.suspicion_msgs" "count" (per (fun s -> s.Service.suspicion_msgs));
    metric "service.false_suspicions" "count" (per (fun s -> s.Service.false_suspicions));
    metric "service.dropped_dead" "count" (per (fun s -> s.Service.dropped_dead));
    metric "lag.epochs" "count" (per (fun s -> s.Service.epochs));
    metric "lag.snapshots_peak" "count" (per (fun s -> s.Service.snapshots_peak));
    metric "lag.table_peak" "count" (per (fun s -> s.Service.lag_table_peak));
    (* the service keeps its payloads and frames internal, so the codec and
       envelope times are left to mux-hm; the mean size is the run's own *)
    metric "wire.bytes_per_msg" "bytes" (per (fun s -> s.Service.bytes) /. Float.max 1.0 (per (fun s -> s.Service.msgs)))
  end

(* --- the peak-memory probe: the job once, in a fresh process -------------- *)

let probe workload seed =
  match workload with
  | "sim-hm" -> ignore (Run.exec_spec (sim_spec seed) hm (topology ~n:sim_n seed))
  | "mux-hm" -> ignore (Mux.exec_spec (mux_spec seed) hm (topology ~n:mux_n seed))
  | "soak-mux" -> ignore (Service.run (soak_config seed))
  | w -> failwith ("unknown workload " ^ w)

(* --- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seeds = ref "" and seconds = ref 10.0 and order = ref 0 in
  let trace = ref 0 and probe_only = ref false and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim-hm | mux-hm | soak-mux");
      ("--seeds", Arg.Set_string seeds, "LIST comma-separated input seeds");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the timed passes");
      ("--order", Arg.Set_int order, "N rotates the order of the seeds in timed passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--probe", Arg.Set probe_only, " run the job once for the first seed and exit");
      ("--spans-out", Arg.Set_string spans_out, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seeds LIST [options]";
  let seeds =
    match List.map int_of_string (String.split_on_char ',' !seeds) with
    | [] -> failwith "--seeds is empty"
    | l -> l
    | exception Failure _ -> failwith ("bad --seeds " ^ !seeds)
  in
  if !probe_only then probe !workload (List.hd seeds)
  else begin
    let trace = !trace = 1 in
    let run =
      match !workload with
      | "sim-hm" -> sim_hm
      | "mux-hm" -> mux_hm
      | "soak-mux" -> soak_mux
      | w -> failwith ("unknown workload " ^ w)
    in
    run ~seeds ~order:!order ~seconds:!seconds ~trace;
    if trace && !spans_out <> "" then Spans.write !spans_out;
    List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) (List.rev report.failures);
    print_report ~trace;
    if report.failed > 0 then exit 1
  end
