(* Tests for lib/sim: event engine, packet fabric, the three transports,
   metrics, and the reliability extension. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* Unwrap a flow's throughput for the raw-number checks below. *)
let tput f = U.to_float (Sim.Metrics.throughput_gbps f)

(* -- engine --------------------------------------------------------------- *)

let engine_time_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 30 (fun () -> log := 30 :: !log);
  Sim.Engine.at eng 10 (fun () -> log := 10 :: !log);
  Sim.Engine.at eng 20 (fun () -> log := 20 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fires in time order" [ 10; 20; 30 ] (List.rev !log)

let engine_same_time_fifo () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.at eng 5 (fun () -> log := "a" :: !log);
  Sim.Engine.at eng 5 (fun () -> log := "b" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "fifo on ties" [ "a"; "b" ] (List.rev !log)

let engine_until () =
  let eng = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.at eng 10 (fun () -> incr fired);
  Sim.Engine.at eng 100 (fun () -> incr fired);
  Sim.Engine.run ~until:50 eng;
  Alcotest.(check int) "only first event" 1 !fired;
  Alcotest.(check int) "clock at until" 50 (Sim.Engine.now eng)

let engine_nested_scheduling () =
  let eng = Sim.Engine.create () in
  let finish = ref 0 in
  Sim.Engine.at eng 10 (fun () -> Sim.Engine.after eng 5 (fun () -> finish := Sim.Engine.now eng));
  Sim.Engine.run eng;
  Alcotest.(check int) "nested after" 15 !finish

let engine_rejects_past () =
  let eng = Sim.Engine.create () in
  Sim.Engine.at eng 10 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.at: time in the past") (fun () ->
          Sim.Engine.at eng 5 ignore));
  Sim.Engine.run eng

let backends = [ ("calendar", Sim.Engine.Calendar); ("heap", Sim.Engine.Binary_heap) ]

(* A deadline before the clock fires nothing and leaves the clock where it
   is. A clock moved back to such a deadline would accept [at] times that
   have already passed and fire them after later events. *)
let engine_clock_never_backwards backend () =
  let eng = Sim.Engine.create ~backend () in
  let log = ref [] in
  Sim.Engine.at eng 5_000 (fun () -> log := 5_000 :: !log);
  Sim.Engine.at eng 50_000 (fun () -> log := 50_000 :: !log);
  Sim.Engine.run ~until:10_000 eng;
  Alcotest.(check int) "clock moved to the deadline" 10_000 (Sim.Engine.now eng);
  Sim.Engine.run ~until:2_000 eng;
  Alcotest.(check int) "an earlier deadline leaves the clock" 10_000 (Sim.Engine.now eng);
  Alcotest.check_raises "a passed time stays in the past"
    (Invalid_argument "Engine.at: time in the past") (fun () -> Sim.Engine.at eng 5_000 ignore);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "each event fired once, in order" [ 5_000; 50_000 ] (List.rev !log)

(* A deadline more than one calendar wheel (16,000 ns) before every
   pending event must not move the wheel's window past the deadline: the
   times between the deadline and the next event stay schedulable, as
   they are on the heap. *)
let engine_schedules_after_far_deadline backend () =
  let eng = Sim.Engine.create ~backend () in
  let log = ref [] in
  Sim.Engine.at eng 100_000 (fun () -> log := Sim.Engine.now eng :: !log);
  Sim.Engine.run ~until:1_000 eng;
  Sim.Engine.at eng 2_000 (fun () -> log := Sim.Engine.now eng :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "both fire, in time order" [ 2_000; 100_000 ] (List.rev !log)

let engine_keyed_events backend () =
  let eng = Sim.Engine.create ~backend () in
  let log = ref [] in
  Sim.Engine.set_handler eng (fun key ->
      log := (Sim.Engine.now eng, key) :: !log;
      (* A fired key is free again: key 3 re-arms itself once. *)
      if key = 3 && Sim.Engine.now eng < 100 then Sim.Engine.after_key eng 100 3);
  Sim.Engine.after_key eng 20 3;
  (* Past the initial pending table, which then grows. *)
  Sim.Engine.after_key eng 10 5_000;
  Sim.Engine.after eng 20 (fun () -> log := (Sim.Engine.now eng, -1) :: !log);
  Sim.Engine.after_key eng 20 4;
  Alcotest.(check int) "pending counts both kinds" 4 (Sim.Engine.pending eng);
  Alcotest.check_raises "a pending key is rejected"
    (Invalid_argument "Engine.after_key: key already pending") (fun () ->
      Sim.Engine.after_key eng 5 3);
  Alcotest.check_raises "negative key" (Invalid_argument "Engine.after_key: negative key")
    (fun () -> Sim.Engine.after_key eng 5 (-1));
  Alcotest.(check int) "rejections schedule nothing" 4 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "keys and closures fire in (time, scheduling order)"
    [ (10, 5_000); (20, 3); (20, -1); (20, 4); (120, 3) ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending eng);
  let bare = Sim.Engine.create ~backend () in
  Sim.Engine.after_key bare 0 0;
  Alcotest.check_raises "no handler"
    (Invalid_argument "Engine: keyed event fired with no handler installed") (fun () ->
      Sim.Engine.run bare)

(* Differential property over both backends. A script is a list of steps;
   a step schedules a batch of events relative to the clock, then runs to
   a deadline that may lie far ahead, just ahead, or behind the clock.
   Keyed events draw from 12 keys, so a key is often still pending when it
   is drawn again; odd keys re-arm themselves twice from the handler, and
   every third closure schedules a successor, some at the same instant.
   Each backend's log of fired (time, event) pairs, rejections and clock
   readings must match the other's, a key must be rejected exactly when
   it is pending, and the fired times must never decrease. *)
type step = { events : (bool * int * int) list; deadline : int }

let gen_step =
  QCheck.Gen.(
    map2
      (fun events deadline -> { events; deadline })
      (list_size (0 -- 10)
         (triple bool
            (oneof [ 0 -- 3; 0 -- 2_000; 0 -- 200_000 ])
            (0 -- 11)))
      (oneof [ 0 -- 500; 0 -- 50_000; -20_000 -- 0 ]))

let print_step { events; deadline } =
  let event (keyed, off, key) =
    if keyed then Printf.sprintf "k%d+%d" key off else Printf.sprintf "c+%d" off
  in
  Printf.sprintf "{%s} then %+d" (String.concat ";" (List.map event events)) deadline

type fired = Fired of int * int | Rejected of int * string | Clock of int * int

let run_script backend steps =
  let eng = Sim.Engine.create ~backend () in
  let log = ref [] and ok = ref true in
  let note e = log := e :: !log in
  let last = ref 0 in
  let fire ev =
    let now = Sim.Engine.now eng in
    if now < !last then ok := false;
    last := now;
    note (Fired (now, ev))
  in
  let pending = Array.make 12 false and rearms = Array.make 12 0 in
  Sim.Engine.set_handler eng (fun key ->
      pending.(key) <- false;
      fire key;
      if key land 1 = 1 && rearms.(key) < 2 then begin
        rearms.(key) <- rearms.(key) + 1;
        pending.(key) <- true;
        Sim.Engine.after_key eng (key * 37) key
      end);
  let label = ref 0 in
  let rec closure () =
    incr label;
    let id = !label in
    fun () ->
      fire (-id);
      if id mod 3 = 0 then Sim.Engine.after eng (id mod 2) (closure ())
  in
  List.iter
    (fun { events; deadline } ->
      List.iter
        (fun (keyed, off, key) ->
          let now = Sim.Engine.now eng in
          match
            if keyed then Sim.Engine.after_key eng off key
            else Sim.Engine.at eng (now + off) (closure ())
          with
          | () ->
              if keyed then begin
                if pending.(key) then ok := false;
                pending.(key) <- true
              end
          | exception Invalid_argument msg ->
              if not (keyed && pending.(key)) then ok := false;
              note (Rejected (now, msg)))
        events;
      Sim.Engine.run ~until:(Sim.Engine.now eng + deadline) eng;
      note (Clock (Sim.Engine.now eng, Sim.Engine.pending eng)))
    steps;
  Sim.Engine.run eng;
  note (Clock (Sim.Engine.now eng, Sim.Engine.pending eng));
  (List.rev !log, !ok)

(* -- the calendar wheel, through the engine -------------------------------- *)

(* Schedule event [i] at [time], keyed by [i] or as a closure; both log
   (fire time, i). *)
let wheel_engine () =
  let eng = Sim.Engine.create ~backend:Sim.Engine.Calendar () in
  let log = ref [] in
  let note i = log := (Sim.Engine.now eng, i) :: !log in
  Sim.Engine.set_handler eng note;
  let add ~keyed time i =
    if keyed then Sim.Engine.after_key eng (time - Sim.Engine.now eng) i
    else Sim.Engine.at eng time (fun () -> note i)
  in
  (eng, log, add)

(* Event ids are unique keys. Times up to 200k span a dozen 16,000-ns
   windows, so the overflow heap and window migration run, not just the
   wheel. *)
let qcheck_wheel_order =
  QCheck.Test.make ~name:"drain order = stable sort by time" ~count:300
    QCheck.(list_of_size Gen.(0 -- 200) (pair bool (int_bound 200_000)))
    (fun events ->
      let eng, log, add = wheel_engine () in
      List.iteri (fun i (keyed, time) -> add ~keyed time i) events;
      Sim.Engine.run eng;
      let expected =
        List.mapi (fun i (_, time) -> (time, i)) events
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      List.rev !log = expected && Sim.Engine.pending eng = 0)

(* A deadline stops the drain before the head and moves the clock to it;
   a head past the window is popped once the deadline reaches it. *)
let wheel_pop_until () =
  let eng, log, add = wheel_engine () in
  Sim.Engine.run ~until:100 eng;
  Alcotest.(check int) "empty: the clock stays" 0 (Sim.Engine.now eng);
  add ~keyed:true 50_000 7;
  add ~keyed:false 50_000 8;
  Sim.Engine.run ~until:49_999 eng;
  Alcotest.(check (list (pair int int))) "deadline before head" [] !log;
  Alcotest.(check int) "clock at the deadline" 49_999 (Sim.Engine.now eng);
  Sim.Engine.run ~until:50_000 eng;
  Alcotest.(check (list (pair int int))) "pops at deadline" [ (50_000, 7); (50_000, 8) ]
    (List.rev !log);
  Sim.Engine.run ~until:1_000_000 eng;
  Alcotest.(check int) "drained: the clock stays" 50_000 (Sim.Engine.now eng);
  Alcotest.check_raises "past add rejected" (Invalid_argument "Engine.at: time in the past")
    (fun () -> add ~keyed:false 3 0)

(* Ties pop in scheduling order when some of the tied events migrated in
   from the overflow heap and others were bucketed after the window moved
   over them. *)
let wheel_fifo_across_stores () =
  let eng, log, add = wheel_engine () in
  add ~keyed:true 100_000 0;
  add ~keyed:false 3 10;
  add ~keyed:false 100_000 1;
  add ~keyed:true 3 11;
  (* Fires after the window moved to 100,000's, then adds two more ties. *)
  Sim.Engine.at eng 99_000 (fun () ->
      add ~keyed:true 100_000 2;
      add ~keyed:false 100_000 3);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "insertion order on ties" [ 10; 11; 0; 1; 2; 3 ]
    (List.rev_map snd !log)

let qcheck_engine_backends_agree =
  QCheck.Test.make ~name:"engine backends agree on random keyed/closure scripts" ~count:300
    QCheck.(make ~print:(Print.list print_step) Gen.(list_size (1 -- 12) gen_step))
    (fun steps ->
      let cal, cal_ok = run_script Sim.Engine.Calendar steps in
      let heap, heap_ok = run_script Sim.Engine.Binary_heap steps in
      cal_ok && heap_ok && cal = heap)

(* -- net ------------------------------------------------------------------ *)

let mk_net ?queue_capacity () =
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 4; 4 |] in
  let net = Sim.Net.create eng topo ?queue_capacity ~link_gbps:Topology.link_gbps () in
  (eng, topo, net)

(* One-shot send through the handle API: intern the route, send, drop the
   caller's reference (the packet keeps its own). *)
let send_data net ~flow ~bytes verts =
  let r = Sim.Net.intern_route net verts in
  Sim.Net.send_data net ~flow ~seq:0 ~last:true ~bytes ~route:r;
  Sim.Net.release_route net r

let net_delivers_along_route () =
  let eng, _, net = mk_net () in
  let delivered = ref false in
  (* Packets are freed after the callback returns, so inspect in place. *)
  Sim.Net.on_deliver net (fun pkt ->
      delivered := true;
      Alcotest.(check int) "arrived at final hop" 2
        (Sim.Net.route_at net pkt (Sim.Net.hop net pkt)));
  (* route 0 -> 1 -> 2 on the first row of the 4x4 torus *)
  send_data net ~flow:1 ~bytes:1500 [| 0; 1; 2 |];
  Sim.Engine.run eng;
  Alcotest.(check bool) "delivered" true !delivered;
  (* 2 hops x (serialization 1200ns + latency 100ns) *)
  Alcotest.(check int) "latency model" 2600 (Sim.Engine.now eng)

let net_serialization_queuing () =
  let eng, _, net = mk_net () in
  let times = ref [] in
  Sim.Net.on_deliver net (fun _ -> times := Sim.Engine.now eng :: !times);
  for i = 0 to 2 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  (* Back-to-back packets serialize at 1200ns each; propagation overlaps. *)
  Alcotest.(check (list int)) "pipelined deliveries" [ 1300; 2500; 3700 ] (List.rev !times)

let net_tail_drop () =
  let eng, _, net = mk_net ~queue_capacity:3000 () in
  let drops = ref 0 in
  Sim.Net.on_drop net (fun _ -> incr drops);
  for i = 0 to 4 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "drops counted" !drops (Sim.Net.drops net);
  Alcotest.(check bool) "some dropped" true (!drops >= 2)

let net_max_queue_tracked () =
  let eng, _, net = mk_net () in
  for i = 0 to 3 do
    send_data net ~flow:i ~bytes:1500 [| 0; 1 |]
  done;
  Sim.Engine.run eng;
  let q = Sim.Net.max_queue_bytes net in
  Alcotest.(check int) "peak queue = 4 packets" 6000 (Array.fold_left max 0 q)

let net_broadcast_reaches_all () =
  let eng, topo, net = mk_net () in
  let b = Broadcast.make topo in
  Sim.Net.set_broadcast net b;
  let received = Array.make 16 false in
  Sim.Net.on_bcast_deliver net (fun _ ~node -> received.(node) <- true);
  Sim.Net.send_bcast net ~root:0 ~tree:0 ~bcast_id:1 ~bytes:16 ();
  Sim.Engine.run eng;
  received.(0) <- true;
  Alcotest.(check bool) "every node got a copy" true (Array.for_all Fun.id received);
  let ctrl = U.to_float (Sim.Net.control_bytes_on_wire net) in
  Alcotest.(check bool) "control bytes counted" true (ctrl >= 16.0 *. 15.0)

let net_wire_counters () =
  let eng, _, net = mk_net () in
  send_data net ~flow:0 ~bytes:1000 [| 0; 1; 2 |];
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "bytes x hops" 2000.0 (U.to_float (Sim.Net.data_bytes_on_wire net));
  Sim.Net.reset_wire_counters net;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (U.to_float (Sim.Net.data_bytes_on_wire net))

let net_requires_fib_for_broadcast () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "no FIB" (Invalid_argument "Net: broadcast FIB not configured")
    (fun () -> Sim.Net.send_bcast net ~root:0 ~tree:0 ~bcast_id:1 ~bytes:16 ())

let net_rejects_bad_route () =
  let _, _, net = mk_net () in
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Net.send: route crosses non-adjacent vertices") (fun () ->
      send_data net ~flow:0 ~bytes:100 [| 0; 10 |]);
  Alcotest.check_raises "too short" (Invalid_argument "Net.send: route needs at least two vertices")
    (fun () -> send_data net ~flow:0 ~bytes:100 [| 0 |])

let net_steady_state_zero_alloc () =
  (* The zero-allocation contract, asserted rather than merely benchmarked:
     a steady-state send/ack loop — data 0->1, ack 1->0, next data on each
     ack — must not allocate minor words per packet once pools, queues and
     the serialization memo have warmed up. A regression to per-packet
     records or options shows up as tens of words per packet here. *)
  let eng, _, net = mk_net () in
  let fwd = Sim.Net.intern_route net [| 0; 1 |] in
  let rev = Sim.Net.intern_route net [| 1; 0 |] in
  let remaining = ref 0 in
  Sim.Net.on_deliver net (fun pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_data then
        Sim.Net.send_ack net ~flow:0 ~ackno:(Sim.Net.data_seq net pkt) ~bytes:64
          ~route:rev
      else if !remaining > 0 then begin
        decr remaining;
        Sim.Net.send_data net ~flow:0 ~seq:!remaining ~last:false ~bytes:1500
          ~route:fwd
      end);
  let run n =
    remaining := n;
    Sim.Net.send_data net ~flow:0 ~seq:0 ~last:false ~bytes:1500 ~route:fwd;
    Sim.Engine.run eng
  in
  run 200;
  let before = Gc.minor_words () in
  run 2000;
  let per_pkt = (Gc.minor_words () -. before) /. 4000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per packet ~ 0 (got %.3f)" per_pkt)
    true (per_pkt < 0.05);
  Sim.Net.release_route net fwd;
  Sim.Net.release_route net rev

let net_route_interning_zero_alloc () =
  (* The same loop, but as the R2C2 sender works: every data packet interns
     its own route from a reusable path buffer and releases it once sent.
     With the per-length free lists warm, the pair allocates nothing; free
     lists kept in a hashtable cost an option box per lookup (4 words per
     packet). *)
  let eng, _, net = mk_net () in
  let buf = [| 0; 1; 9; 9 |] in
  let rev = Sim.Net.intern_route net [| 1; 0 |] in
  let remaining = ref 0 in
  let send_fresh seq =
    let route = Sim.Net.intern_prefix net buf 2 in
    Sim.Net.send_data net ~flow:0 ~seq ~last:false ~bytes:1500 ~route;
    Sim.Net.release_route net route
  in
  Sim.Net.on_deliver net (fun pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_data then
        Sim.Net.send_ack net ~flow:0 ~ackno:(Sim.Net.data_seq net pkt) ~bytes:64
          ~route:rev
      else if !remaining > 0 then begin
        decr remaining;
        send_fresh !remaining
      end);
  let run n =
    remaining := n;
    send_fresh 0;
    Sim.Engine.run eng
  in
  run 200;
  let before = Gc.minor_words () in
  run 2000;
  let per_pkt = (Gc.minor_words () -. before) /. 4000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per packet ~ 0 (got %.3f)" per_pkt)
    true (per_pkt < 0.05);
  Sim.Net.release_route net rev

let sampled_route_zero_alloc proto () =
  (* The data plane's per-packet routing on the paper's 8x8x8 rack, as
     R2c2_sim.inject runs it: sample into the context's path buffer,
     intern the prefix, send, release. Once the distance arrays and the
     per-length free lists are warm, a packet's route allocates nothing. *)
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 8; 8; 8 |] in
  let net = Sim.Net.create eng topo ~link_gbps:Topology.link_gbps () in
  let rctx = Routing.make topo in
  let rng = Util.Rng.create 7 in
  let draw n =
    for _ = 1 to n do
      let src = Util.Rng.int rng 512 in
      let dst = (src + 1 + Util.Rng.int rng 511) mod 512 in
      let len = Routing.sample_into rctx rng proto ~src ~dst in
      let route = Sim.Net.intern_prefix net (Routing.path_buffer rctx) len in
      Sim.Net.release_route net route
    done
  in
  for dst = 0 to 511 do
    ignore (Topology.dist_to topo dst)
  done;
  draw 5_000;
  let n = 20_000 in
  let before = Gc.minor_words () in
  draw n;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%s: minor words per sampled route ~ 0 (got %.3f)"
       (Routing.protocol_name proto) per_call)
    true (per_call < 0.05)

let net_broadcast_replication_zero_alloc () =
  (* The same contract for broadcast replicas: once every tree of a 4x4x4
     torus is built, a flood is a walk over each tree's FIB bits — no
     hashtable probe, child list, closure or link option per hop. *)
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 4; 4; 4 |] in
  let net = Sim.Net.create eng topo ~link_gbps:Topology.link_gbps () in
  let b = Broadcast.make topo in
  Sim.Net.set_broadcast net b;
  let flood () =
    for src = 0 to 63 do
      for tree = 0 to 3 do
        Sim.Net.send_bcast net ~root:src ~tree ~bcast_id:src ~bytes:16 ()
      done
    done;
    Sim.Engine.run eng
  in
  (* The first flood builds the trees and grows the pool and engine. *)
  flood ();
  let hops0 = Sim.Net.ctrl_hops net in
  let before = Gc.minor_words () in
  flood ();
  let words = Gc.minor_words () -. before in
  let hops = Sim.Net.ctrl_hops net - hops0 in
  Alcotest.(check int) "every tree spans the rack" (64 * 4 * 63) hops;
  let per_hop = words /. float_of_int hops in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per replica hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

let digest_check_zero_alloc () =
  (* The anti-entropy steady state: every origin beacons a digest per tree
     and every caught-up node checks it against its view hash. With the
     windows warm, a digest hop — chaos draws, window lookup
     and hash compare included — allocates nothing. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      reliable_bcast = true;
      control_loss = U.fraction 0.01;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  let net = Sim.R2c2_sim.net t and eng = Sim.R2c2_sim.engine t in
  let empty = Rbcast.state_hash (Rbcast.origin ~trees:1 ()) in
  let flood () =
    for root = 0 to 63 do
      for tree = 0 to 3 do
        Sim.Net.send_digest_tree net ~root ~tree ~epoch:0 ~last_seq:(-1) ~hash:empty
          ~bytes:Wire.digest_size
      done
    done;
    Sim.Engine.run eng
  in
  let set_loss p =
    Sim.Net.set_control_chaos net ~seed:0 ~loss:(U.fraction p) ~reorder:U.zero ~dup:U.zero
  in
  (* The first flood creates the windows and grows the pool and engine. It
     runs lossless: a digest lost there would leave its subtree's windows
     to be created during the measured flood. *)
  set_loss 0.0;
  flood ();
  set_loss 0.01;
  let hops0 = Sim.Net.ctrl_hops net in
  let before = Gc.minor_words () in
  flood ();
  let words = Gc.minor_words () -. before in
  let hops = Sim.Net.ctrl_hops net - hops0 in
  Alcotest.(check bool) "digests flooded the rack, some lost" true
    (hops > 64 * 4 * 60 && hops < 64 * 4 * 63);
  Alcotest.(check int) "no sync requested" 0 (Sim.R2c2_sim.results t).Sim.R2c2_sim.sync_requests;
  let per_hop = words /. float_of_int hops in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per digest hop ~ 0 (got %.3f)" per_hop)
    true (per_hop < 0.05)

(* Flood every (root, tree) of a 4x4x4 torus at once. A relay passes the
   arrived packet itself to its last child, copies it for the others, and
   a leaf frees it; the trees hold all three kinds of vertex. Without
   chaos each non-root vertex hears each flood exactly once and the root
   never does. Under control-plane duplication each duplicate is its own
   packet with its own arrival key: every vertex still hears every flood,
   each delivery is a hop or a duplicate, and in both runs no packet is
   left in the pool. *)
let net_flood_each_tree_once () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let b = Broadcast.make topo in
  let trees = Broadcast.trees_per_source b in
  let kinds = Array.make 3 0 in
  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1)) in
  for root = 0 to 63 do
    for tree = 0 to trees - 1 do
      let fib = Broadcast.fib b ~src:root ~tree in
      (* A vertex of degree 6: one byte, its set bits the child count. *)
      let lay = Topology.tree_layout topo in
      for v = 0 to 63 do
        let k = min 2 (popcount (Char.code (Bytes.get (fib :> Bytes.t) lay.first_byte.(v)))) in
        kinds.(k) <- kinds.(k) + 1
      done
    done
  done;
  Alcotest.(check bool) "the trees hold leaves, one-child and branching relays" true
    (Array.for_all (fun n -> n > 0) kinds);
  let flood ~dup =
    let eng = Sim.Engine.create () in
    let net = Sim.Net.create eng topo ~link_gbps:Topology.link_gbps () in
    Sim.Net.set_broadcast net b;
    if dup > 0.0 then
      Sim.Net.set_control_chaos net ~seed:5 ~loss:U.zero ~reorder:U.zero ~dup:(U.fraction dup);
    let heard = Array.make (64 * trees * 64) 0 in
    Sim.Net.on_bcast_deliver net (fun pkt ~node ->
        let id = Sim.Net.bcast_id net pkt in
        Alcotest.(check int) "root field intact" (id / trees) (Sim.Net.bcast_root net pkt);
        Alcotest.(check int) "tree field intact" (id mod trees) (Sim.Net.bcast_tree net pkt);
        heard.((id * 64) + node) <- heard.((id * 64) + node) + 1);
    for root = 0 to 63 do
      for tree = 0 to trees - 1 do
        Sim.Net.send_bcast net ~root ~tree ~bcast_id:((root * trees) + tree) ~bytes:16 ()
      done
    done;
    Sim.Engine.run eng;
    Alcotest.(check int) "no packet left in the pool" 0 (Sim.Net.packets_in_flight net);
    Alcotest.(check int) "every scheduled event fired" 0 (Sim.Engine.pending eng);
    (net, heard)
  in
  let net, heard = flood ~dup:0.0 in
  Array.iteri
    (fun i n ->
      let id = i / 64 and node = i mod 64 in
      let want = if node = id / trees then 0 else 1 in
      if n <> want then
        Alcotest.failf "root %d tree %d: node %d heard %d copies, want %d" (id / trees)
          (id mod trees) node n want)
    heard;
  Alcotest.(check int) "one hop per tree edge" (64 * trees * 63) (Sim.Net.ctrl_hops net);
  let net, heard = flood ~dup:0.2 in
  Array.iteri
    (fun i n ->
      let id = i / 64 and node = i mod 64 in
      if node <> id / trees && n < 1 then
        Alcotest.failf "dup: root %d tree %d: node %d never heard the flood" (id / trees)
          (id mod trees) node)
    heard;
  Alcotest.(check bool) "duplicates injected" true (Sim.Net.ctrl_dupped net > 0);
  Alcotest.(check int) "each delivery is a hop or a duplicate"
    (Sim.Net.ctrl_hops net + Sim.Net.ctrl_dupped net)
    (Array.fold_left ( + ) 0 heard)

(* Relay FIBs are kept per topology version. Every (root, tree) of a
   4x4x4 torus is flooded through [Net] before and after a node failure
   applied to both [Net] and [Topology], which moves the version: each
   flood reaches every other live vertex exactly once, so no relay
   forwards over a tree the failure broke. A [Broadcast] driven without
   [Net] — every tree walked through [Broadcast.children] before and after
   the same failure — counts the same repairs. *)
let net_fib_memo_across_failure () =
  let dims = [| 4; 4; 4 |] and dead = 21 in
  let topo = Topology.torus dims in
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng topo ~link_gbps:Topology.link_gbps () in
  let b = Broadcast.make topo in
  Sim.Net.set_broadcast net b;
  let trees = Broadcast.trees_per_source b in
  let heard = Array.make (64 * trees * 64) 0 in
  Sim.Net.on_bcast_deliver net (fun pkt ~node ->
      let i = (Sim.Net.bcast_id net pkt * 64) + node in
      heard.(i) <- heard.(i) + 1);
  let flood label =
    Array.fill heard 0 (Array.length heard) 0;
    for root = 0 to 63 do
      if Topology.node_alive topo root then
        for tree = 0 to trees - 1 do
          Sim.Net.send_bcast net ~root ~tree ~bcast_id:((root * trees) + tree) ~bytes:16 ()
        done
    done;
    Sim.Engine.run eng;
    Array.iteri
      (fun i n ->
        let id = i / 64 and node = i mod 64 in
        let root = id / trees in
        let live v = Topology.node_alive topo v in
        let want = if node <> root && live root && live node then 1 else 0 in
        if n <> want then
          Alcotest.failf "%s: root %d tree %d: node %d heard %d copies, want %d" label root
            (id mod trees) node n want)
      heard
  in
  flood "before";
  let v0 = Topology.version topo in
  Sim.Net.fail_node net dead;
  Topology.fail_node topo dead;
  Alcotest.(check bool) "the version moved" true (Topology.version topo > v0);
  flood "after";
  let topo' = Topology.torus dims in
  let b' = Broadcast.make topo' in
  let walk () =
    for root = 0 to 63 do
      if Topology.node_alive topo' root then
        for tree = 0 to trees - 1 do
          let rec down v = List.iter down (Broadcast.children b' ~src:root ~tree v) in
          down root
        done
    done
  in
  walk ();
  Topology.fail_node topo' dead;
  walk ();
  Alcotest.(check bool) "the failure broke some trees" true (Broadcast.repairs b' > 0);
  Alcotest.(check int) "repairs as without the memo" (Broadcast.repairs b') (Broadcast.repairs b)

(* A tap installed between two runs sees every arrival after it: the
   same arrivals, at the same times, as a tap installed from the start
   sees past that instant. *)
let net_tap_installed_mid_run () =
  let mid = 5_000 in
  let run ~early =
    let eng, topo, net = mk_net () in
    Sim.Net.set_broadcast net (Broadcast.make topo);
    let seen = ref [] in
    let tap () =
      Sim.Net.set_arrive_tap net (fun ~node _ -> seen := (Sim.Engine.now eng, node) :: !seen)
    in
    if early then tap ();
    for i = 0 to 9 do
      send_data net ~flow:i ~bytes:1500 [| 0; 1; 2; 3 |]
    done;
    Sim.Net.send_bcast net ~root:5 ~tree:0 ~bcast_id:1 ~bytes:16 ();
    Sim.Engine.run ~until:mid eng;
    if not early then tap ();
    Sim.Engine.run eng;
    List.rev !seen
  in
  let all = run ~early:true and late = run ~early:false in
  Alcotest.(check bool) "arrivals on both sides of the install" true
    (List.exists (fun (t, _) -> t <= mid) all && late <> []);
  Alcotest.(check (list (pair int int))) "every later arrival counted"
    (List.filter (fun (t, _) -> t > mid) all)
    late

(* The data plane's zero-allocation gate: 512 single-hop streams on the
   8x8x8 torus with 32 packets in flight each, so over a
   thousand keyed events (a serialization end per busy link and the
   arrivals in flight) are pending at once. Each delivery sends the
   stream's next packet; after a warm-up tranche, a packet costs under
   0.05 minor words. *)
let net_many_streams_zero_alloc () =
  let streams = 512 and window = 32 and warmup = 10 and measured = 100 in
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 8; 8; 8 |] in
  let net = Sim.Net.create eng topo ~link_gbps:(U.gbps 100.0) () in
  let routes =
    Array.init streams (fun s ->
        Sim.Net.intern_route net [| s; s - (s mod 8) + (((s mod 8) + 1) mod 8) |])
  in
  let sent = Array.make streams 0 in
  let send s =
    Sim.Net.send_data net ~flow:s ~seq:sent.(s) ~last:false ~bytes:1500 ~route:routes.(s);
    sent.(s) <- sent.(s) + 1
  in
  let delivered = ref 0 and pending_max = ref 0 in
  let w0 = ref 0.0 and w1 = ref 0.0 in
  Sim.Net.on_deliver net (fun pkt ->
      incr delivered;
      if !delivered = streams * warmup then w0 := Gc.minor_words ()
      else if !delivered = streams * (warmup + measured) then w1 := Gc.minor_words ();
      pending_max := max !pending_max (Sim.Engine.pending eng);
      let s = Sim.Net.data_flow net pkt in
      if sent.(s) < window + warmup + measured then send s);
  for s = 0 to streams - 1 do
    for _ = 1 to window do
      send s
    done
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "every packet delivered" (streams * (window + warmup + measured))
    !delivered;
  Alcotest.(check bool)
    (Printf.sprintf "over 1k keyed events pending (max %d)" !pending_max)
    true (!pending_max >= 1_000);
  let per_pkt = (!w1 -. !w0) /. float_of_int (streams * measured) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per packet ~ 0 (got %.3f)" per_pkt)
    true (per_pkt < 0.05);
  Array.iter (Sim.Net.release_route net) routes

(* -- metrics --------------------------------------------------------------- *)

let metrics_flow_lifecycle () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_flow m ~id:0 ~src:1 ~dst:2 ~size:3000 ~arrival_ns:100;
  Alcotest.(check bool) "incomplete" false (Sim.Metrics.complete m (Sim.Metrics.find m 0));
  Alcotest.(check bool) "first not final" false
    (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:1500 ~now:200);
  Alcotest.(check bool) "second completes" true
    (Sim.Metrics.record_delivery m ~id:0 ~seq:1 ~payload:1500 ~now:400);
  Alcotest.(check int) "fct" 300 (Sim.Metrics.fct_ns (Sim.Metrics.find m 0));
  Alcotest.(check int) "completed count" 1 (Sim.Metrics.completed_count m)

let metrics_out_of_order_and_dups () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_flow m ~id:0 ~src:1 ~dst:2 ~size:4500 ~arrival_ns:0;
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:2 ~payload:1500 ~now:10);
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:1 ~payload:1500 ~now:20);
  (* duplicate of seq 2 must not double-count *)
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:2 ~payload:1500 ~now:25);
  Alcotest.(check bool) "completes on seq 0" true
    (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:1500 ~now:30);
  let f = Sim.Metrics.find m 0 in
  Alcotest.(check int) "reorder buffer peaked at 2" 2 f.Sim.Metrics.reorder_max;
  Alcotest.(check int) "all bytes" 4500 f.Sim.Metrics.delivered

(* A flow makes its reorder table on its first out-of-order packet and
   drops it at completion: a flow delivered in order never holds one. *)
let metrics_reorder_table_lives_with_reordering () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.add_flow m ~id:0 ~src:1 ~dst:2 ~size:3000 ~arrival_ns:0;
  Sim.Metrics.add_flow m ~id:1 ~src:1 ~dst:2 ~size:3000 ~arrival_ns:0;
  let table id = Option.is_some (Sim.Metrics.find m id).Sim.Metrics.ooo in
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:1500 ~now:10);
  Alcotest.(check bool) "in order: no table" false (table 0);
  ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:1 ~payload:1500 ~now:20);
  Alcotest.(check bool) "completed in order: no table" false (table 0);
  ignore (Sim.Metrics.record_delivery m ~id:1 ~seq:1 ~payload:1500 ~now:10);
  Alcotest.(check bool) "first out-of-order packet makes one" true (table 1);
  Alcotest.(check bool) "completes" true
    (Sim.Metrics.record_delivery m ~id:1 ~seq:0 ~payload:1500 ~now:20);
  Alcotest.(check bool) "dropped at completion" false (table 1);
  Alcotest.(check int) "reorder buffer peaked at 1" 1 (Sim.Metrics.find m 1).Sim.Metrics.reorder_max

(* A fixed reordering input: four flows of 40 packets, the last packet
   700 bytes, each delivered in windows of 2, 3, 5 and 8 shuffled
   packets, every fifth delivery of a flow followed by a duplicate of an
   earlier sequence, the flows interleaved one delivery at a time. Each
   flow's (reorder_max, delivered bytes, FCT) after the whole input. *)
let reorder_fixture () =
  let m = Sim.Metrics.create () in
  let rng = Util.Rng.create 42 in
  let pkts = 40 in
  let orders =
    Array.init 4 (fun id ->
        Sim.Metrics.add_flow m ~id ~src:0 ~dst:1 ~size:(((pkts - 1) * 1500) + 700)
          ~arrival_ns:(id * 100);
        let w = [| 2; 3; 5; 8 |].(id) in
        let order = Array.init pkts Fun.id in
        let k = ref 0 in
        while !k < pkts do
          let len = min w (pkts - !k) in
          let win = Array.sub order !k len in
          Util.Rng.shuffle rng win;
          Array.blit win 0 order !k len;
          k := !k + len
        done;
        order)
  in
  let now = ref 1_000 in
  let deliver id seq =
    now := !now + 10;
    let payload = if seq = pkts - 1 then 700 else 1500 in
    ignore (Sim.Metrics.record_delivery m ~id ~seq ~payload ~now:!now)
  in
  for i = 0 to pkts - 1 do
    Array.iteri
      (fun id order ->
        deliver id order.(i);
        if i mod 5 = 4 then deliver id order.(Util.Rng.int rng (i + 1)))
      orders
  done;
  List.init 4 (fun id ->
      let f = Sim.Metrics.find m id in
      ( f.Sim.Metrics.reorder_max,
        f.Sim.Metrics.delivered,
        if Sim.Metrics.complete m f then Sim.Metrics.fct_ns f else -1 ))

(* The results of the fixed input, pinned while every flow held its
   reorder table from the start. *)
let metrics_reorder_fixture_pinned () =
  Alcotest.(check (list (triple int int int)))
    "reorder_max, delivered bytes and FCT per flow"
    [ (1, 59200, 2850); (2, 59200, 2770); (4, 59200, 2690); (7, 59200, 2610) ]
    (reorder_fixture ())

(* -- r2c2 transport --------------------------------------------------------- *)

let default_specs topo rng n tau =
  Workload.Flowgen.poisson_pareto topo rng ~flows:n ~mean_interarrival_ns:tau

let r2c2_delivers_everything () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 3) 150 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all flows complete" 150 (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  Alcotest.(check int) "no drops with unbounded queues" 0 res.Sim.R2c2_sim.drops;
  List.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics i in
      Alcotest.(check int) "every byte delivered" s.size f.Sim.Metrics.delivered)
    specs

let r2c2_single_flow_line_rate () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 1; size = 1_000_000; weight = 1; priority = 0 } ]
  in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics 0 in
  let gbps = tput f in
  (* Line rate 10G minus header overhead and pipeline latency. *)
  Alcotest.(check bool) (Printf.sprintf "near line rate (got %.2f)" gbps) true (gbps > 8.5)

let r2c2_clean_epochs_skipped () =
  (* One long flow spans many recompute intervals but generates exactly one
     rate-changing event (its start broadcast completing); with dirty-flow
     tracking every later epoch is clean and must be skipped, where the
     full-rebuild path recomputed on all of them. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 3; size = 4_000_000; weight = 1; priority = 0 } ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics 0 in
  Alcotest.(check int) "flow completes" 4_000_000 f.Sim.Metrics.delivered;
  (* ~30+ epochs elapse; only the dirty one after visibility computes. *)
  Alcotest.(check bool)
    (Printf.sprintf "steady-state epochs skipped (%d recomputes)" res.Sim.R2c2_sim.recomputes)
    true
    (res.Sim.R2c2_sim.recomputes >= 1 && res.Sim.R2c2_sim.recomputes <= 3);
  Alcotest.(check bool) "rate still applied"
    true
    (tput f > 5.0)

let r2c2_deterministic () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 5) 80 1_000.0 in
  let r1 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let r2 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  List.iteri
    (fun i _ ->
      Alcotest.(check int) "same fct"
        (Sim.Metrics.fct_ns (Sim.Metrics.find r1.Sim.R2c2_sim.metrics i))
        (Sim.Metrics.fct_ns (Sim.Metrics.find r2.Sim.R2c2_sim.metrics i)))
    specs

(* Byte-exact metrics snapshot of a seeded 4x4-torus run: per-flow records
   in [Metrics.all] order, the goodput time series, every sampled rate
   update and all the accounting counters. Parameterized over the engine
   backend (for the heap-vs-calendar differential test) and an optional
   control-plane chaos scenario. *)
let metrics_snapshot ?(backend = Sim.Engine.Calendar) ?(chaos = false) () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 11) 60 1_000.0 in
  let cfg =
    { Sim.R2c2_sim.default_config with
      recompute_interval_ns = 100_000;
      reselect_interval_ns = Some 200_000;
      engine_backend = backend;
    }
  in
  let cfg =
    if chaos then
      { cfg with
        Sim.R2c2_sim.control_loss = U.fraction 0.2;
        control_reorder = U.fraction 0.1;
        control_dup = U.fraction 0.05;
      }
    else cfg
  in
  let t = Sim.R2c2_sim.create cfg topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      Sim.Engine.at (Sim.R2c2_sim.engine t) s.arrival_ns (fun () ->
          ignore
            (Sim.R2c2_sim.start_flow ~weight:s.weight ~priority:s.priority t ~src:s.src
               ~dst:s.dst ~size:s.size)))
    specs;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  let buf = Buffer.create 8192 in
  List.iter
    (fun (f : Sim.Metrics.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %d->%d size=%d t0=%d tx=%d del=%d fin=%d ro=%d\n" f.id f.src
           f.dst f.size f.arrival_ns f.start_tx_ns f.delivered f.finish_ns f.reorder_max))
    (Sim.Metrics.all r.metrics);
  Array.iter
    (fun (ns, b) -> Buffer.add_string buf (Printf.sprintf "goodput %d %d\n" ns b))
    (Sim.Metrics.goodput_series r.metrics);
  List.iter
    (fun (ns, gbps) ->
      Buffer.add_string buf (Printf.sprintf "rate %d %.17g\n" ns (U.to_float gbps)))
    r.rate_updates;
  Buffer.add_string buf
    (Printf.sprintf "drops=%d recomputes=%d reselections=%d rerouted=%d inj=%d del=%d\n"
       r.drops r.recomputes r.reselections r.flows_rerouted r.injected_payload
       r.delivered_payload);
  (* Chaos-only so the clean snapshot stays byte-compatible with the
     golden pin below. *)
  if chaos then
    Buffer.add_string buf
      (Printf.sprintf "lost=%d lostB=%d reord=%d dup=%d\n" r.ctrl_lost r.ctrl_lost_bytes
         r.ctrl_reordered r.ctrl_dupped);
  Buffer.contents buf

let r2c2_metrics_snapshot_deterministic () =
  (* Stronger than [r2c2_deterministic]: two identically-seeded runs of a
     4x4 torus must produce *byte-identical* metric snapshots. Guards the
     Util.Tbl sorted-iteration conversion: any hash-order dependence left
     in the sim (or reintroduced later) shows up here as a diff. *)
  let s1 = metrics_snapshot () and s2 = metrics_snapshot () in
  Alcotest.(check bool) "snapshot is non-trivial" true (String.length s1 > 1000);
  Alcotest.(check string) "identical snapshots" s1 s2;
  (* Golden pin, captured immediately *before* the Util.Units sweep: the
     phantom wrappers are all [%identity] and the combinators are the
     literal raw formulas, so the typed stack must reproduce the unwrapped
     trajectory to the byte — not merely be self-consistent. *)
  Alcotest.(check int) "pre-sweep snapshot length" 4804 (String.length s1);
  Alcotest.(check string) "pre-sweep snapshot digest" "cdb08d68b4acc8b58fb70e9159ebabf6"
    (Digest.to_hex (Digest.string s1))

let r2c2_backend_differential () =
  (* The calendar queue must be observationally identical to the binary
     heap it replaced: same-instant events fire in the same FIFO order, so
     a full 4x4-torus run — and one with control-plane chaos layered on
     top (loss, reordering, duplication all active) — must produce
     byte-identical metric snapshots under both engine backends. *)
  Alcotest.(check string) "clean run: heap = calendar"
    (metrics_snapshot ~backend:Sim.Engine.Binary_heap ())
    (metrics_snapshot ~backend:Sim.Engine.Calendar ());
  Alcotest.(check string) "chaos run: heap = calendar"
    (metrics_snapshot ~backend:Sim.Engine.Binary_heap ~chaos:true ())
    (metrics_snapshot ~backend:Sim.Engine.Calendar ~chaos:true ())

let r2c2_rate_limited_after_epoch () =
  (* Two long flows from distinct sources to the same destination must
     converge to ~half the destination capacity each after recomputation. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  Alcotest.(check bool) "recomputed at least once" true (res.Sim.R2c2_sim.recomputes >= 1);
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  (* Destination node 0 has 4 incoming links; two spraying flows share
     paths towards it. Fairness: roughly equal rates. *)
  Alcotest.(check bool) (Printf.sprintf "fair split (%.2f vs %.2f)" t0 t1) true
    (abs_float (t0 -. t1) /. Float.max t0 t1 < 0.25)

let r2c2_broadcast_overhead_counted () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 7) 50 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  (* Every flow start and finish is a real broadcast: 2 * 15 tree edges *
     16 bytes, all of which cross exactly one link each. *)
  Alcotest.(check (float 1.0)) "control wire bytes" (float_of_int (50 * 2 * 15 * 16))
    (U.to_float res.Sim.R2c2_sim.control_wire_bytes)

let r2c2_respects_weights () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 6_000_000; weight = 3; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 2_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 50_000 } in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "weighted flow faster (%.2f vs %.2f)" t0 t1) true (t0 > t1)

let r2c2_per_node_control () =
  (* The paper's literal decentralized design must complete everything and
     land close to the global-epoch approximation. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 23) 150 1_000.0 in
  let global = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let per_node =
    Sim.R2c2_sim.run
      { Sim.R2c2_sim.default_config with control = Sim.R2c2_sim.Per_node }
      topo specs
  in
  Alcotest.(check int) "all complete" 150
    (Sim.Metrics.completed_count per_node.Sim.R2c2_sim.metrics);
  let m_g = Util.Stats.mean (Sim.Metrics.fcts_us global.Sim.R2c2_sim.metrics) in
  let m_p = Util.Stats.mean (Sim.Metrics.fcts_us per_node.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "mean FCT within 30%% (%.1f vs %.1f us)" m_g m_p)
    true
    (abs_float (m_g -. m_p) /. Float.max m_g m_p < 0.3)

let r2c2_per_node_long_flows_fair () =
  (* Two long flows from different senders: each sender computes its own
     rate from broadcasts and they still converge to a fair split. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      recompute_interval_ns = 100_000;
    }
  in
  let res = Sim.R2c2_sim.run cfg topo specs in
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "fair (%.2f vs %.2f)" t0 t1) true
    (abs_float (t0 -. t1) /. Float.max t0 t1 < 0.25)

let r2c2_host_limited_flow () =
  (* A demand-capped flow frees its unused share for the competing flow
     (SS3.3.2 host-limited flows). *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [
      { Workload.Flowgen.arrival_ns = 0; src = 1; dst = 0; size = 1_000_000; weight = 1; priority = 0 };
      { Workload.Flowgen.arrival_ns = 0; src = 2; dst = 0; size = 4_000_000; weight = 1; priority = 0 };
    ]
  in
  let demand_of idx _ = if idx = 0 then Some (U.gbps 1.0) else None in
  let cfg = { Sim.R2c2_sim.default_config with recompute_interval_ns = 100_000 } in
  let res = Sim.R2c2_sim.run ~demand_of cfg topo specs in
  Alcotest.(check int) "both complete" 2 (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  let t0 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 0) in
  let t1 = tput (Sim.Metrics.find res.Sim.R2c2_sim.metrics 1) in
  Alcotest.(check bool) (Printf.sprintf "capped near 1 Gbps (got %.2f)" t0) true (t0 < 1.3);
  Alcotest.(check bool) (Printf.sprintf "other soaks the slack (got %.2f)" t1) true (t1 > 5.0)

let r2c2_live_reselection () =
  (* SS3.4 closed loop inside the simulator: long flows get re-assigned a
     routing protocol mid-run and everything still completes. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let rng = Util.Rng.create 29 in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 3_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.5))
  in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      recompute_interval_ns = 200_000;
      reselect_interval_ns = Some 400_000;
    }
  in
  let res = Sim.R2c2_sim.run cfg topo specs in
  Alcotest.(check int) "all complete" (List.length specs)
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics);
  Alcotest.(check bool) "reselections ran" true (res.Sim.R2c2_sim.reselections >= 1)

let r2c2_reselection_not_worse () =
  (* With reselection on, aggregate completion time of a long-flow batch
     should not regress materially. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let rng = Util.Rng.create 31 in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 3_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.25))
  in
  let base = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let cfg = { Sim.R2c2_sim.default_config with reselect_interval_ns = Some 300_000 } in
  let sel = Sim.R2c2_sim.run cfg topo specs in
  let mean r = Util.Stats.mean (Sim.Metrics.fcts_us r.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "no big regression (%.0f vs %.0f us)" (mean base) (mean sel))
    true
    (mean sel <= mean base *. 1.15)

(* -- dynamic handle API -------------------------------------------------- *)

let dynamic_chained_flows () =
  (* A completion callback starting a response flow mid-simulation: the
     request/response pattern of an RPC. *)
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let eng = Sim.R2c2_sim.engine sim in
  let response_done = ref (-1) in
  Sim.Engine.at eng 0 (fun () ->
      ignore
        (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:5 ~size:2_000 ~on_complete:(fun _ ->
             ignore
               (Sim.R2c2_sim.start_flow sim ~src:5 ~dst:0 ~size:10_000
                  ~on_complete:(fun _ -> response_done := Sim.Engine.now eng)))));
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check bool) "response completed" true (!response_done > 0);
  let res = Sim.R2c2_sim.results sim in
  Alcotest.(check int) "two flows total" 2
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let dynamic_on_complete_gets_id () =
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let seen = ref [] in
  let eng = Sim.R2c2_sim.engine sim in
  Sim.Engine.at eng 0 (fun () ->
      for i = 0 to 2 do
        let id =
          Sim.R2c2_sim.start_flow sim ~src:i ~dst:(i + 4) ~size:5_000
            ~on_complete:(fun id -> seen := id :: !seen)
        in
        Alcotest.(check int) "sequential ids" i id
      done);
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check (list int)) "all callbacks fired" [ 0; 1; 2 ] (List.sort compare !seen)

let dynamic_run_engine_resumable () =
  (* run_engine can be called repeatedly as more work is scripted. *)
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  let eng = Sim.R2c2_sim.engine sim in
  Sim.Engine.at eng 0 (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:1 ~size:3_000));
  Sim.R2c2_sim.run_engine sim;
  let first = Sim.Metrics.completed_count (Sim.R2c2_sim.metrics sim) in
  Sim.Engine.at eng (Sim.Engine.now eng) (fun () ->
      ignore (Sim.R2c2_sim.start_flow sim ~src:2 ~dst:3 ~size:3_000));
  Sim.R2c2_sim.run_engine sim;
  Alcotest.(check int) "first round" 1 first;
  Alcotest.(check int) "second round" 2 (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics sim))

let dynamic_validates_inputs () =
  let topo = Topology.torus [| 4; 4 |] in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
  Alcotest.check_raises "self flow" (Invalid_argument "R2c2_sim: flow with src = dst")
    (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:1 ~dst:1 ~size:100));
  Alcotest.check_raises "empty flow" (Invalid_argument "R2c2_sim: non-positive flow size")
    (fun () -> ignore (Sim.R2c2_sim.start_flow sim ~src:1 ~dst:2 ~size:0));
  (* A 4x4 torus has no vertex 16. The refused call takes no flow id and
     leaves no Metrics record behind. *)
  let not_host = Invalid_argument "R2c2_sim: endpoint is not a host" in
  Alcotest.check_raises "no such vertex" not_host (fun () ->
      ignore (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:16 ~size:100));
  Alcotest.(check int) "no flow id consumed" 0
    (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:1 ~size:100);
  Alcotest.(check int) "one Metrics record" 1
    (List.length (Sim.Metrics.all (Sim.R2c2_sim.metrics sim)));
  (* On a folded Clos the vertices past the 16 hosts are switches. *)
  let clos = Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:4 in
  let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config clos in
  Alcotest.check_raises "switch endpoint" not_host (fun () ->
      ignore (Sim.R2c2_sim.start_flow sim ~src:0 ~dst:16 ~size:100))

let dynamic_rejects_unsendable_class () =
  (* The start broadcast carries weight and priority in one byte each, so
     a class outside 1..255 / 0..255 is refused before it takes a flow id
     or, under overload control, counts as shed (a fresh controller sheds
     every class numerically >= 8, so priority 256 would be). *)
  let topo = Topology.torus [| 4; 4 |] in
  let cfg = { Sim.R2c2_sim.default_config with overload_control = true } in
  let sim = Sim.R2c2_sim.create cfg topo in
  let start ?weight ?priority () =
    ignore (Sim.R2c2_sim.start_flow ?weight ?priority sim ~src:1 ~dst:0 ~size:1_000)
  in
  let weight_err = Invalid_argument "R2c2_sim: weight outside 1..255"
  and priority_err = Invalid_argument "R2c2_sim: priority outside 0..255" in
  Alcotest.check_raises "weight 0" weight_err (start ~weight:0);
  Alcotest.check_raises "weight 256" weight_err (start ~weight:256);
  Alcotest.check_raises "priority -1" priority_err (start ~priority:(-1));
  Alcotest.check_raises "priority 256" priority_err (start ~priority:256);
  Alcotest.(check int) "nothing shed" 0 (Sim.R2c2_sim.results sim).Sim.R2c2_sim.shed_flows;
  Alcotest.(check int) "no flow id consumed" 0
    (Sim.R2c2_sim.start_flow ~weight:255 ~priority:255 sim ~src:1 ~dst:0 ~size:1_000)

let r2c2_retransmit_backoff () =
  (* A 1,000-byte flow is one 1,035-byte packet, which never fits a
     1,000-byte queue: it is dropped on every attempt. Its timer doubles
     from 10 us up to the 1 ms cap, and the drop after the 30th
     retransmission aborts the flow. *)
  let topo = Topology.torus [| 4; 4 |] in
  let cfg =
    { Sim.R2c2_sim.default_config with queue_capacity = 1_000; rtx_timeout_ns = 10_000 }
  in
  let sim = Sim.R2c2_sim.create cfg topo in
  let id = Sim.R2c2_sim.start_flow sim ~src:0 ~dst:5 ~size:1_000 in
  Sim.R2c2_sim.run_engine sim;
  let r = Sim.R2c2_sim.results sim in
  Alcotest.(check int) "dropped on every attempt" 31 r.Sim.R2c2_sim.drops;
  Alcotest.(check int) "retransmitted up to the limit" 30 r.Sim.R2c2_sim.retransmissions;
  Alcotest.(check (list int)) "then aborted" [ id ] r.Sim.R2c2_sim.aborted_flows;
  (* The timeouts sum to 10 + 20 + ... + 640 us plus 23 x 1 ms = 24.27 ms;
     the engine goes idle at the 500 us recompute tick after that. *)
  Alcotest.(check int) "idle after the summed timeouts" 24_500_000
    (Sim.Engine.now (Sim.R2c2_sim.engine sim))

(* Under Global_epoch a finished flow lets go of its link-fraction row.
   One-packet VLB flows from vertex 0 to 21 of a 4x4x4 torus run one at
   a time, each row spanning most of the rack's links: doubling the flows
   must grow what the simulator reaches by far less than one row per
   extra flow. *)
let r2c2_finished_flows_drop_rows () =
  let words flows =
    let topo = Topology.torus [| 4; 4; 4 |] in
    let sim = Sim.R2c2_sim.create Sim.R2c2_sim.default_config topo in
    for i = 0 to flows - 1 do
      Sim.Engine.at (Sim.R2c2_sim.engine sim) (i * 20_000) (fun () ->
          ignore (Sim.R2c2_sim.start_flow ~protocol:Routing.Vlb sim ~src:0 ~dst:21 ~size:1_000))
    done;
    Sim.R2c2_sim.run_engine sim;
    Alcotest.(check int) "every flow completed" flows
      (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics sim));
    Obj.reachable_words (Obj.repr sim)
  in
  let row =
    Routing.fractions (Routing.make (Topology.torus [| 4; 4; 4 |])) Routing.Vlb ~src:0 ~dst:21
  in
  let row_words = Obj.reachable_words (Obj.repr row) in
  let per_flow = (words 200 - words 100) / 100 in
  Alcotest.(check bool)
    (Printf.sprintf "%d words per finished flow < half a %d-word row" per_flow row_words)
    true
    (per_flow < row_words / 2)

(* A retired flow lets go of its retransmission table. A flow whose
   packets never fit a 1,000-byte queue retransmits each of them until
   one is dropped a 31st time and the flow aborts (see the backoff test):
   with 100 packets its table held 100 sequences, with one packet one.
   Both runs first schedule 300 idle events past the abort, so that the
   engine's event pool and overflow heap end the same size whatever the
   flow left pending. The two simulators must then differ by less than
   the bindings of 50 sequences. *)
let r2c2_retired_flow_drops_rtx_table () =
  let words size =
    let topo = Topology.torus [| 4; 4 |] in
    let cfg =
      { Sim.R2c2_sim.default_config with queue_capacity = 1_000; rtx_timeout_ns = 10_000 }
    in
    let sim = Sim.R2c2_sim.create cfg topo in
    for k = 1 to 300 do
      Sim.Engine.at (Sim.R2c2_sim.engine sim) (30_000_000 + (k * 1_000)) ignore
    done;
    let id = Sim.R2c2_sim.start_flow sim ~src:0 ~dst:5 ~size in
    Sim.R2c2_sim.run_engine sim;
    let r = Sim.R2c2_sim.results sim in
    Alcotest.(check (list int)) "aborted" [ id ] r.Sim.R2c2_sim.aborted_flows;
    (Obj.reachable_words (Obj.repr sim), r.Sim.R2c2_sim.drops)
  in
  let one, one_drops = words 1_000 in
  let many, many_drops = words (100 * (Topology.mtu - Wire.data_header_size)) in
  Alcotest.(check bool) "every packet of the long flow was dropped" true
    (many_drops >= one_drops + 99);
  Alcotest.(check bool)
    (Printf.sprintf "the simulators differ by %d words < 200" (many - one))
    true
    (many - one < 200)

(* -- tcp transport ---------------------------------------------------------- *)

let tcp_delivers_everything () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 11) 150 1_000.0 in
  let res = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
  Alcotest.(check int) "all flows complete despite drops" 150
    (Sim.Metrics.completed_count res.Sim.Tcp_sim.metrics);
  List.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      let f = Sim.Metrics.find res.Sim.Tcp_sim.metrics i in
      Alcotest.(check int) "every byte delivered" s.size f.Sim.Metrics.delivered)
    specs

let tcp_recovers_from_heavy_loss () =
  (* Tiny queues force drops; TCP must still finish. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = default_specs topo (Util.Rng.create 13) 60 200.0 in
  let cfg = { Sim.Tcp_sim.queue_capacity = 6_000 } in
  let res = Sim.Tcp_sim.run cfg topo specs in
  Alcotest.(check int) "all complete" 60 (Sim.Metrics.completed_count res.Sim.Tcp_sim.metrics);
  Alcotest.(check bool) "loss actually happened" true (res.Sim.Tcp_sim.drops > 0);
  Alcotest.(check bool) "retransmissions happened" true (res.Sim.Tcp_sim.retransmits > 0)

let tcp_single_path_per_flow () =
  (* With ECMP every packet of a flow follows one path: absent drops the
     receiver never buffers out of order. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 500_000; weight = 1; priority = 0 } ]
  in
  let cfg = { Sim.Tcp_sim.queue_capacity = max_int } in
  let res = Sim.Tcp_sim.run cfg topo specs in
  Alcotest.(check int) "no drops" 0 res.Sim.Tcp_sim.drops;
  let f = Sim.Metrics.find res.Sim.Tcp_sim.metrics 0 in
  Alcotest.(check int) "no reordering on a single path" 0 f.Sim.Metrics.reorder_max

let suites =
  [
    ( "sim.engine",
      [
        tc "time ordering" engine_time_order;
        tc "fifo on simultaneous events" engine_same_time_fifo;
        tc "run until" engine_until;
        tc "nested scheduling" engine_nested_scheduling;
        tc "rejects scheduling in the past" engine_rejects_past;
      ]
      @ List.concat_map
          (fun (name, backend) ->
            [
              tc ("clock never runs backwards: " ^ name) (engine_clock_never_backwards backend);
              tc ("schedulable after a far deadline: " ^ name)
                (engine_schedules_after_far_deadline backend);
              tc ("keyed events: " ^ name) (engine_keyed_events backend);
            ])
          backends
      @ [
          QCheck_alcotest.to_alcotest qcheck_engine_backends_agree;
          QCheck_alcotest.to_alcotest qcheck_wheel_order;
          tc "pop_until deadline semantics" wheel_pop_until;
          tc "fifo ties across wheel and overflow" wheel_fifo_across_stores;
        ] );
    ( "sim.net",
      [
        tc "source-routed delivery and latency" net_delivers_along_route;
        tc "serialization queues back-to-back" net_serialization_queuing;
        tc "tail drop on finite queues" net_tail_drop;
        tc "max queue occupancy tracked" net_max_queue_tracked;
        tc "broadcast reaches every node" net_broadcast_reaches_all;
        tc "wire byte counters" net_wire_counters;
        tc "broadcast requires a FIB" net_requires_fib_for_broadcast;
        tc "bad routes rejected" net_rejects_bad_route;
        tc "steady state allocates nothing" net_steady_state_zero_alloc;
        tc "route interning allocates nothing" net_route_interning_zero_alloc;
        tc "RPS route sampling allocates nothing" (sampled_route_zero_alloc Routing.Rps);
        tc "VLB route sampling allocates nothing" (sampled_route_zero_alloc Routing.Vlb);
        tc "broadcast replication allocates nothing" net_broadcast_replication_zero_alloc;
        tc "digest check allocates nothing" digest_check_zero_alloc;
        tc "each flood reaches each vertex once, also with duplicates" net_flood_each_tree_once;
        tc "relay FIBs follow the topology version across a failure" net_fib_memo_across_failure;
        tc "an arrive tap installed mid-run counts every later arrival" net_tap_installed_mid_run;
        tc "many concurrent streams allocate nothing" net_many_streams_zero_alloc;
      ] );
    ( "sim.metrics",
      [
        tc "flow lifecycle" metrics_flow_lifecycle;
        tc "out-of-order and duplicates" metrics_out_of_order_and_dups;
        tc "a reorder table lives only with reordering" metrics_reorder_table_lives_with_reordering;
        tc "fixed reordering input keeps its results" metrics_reorder_fixture_pinned;
      ] );
    ( "sim.r2c2",
      [
        tc "delivers every byte" r2c2_delivers_everything;
        tc "single flow near line rate" r2c2_single_flow_line_rate;
        tc "deterministic given seed" r2c2_deterministic;
        tc "byte-identical metric snapshots" r2c2_metrics_snapshot_deterministic;
        tc "heap and calendar backends agree (clean + chaos)" r2c2_backend_differential;
        tc "fair split after recompute" r2c2_rate_limited_after_epoch;
        tc "clean epochs skipped by dirty tracking" r2c2_clean_epochs_skipped;
        tc "broadcast bytes accounted" r2c2_broadcast_overhead_counted;
        tc "weights respected end-to-end" r2c2_respects_weights;
        tc "per-node control completes and matches" r2c2_per_node_control;
        tc "per-node control is fair" r2c2_per_node_long_flows_fair;
        tc "host-limited flow frees its share" r2c2_host_limited_flow;
        tc "dynamic API: chained request/response" dynamic_chained_flows;
        tc "dynamic API: completion callbacks" dynamic_on_complete_gets_id;
        tc "dynamic API: resumable engine" dynamic_run_engine_resumable;
        tc "dynamic API: input validation" dynamic_validates_inputs;
        tc "dynamic API: classes the broadcast cannot carry refused"
          dynamic_rejects_unsendable_class;
        tc "per-packet retransmission backs off, then aborts" r2c2_retransmit_backoff;
        tc "live routing reselection (SS3.4)" r2c2_live_reselection;
        tc "reselection does not regress" r2c2_reselection_not_worse;
        tc "a finished flow holds no row (Global_epoch)" r2c2_finished_flows_drop_rows;
        tc "a retired flow holds no retransmission table" r2c2_retired_flow_drops_rtx_table;
      ] );
    ( "sim.tcp",
      [
        tc "delivers every byte" tcp_delivers_everything;
        tc "recovers from heavy loss" tcp_recovers_from_heavy_loss;
        tc "single path implies no reordering" tcp_single_path_per_flow;
      ] );
  ]
