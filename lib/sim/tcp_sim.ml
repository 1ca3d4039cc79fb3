type config = { queue_capacity : int }

let default_config = { queue_capacity = 64 * 1024 }

(* Initial congestion window in packets; minimum retransmission timeout. *)
let init_cwnd = 10.0
let rto_min_ns = 100_000

type result = {
  metrics : Metrics.t;
  max_queue : int array;
  drops : int;
  retransmits : int;
  data_wire_bytes : Util.Units.bytes;
}

let header = Wire.data_header_size
let ack_bytes = 40

type fstate = {
  idx : int;
  (* Interned once per flow; every packet of the flow (retransmits
     included) shares the slice instead of carrying a fresh array copy. *)
  path : Net.route;
  rpath : Net.route;
  size : int;
  total : int;  (** packet count *)
  full_payload : int;
  mutable next_new : int;
  mutable cum : int;
  mutable dupacks : int;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable srtt : float;  (** ns; 0 until first sample *)
  mutable rttvar : float;
  mutable timed_seq : int;  (** segment being RTT-timed; -1 = none *)
  mutable timed_at : int;
  mutable rto : int;
  mutable rto_gen : int;
  mutable rto_armed : bool;
  sent_ns : int array;
  retx : bool array;
  mutable finished : bool;
}

let run ?until_ns cfg topo specs =
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      Workload.Flowgen.check_flow ~who:"Tcp_sim" topo ~src:s.src ~dst:s.dst ~size:s.size)
    specs;
  let eng = Engine.create () in
  let net =
    Net.create eng topo ~queue_capacity:cfg.queue_capacity ~link_gbps:Topology.link_gbps ()
  in
  let rctx = Routing.make topo in
  let metrics = Metrics.create () in
  (* Pre-sized past the largest experiment (60-240 flows measured) so the
     packet path never pays a rehash. *)
  let flows : fstate Util.Itbl.t = Util.Itbl.create 256 in
  let retransmits = ref 0 in
  let full_payload = Topology.mtu - header in

  let payload_of st seq =
    if seq = st.total - 1 then st.size - ((st.total - 1) * st.full_payload)
    else st.full_payload
  in

  let send_packet st seq ~is_retx =
    if is_retx then begin
      incr retransmits;
      st.retx.(seq) <- true
    end
    else begin
      st.sent_ns.(seq) <- Engine.now eng;
      (* Single-timer RTT measurement: time one untimed segment at a time
         so cumulative-ACK jumps over long-buffered segments never yield
         bogus samples. *)
      if st.timed_seq < 0 then begin
        st.timed_seq <- seq;
        st.timed_at <- Engine.now eng
      end
    end;
    Metrics.note_first_tx metrics ~id:st.idx ~now:(Engine.now eng);
    let payload = payload_of st seq in
    Net.send_data net ~flow:st.idx ~seq ~last:(seq = st.total - 1)
      ~bytes:(payload + header) ~route:st.path
  in

  let flight st = st.next_new - st.cum in

  let rec arm_rto st =
    st.rto_gen <- st.rto_gen + 1;
    st.rto_armed <- true;
    let gen = st.rto_gen in
    Engine.after eng st.rto (fun () ->
        if gen = st.rto_gen && st.rto_armed && not st.finished then on_rto st)

  and on_rto st =
    if st.cum < st.total then begin
      st.ssthresh <- Float.max (float_of_int (flight st) /. 2.0) 2.0;
      st.cwnd <- 1.0;
      st.dupacks <- 0;
      (* Everything outstanding is presumed lost: recover the holes one per
         partial ACK, exactly as in fast-retransmit recovery. *)
      st.in_recovery <- st.cum < st.next_new - 1;
      st.recover <- st.next_new;
      st.timed_seq <- -1 (* Karn: retransmission ambiguity *);
      st.rto <- min (2 * st.rto) 16_000_000;
      send_packet st st.cum ~is_retx:true;
      arm_rto st
    end
  in

  let update_rtt st sample =
    let s = float_of_int sample in
    if st.srtt = 0.0 then begin
      st.srtt <- s;
      st.rttvar <- s /. 2.0
    end
    else begin
      st.rttvar <- (0.75 *. st.rttvar) +. (0.25 *. abs_float (st.srtt -. s));
      st.srtt <- (0.875 *. st.srtt) +. (0.125 *. s)
    end;
    st.rto <- max rto_min_ns (int_of_float (st.srtt +. (4.0 *. st.rttvar)))
  in

  let try_send st =
    while st.next_new < st.total && flight st < int_of_float st.cwnd do
      send_packet st st.next_new ~is_retx:false;
      st.next_new <- st.next_new + 1
    done;
    if st.cum < st.total && not st.rto_armed then arm_rto st
  in

  let on_ack st ackno =
    if st.finished then ()
    else if ackno > st.cum then begin
      let newly = ackno - st.cum in
      (* RTT from the timed segment only (Karn's rule: skip if it was ever
         retransmitted). *)
      if st.timed_seq >= 0 && ackno > st.timed_seq then begin
        if not st.retx.(st.timed_seq) then
          update_rtt st (Engine.now eng - st.timed_at);
        st.timed_seq <- -1
      end;
      st.cum <- ackno;
      st.dupacks <- 0;
      if st.in_recovery then begin
        if ackno >= st.recover then begin
          st.in_recovery <- false;
          st.cwnd <- st.ssthresh
        end
        else
          (* NewReno partial ACK: the next hole was also lost. *)
          send_packet st st.cum ~is_retx:true
      end
      else if st.cwnd < st.ssthresh then st.cwnd <- st.cwnd +. float_of_int newly
      else st.cwnd <- st.cwnd +. (float_of_int newly /. st.cwnd);
      if st.cum >= st.total then begin
        st.finished <- true;
        st.rto_armed <- false
      end
      else arm_rto st;
      try_send st
    end
    else begin
      st.dupacks <- st.dupacks + 1;
      if (not st.in_recovery) && st.dupacks = 3 then begin
        st.ssthresh <- Float.max (float_of_int (flight st) /. 2.0) 2.0;
        st.in_recovery <- true;
        st.recover <- st.next_new;
        st.cwnd <- st.ssthresh +. 3.0;
        send_packet st st.cum ~is_retx:true
      end
      else if st.in_recovery then begin
        st.cwnd <- st.cwnd +. 1.0;
        try_send st
      end
    end
  in

  Net.on_deliver net (fun pkt ->
      let k = Net.kind net pkt in
      if k = Net.code_data then begin
        let flow = Net.data_flow net pkt in
        let seq = Net.data_seq net pkt in
        let st = Util.Itbl.find flows flow in
        let payload = Net.bytes net pkt - header in
        ignore (Metrics.record_delivery metrics ~id:flow ~seq ~payload ~now:(Engine.now eng));
        let rcv_next = (Metrics.find metrics flow).Metrics.next_seq in
        Net.send_ack net ~flow ~ackno:rcv_next ~bytes:ack_bytes ~route:st.rpath
      end
      else if k = Net.code_ack then
        on_ack (Util.Itbl.find flows (Net.ack_flow net pkt)) (Net.ack_ackno net pkt));

  List.iteri
    (fun idx spec ->
      let open Workload.Flowgen in
      Metrics.add_flow metrics ~id:idx ~src:spec.src ~dst:spec.dst ~size:spec.size
        ~arrival_ns:spec.arrival_ns;
      Engine.at eng spec.arrival_ns (fun () ->
          let path = Routing.ecmp_path rctx ~flow_id:idx ~src:spec.src ~dst:spec.dst in
          let rpath = Array.of_list (List.rev (Array.to_list path)) in
          let total = (spec.size + full_payload - 1) / full_payload in
          let st =
            {
              idx;
              path = Net.intern_route net path;
              rpath = Net.intern_route net rpath;
              size = spec.size;
              total;
              full_payload;
              next_new = 0;
              cum = 0;
              dupacks = 0;
              cwnd = init_cwnd;
              ssthresh = 1e9;
              in_recovery = false;
              recover = 0;
              srtt = 0.0;
              rttvar = 0.0;
              timed_seq = -1;
              timed_at = 0;
              rto = 2 * rto_min_ns;
              rto_gen = 0;
              rto_armed = false;
              sent_ns = Array.make total (-1);
              retx = Array.make total false;
              finished = false;
            }
          in
          Util.Itbl.replace flows idx st;
          try_send st))
    specs;

  Engine.run ?until:until_ns eng;
  {
    metrics;
    max_queue = Net.max_queue_bytes net;
    drops = Net.drops net;
    retransmits = !retransmits;
    data_wire_bytes = Net.data_bytes_on_wire net;
  }
