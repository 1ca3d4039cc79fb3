module U = Util.Units

let decentralized_event_bytes topo =
  U.bytes (float_of_int (Wire.broadcast_size * (Topology.vertex_count topo - 1)))

(* Rate-update unicast: a compact header plus a 4-byte rate per flow
   (flows are implicitly ordered at the source, mirroring the 4-byte
   demand field of the broadcast format). *)
let rate_update_header = 12
let bytes_per_flow_entry = 4

let controller = 0

let centralized_event_bytes topo ~flows_per_server =
  if flows_per_server < 0 then invalid_arg "Control_traffic: negative flows_per_server";
  let h = Topology.host_count topo in
  let dist = Topology.dist_to topo controller in
  (* Event notification from an average source. *)
  let avg_dist =
    let total = ref 0 in
    for v = 0 to h - 1 do
      total := !total + dist.(v)
    done;
    float_of_int !total /. float_of_int h
  in
  let notify = float_of_int Wire.broadcast_size *. avg_dist in
  (* Rate updates to every server sourcing flows. *)
  let update_msg = rate_update_header + (bytes_per_flow_entry * flows_per_server) in
  let updates =
    let total = ref 0.0 in
    for v = 0 to h - 1 do
      if v <> controller then total := !total +. float_of_int (update_msg * dist.(v))
    done;
    !total
  in
  U.bytes (notify +. updates)

let ratio topo ~flows_per_server =
  let c = U.to_float (centralized_event_bytes topo ~flows_per_server) in
  let d = U.to_float (decentralized_event_bytes topo) in
  c /. d
