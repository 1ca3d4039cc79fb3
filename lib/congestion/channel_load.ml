let channel_loads ?row ctx p flows =
  let t = Routing.topo ctx in
  let row =
    match row with Some row -> row | None -> fun ~src ~dst -> Routing.fractions ctx p ~src ~dst
  in
  let load = Array.make (Topology.link_count t) 0.0 in
  List.iter
    (fun (src, dst, demand) ->
      if src <> dst && demand > 0.0 then begin
        let { Routing.links; fracs; _ } = row ~src ~dst in
        Array.iteri
          (fun j l -> load.(l) <- load.(l) +. (demand *. (fracs.(j) :> float)))
          links
      end)
    flows;
  load

let saturation_injection ?row ctx p flows =
  let load = channel_loads ?row ctx p flows in
  let worst = Array.fold_left max 0.0 load in
  if worst <= 0.0 then infinity else 1.0 /. worst

let capacity_fraction ?row ctx p flows =
  let t = Routing.topo ctx in
  let capacity =
    2.0 *. float_of_int (Topology.bisection_links t) /. float_of_int (Topology.host_count t)
  in
  Util.Units.fraction (saturation_injection ?row ctx p flows /. capacity)

let held_rows ctx p =
  let n = Topology.vertex_count (Routing.topo ctx) in
  let rows = Util.Itbl.create 256 in
  fun ~src ~dst ->
    let k = (src * n) + dst in
    match Util.Itbl.find_opt rows k with
    | Some r -> r
    | None ->
        let r = Routing.fractions ctx p ~src ~dst in
        Util.Itbl.replace rows k r;
        r
