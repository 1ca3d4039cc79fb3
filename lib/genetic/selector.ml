module U = Util.Units

type t = {
  ctx : Routing.ctx;
  headroom : U.fraction;
  choices : Routing.protocol array;
  capacities : U.byte_rate array;
}

let make ?(headroom = U.fraction 0.0) ctx ~link_gbps =
  let nl = Topology.link_count (Routing.topo ctx) in
  {
    ctx;
    headroom;
    choices = [| Routing.Rps; Routing.Vlb |];
    capacities = Array.make nl (U.byte_rate_of_gbps link_gbps);
  }

let rates_of t ~flows assignment =
  if Array.length assignment <> Array.length flows then
    invalid_arg "Selector: assignment length mismatch";
  let wf =
    Array.mapi
      (fun i (src, dst) ->
        Congestion.Waterfill.flow ~id:i (Routing.fractions t.ctx assignment.(i) ~src ~dst))
      flows
  in
  U.floats_of (Congestion.Waterfill.allocate ~headroom:t.headroom ~capacities:t.capacities wf)

let aggregate_throughput_gbps t ~flows assignment =
  U.gbps (8.0 *. Array.fold_left ( +. ) 0.0 (rates_of t ~flows assignment))

let uniform t ~flows proto =
  aggregate_throughput_gbps t ~flows (Array.make (Array.length flows) proto)

let random_assignment t rng ~flows =
  Array.init (Array.length flows) (fun _ -> Util.Rng.pick rng t.choices)

let select ?(pop_size = 100) ?(generations = 30) t rng ~flows ~init =
  let encode assignment =
    Array.map
      (fun proto ->
        let rec find i =
          if i >= Array.length t.choices then
            invalid_arg "Selector.select: init uses a protocol outside choices"
          else if t.choices.(i) = proto then i
          else find (i + 1)
        in
        find 0)
      assignment
  in
  let decode genes = Array.map (fun g -> t.choices.(g)) genes in
  let problem =
    {
      Ga.genes = Array.length flows;
      choices = Array.length t.choices;
      fitness = (fun genes -> U.to_float (aggregate_throughput_gbps t ~flows (decode genes)));
    }
  in
  (* Seed the uniform single-protocol assignments so the search can never
     end below the all-RPS / all-VLB baselines (elitism keeps them). *)
  let seeds =
    List.init (Array.length t.choices) (fun c -> Array.make (Array.length flows) c)
  in
  let best, fit = Ga.optimize ~pop_size ~generations ~seeds rng problem ~init:(encode init) in
  (decode best, U.gbps fit)

(* §3.4: re-route only "if a significant improvement is possible" — near
   ties would otherwise make flows flap between protocols. *)
let reselect ?pop_size ?generations t rng ~flows ~current =
  let init = Array.map (fun p -> if p = Routing.Vlb then Routing.Vlb else Routing.Rps) current in
  let before = U.to_float (aggregate_throughput_gbps t ~flows init) in
  let assignment, best = select ?pop_size ?generations t rng ~flows ~init in
  if U.to_float best > before *. 1.01 then Some assignment else None
