module U = Util.Units
module Inc = Congestion.Waterfill.Inc

type t = {
  ctx : Routing.ctx;
  choices : Routing.protocol array;
  alloc : Inc.t;  (* refilled by every evaluation *)
}

let make ?(headroom = U.fraction 0.0) ctx ~link_gbps =
  let nl = Topology.link_count (Routing.topo ctx) in
  {
    ctx;
    choices = [| Routing.Rps; Routing.Vlb |];
    alloc = Inc.create ~headroom ~capacities:(Array.make nl (U.byte_rate_of_gbps link_gbps)) ();
  }

(* One allocator for every evaluation: a cleared and refilled [Inc]
   computes a fresh [Inc]'s rates bit for bit, and flow [i] is slot [i] of
   [flows]. *)
let aggregate_throughput_gbps t ~flows assignment =
  let n = Array.length flows in
  if Array.length assignment <> n then invalid_arg "Selector: assignment length mismatch";
  Inc.clear t.alloc;
  Array.iteri
    (fun i (src, dst) ->
      Inc.add_flow t.alloc ~id:i (Routing.fractions t.ctx assignment.(i) ~src ~dst))
    flows;
  Inc.allocate t.alloc;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. (Inc.rate t.alloc ~id:i :> float)
  done;
  U.gbps (8.0 *. !sum)

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
