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

(* A search evaluates one flow set under many assignments, so it holds
   the rows itself: its evaluator fetches flow [i]'s row under protocol
   [p] on first use, into slot [i * nprotocols + p], and keeps it for as
   long as the search keeps the evaluator. *)
type evaluator = { sel : t; flows : (int * int) array; rows : Routing.row option array }

let nprotocols = List.length Routing.all_protocols

let evaluator t ~flows =
  { sel = t; flows; rows = Array.make (Array.length flows * nprotocols) None }

let row ev i p =
  let k = (i * nprotocols) + Routing.protocol_to_int p in
  match ev.rows.(k) with
  | Some r -> r
  | None ->
      let src, dst = ev.flows.(i) in
      let r = Routing.fractions ev.sel.ctx p ~src ~dst in
      ev.rows.(k) <- Some r;
      r

(* One allocator for every evaluation: a cleared and refilled [Inc]
   computes a fresh [Inc]'s rates bit for bit, and flow [i] is slot [i] of
   [flows]. *)
let evaluate ev assignment =
  let t = ev.sel and n = Array.length ev.flows in
  if Array.length assignment <> n then invalid_arg "Selector: assignment length mismatch";
  Inc.clear t.alloc;
  for i = 0 to n - 1 do
    Inc.add_flow t.alloc ~id:i (row ev i assignment.(i))
  done;
  Inc.allocate t.alloc;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. (Inc.rate t.alloc ~id:i :> float)
  done;
  U.gbps (8.0 *. !sum)

let aggregate_throughput_gbps t ~flows assignment = evaluate (evaluator t ~flows) assignment

let uniform t ~flows proto =
  aggregate_throughput_gbps t ~flows (Array.make (Array.length flows) proto)

let random_assignment t rng ~flows =
  Array.init (Array.length flows) (fun _ -> Util.Rng.pick rng t.choices)

(* The GA over one evaluator's flow set. *)
let search ?(pop_size = 100) ?(generations = 30) rng ev ~init =
  let t = ev.sel and genes = Array.length ev.flows in
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
      Ga.genes;
      choices = Array.length t.choices;
      fitness = (fun g -> U.to_float (evaluate ev (decode g)));
    }
  in
  (* Seed the uniform single-protocol assignments so the search can never
     end below the all-RPS / all-VLB baselines (elitism keeps them). *)
  let seeds = List.init (Array.length t.choices) (fun c -> Array.make genes c) in
  let best, fit = Ga.optimize ~pop_size ~generations ~seeds rng problem ~init:(encode init) in
  (decode best, U.gbps fit)

let select ?pop_size ?generations t rng ~flows ~init =
  search ?pop_size ?generations rng (evaluator t ~flows) ~init

(* §3.4: re-route only "if a significant improvement is possible" — near
   ties would otherwise make flows flap between protocols. *)
let reselect ?pop_size ?generations t rng ~flows ~current =
  let ev = evaluator t ~flows in
  let init = Array.map (fun p -> if p = Routing.Vlb then Routing.Vlb else Routing.Rps) current in
  let before = U.to_float (evaluate ev init) in
  let assignment, best = search ?pop_size ?generations rng ev ~init in
  if U.to_float best > before *. 1.01 then Some assignment else None
