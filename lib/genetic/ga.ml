type problem = {
  genes : int;
  choices : int;
  fitness : int array -> float;
}

let random_genotype rng p = Array.init p.genes (fun _ -> Util.Rng.int rng p.choices)

let mutate rng p rate g =
  Array.map (fun x -> if Util.Rng.float rng 1.0 < rate then Util.Rng.int rng p.choices else x) g

let crossover rng a b =
  let n = Array.length a in
  if n < 2 then Array.copy a
  else begin
    let cut = 1 + Util.Rng.int rng (n - 1) in
    Array.init n (fun i -> if i < cut then a.(i) else b.(i))
  end

let tournament rng scored =
  let n = Array.length scored in
  let a = Util.Rng.int rng n and b = Util.Rng.int rng n in
  let (ga, fa) = scored.(a) and (gb, fb) = scored.(b) in
  if fa >= fb then ga else gb

let sort_desc scored = Array.sort (fun (_, a) (_, b) -> Float.compare b a) scored

(* Per-gene mutation probability and the genotypes each generation keeps
   unchanged (paper §5.2). *)
let mutation = 0.01
let elite = 5

let optimize ?(pop_size = 100) ?(generations = 30) ?(patience = 8) ?(seeds = []) rng p ~init =
  if Array.length init <> p.genes then invalid_arg "Ga.optimize: init length mismatch";
  List.iter
    (fun s -> if Array.length s <> p.genes then invalid_arg "Ga.optimize: seed length mismatch")
    seeds;
  if p.genes = 0 then ([||], p.fitness [||])
  else begin
    let score g = (g, p.fitness g) in
    let seeds = Array.of_list (init :: seeds) in
    let pop =
      Array.init pop_size (fun i ->
          if i < Array.length seeds then score seeds.(i) else score (random_genotype rng p))
    in
    sort_desc pop;
    let best = ref pop.(0) in
    let stale = ref 0 in
    let gen = ref 0 in
    while !gen < generations && !stale < patience do
      incr gen;
      let next =
        Array.init pop_size (fun i ->
            if i < elite then pop.(i)
            else begin
              let a = tournament rng pop and b = tournament rng pop in
              score (mutate rng p mutation (crossover rng a b))
            end)
      in
      Array.blit next 0 pop 0 pop_size;
      sort_desc pop;
      if snd pop.(0) > snd !best then begin
        best := pop.(0);
        stale := 0
      end
      else incr stale
    done;
    !best
  end

let hill_climb ?(iterations = 500) rng p ~init =
  let cur = ref (Array.copy init) in
  let cur_fit = ref (p.fitness !cur) in
  for _ = 1 to iterations do
    if p.genes > 0 then begin
      let i = Util.Rng.int rng p.genes in
      let old = !cur.(i) in
      let cand = Util.Rng.int rng p.choices in
      if cand <> old then begin
        !cur.(i) <- cand;
        let f = p.fitness !cur in
        if f > !cur_fit then cur_fit := f else !cur.(i) <- old
      end
    end
  done;
  (!cur, !cur_fit)

(* Annealing schedule: the starting temperature, cooled geometrically per
   iteration. *)
let t0 = 1.0
let cooling = 0.99

let simulated_annealing ?(iterations = 500) rng p ~init =
  let cur = Array.copy init in
  let cur_fit = ref (p.fitness cur) in
  let best = ref (Array.copy cur) in
  let best_fit = ref !cur_fit in
  let temp = ref t0 in
  for _ = 1 to iterations do
    if p.genes > 0 then begin
      let i = Util.Rng.int rng p.genes in
      let old = cur.(i) in
      cur.(i) <- Util.Rng.int rng p.choices;
      let f = p.fitness cur in
      let accept =
        f >= !cur_fit
        || Util.Rng.float rng 1.0 < exp ((f -. !cur_fit) /. Float.max 1e-9 !temp)
      in
      if accept then begin
        cur_fit := f;
        if f > !best_fit then begin
          best_fit := f;
          best := Array.copy cur
        end
      end
      else cur.(i) <- old;
      temp := !temp *. cooling
    end
  done;
  (!best, !best_fit)

let random_search ?(iterations = 200) rng p =
  let best = ref (random_genotype rng p) in
  let best_fit = ref (p.fitness !best) in
  for _ = 2 to iterations do
    let g = random_genotype rng p in
    let f = p.fitness g in
    if f > !best_fit then begin
      best := g;
      best_fit := f
    end
  done;
  (!best, !best_fit)
