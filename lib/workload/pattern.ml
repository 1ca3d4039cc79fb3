type t =
  | Uniform
  | Nearest_neighbor
  | Bit_complement
  | Transpose
  | Tornado
  | Permutation of int array

let name = function
  | Uniform -> "uniform"
  | Nearest_neighbor -> "nearest-neighbor"
  | Bit_complement -> "bit-complement"
  | Transpose -> "transpose"
  | Tornado -> "tornado"
  | Permutation _ -> "permutation"

let grid_dims topo =
  match Topology.kind topo with
  | Topology.Torus dims | Topology.Mesh dims -> dims
  | Topology.Flattened_butterfly k -> [| k; k |]
  | Topology.Clos _ | Topology.Custom _ ->
      invalid_arg "Pattern: topology has no coordinate system"

let of_permutation topo perm =
  let h = Topology.host_count topo in
  if Array.length perm <> h then invalid_arg "Pattern.Permutation: wrong length";
  let acc = ref [] in
  for s = h - 1 downto 0 do
    if perm.(s) <> s then acc := (s, perm.(s), 1.0) :: !acc
  done;
  !acc

let map_coords topo f =
  let dims = grid_dims topo in
  let h = Topology.host_count topo in
  Array.init h (fun s ->
      let c = Topology.coords topo s in
      let c' = f dims c in
      Topology.of_coords topo c')

let flows topo = function
  | Uniform ->
      let h = Topology.host_count topo in
      let d = 1.0 /. float_of_int (h - 1) in
      let acc = ref [] in
      for s = h - 1 downto 0 do
        for t = h - 1 downto 0 do
          if s <> t then acc := (s, t, d) :: !acc
        done
      done;
      !acc
  | Nearest_neighbor ->
      let h = Topology.host_count topo in
      let acc = ref [] in
      for s = h - 1 downto 0 do
        let out = Topology.out_links topo s in
        let d = 1.0 /. float_of_int (Array.length out) in
        Array.iter (fun (v, _) -> acc := (s, v, d) :: !acc) out
      done;
      !acc
  | Bit_complement ->
      of_permutation topo (map_coords topo (fun dims c -> Array.mapi (fun i x -> dims.(i) - 1 - x) c))
  | Transpose ->
      let dims = grid_dims topo in
      Array.iter
        (fun k -> if k <> dims.(0) then invalid_arg "Pattern.Transpose: unequal dimensions")
        dims;
      of_permutation topo
        (map_coords topo (fun _ c ->
             let n = Array.length c in
             Array.init n (fun i -> c.(n - 1 - i))))
  | Tornado ->
      let dims = grid_dims topo in
      let k = dims.(0) in
      let shift = ((k + 1) / 2) - 1 in
      if shift = 0 then invalid_arg "Pattern.Tornado: dimension too small";
      of_permutation topo
        (map_coords topo (fun _ c ->
             let c' = Array.copy c in
             c'.(0) <- (c.(0) + shift) mod k;
             c'))
  | Permutation perm -> of_permutation topo perm

let structured_adversaries topo =
  let h = Topology.host_count topo in
  let candidates = ref [] in
  let add p = try candidates := flows topo p :: !candidates with Invalid_argument _ -> () in
  add Tornado;
  add Bit_complement;
  add Transpose;
  (match Topology.kind topo with
  | Topology.Torus dims | Topology.Mesh dims ->
      (* Diagonal shifts: move by delta in every dimension at once. *)
      let kmax = Array.fold_left max 2 dims in
      for delta = 1 to kmax - 1 do
        let perm =
          Array.init h (fun s ->
              let c = Topology.coords topo s in
              let c' = Array.mapi (fun i x -> (x + delta) mod dims.(i)) c in
              Topology.of_coords topo c')
        in
        add (Permutation perm)
      done;
      (* Half-way shifts along each single dimension. *)
      Array.iteri
        (fun dim k ->
          let perm =
            Array.init h (fun s ->
                let c = Topology.coords topo s in
                let c' = Array.copy c in
                c'.(dim) <- (c.(dim) + (k / 2)) mod k;
                Topology.of_coords topo c')
          in
          add (Permutation perm))
        dims
  | Topology.Flattened_butterfly _ | Topology.Clos _ | Topology.Custom _ -> ());
  !candidates

let adversarial ?row ctx p ~tries ~seed =
  let topo = Routing.topo ctx in
  let h = Topology.host_count topo in
  let rng = Util.Rng.create seed in
  let candidates =
    structured_adversaries topo
    @ List.init tries (fun _ -> of_permutation topo (Util.Rng.permutation rng h))
  in
  (* Candidates share many (src, dst) pairs: the search holds each pair's
     row from the first candidate that needs it to its end. *)
  let row =
    match row with Some row -> row | None -> Congestion.Channel_load.held_rows ctx p
  in
  let evaluate fl = Congestion.Channel_load.capacity_fraction ~row ctx p fl in
  match candidates with
  | [] -> invalid_arg "Pattern.adversarial: no candidate patterns"
  | first :: rest ->
      List.fold_left
        (fun (best_fl, best_v) fl ->
          let v = evaluate fl in
          if v < best_v then (fl, v) else (best_fl, best_v))
        (first, evaluate first) rest
