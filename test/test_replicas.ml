(* The one replica table behind both control planes ([Replicas]): the JOIN
   rule, the commutative per-tree set hashes, and a differential test
   against the per-window reference model ([Rx_model]) under random
   interleavings of receives, digests, syncs, incarnation bumps and crash
   clears. *)

let tc name f = Alcotest.test_case name `Quick f

let scratch_hash ids = List.fold_left (fun h id -> h + Replicas.id_hash id) 0 ids

(* -- JOIN ------------------------------------------------------------------ *)

let join_name = function `Current -> "current" | `Reset -> "reset" | `Stale -> "stale"

(* Only a newer incarnation resets: a JOIN retry (same incarnation) or a
   late JOIN (older) leaves the windows and the believed set untouched. *)
let join_resets_only_on_newer_incarnation () =
  let r = Replicas.create ~replicas:1 ~origins:1 ~trees:2 in
  let w0 = Replicas.window r ~replica:0 ~origin:0 ~tree:0 in
  let w1 = Replicas.window r ~replica:0 ~origin:0 ~tree:1 in
  let join inc = join_name (Replicas.join r ~replica:0 ~origin:0 ~inc) in
  let receive w ~seq ev =
    ignore (Replicas.receive r w ~seq ev ~deliver:(Replicas.apply r))
  in
  let state () =
    ( List.map
        (fun w ->
          ( Replicas.next_expected r w,
            Replicas.highest_heard r w,
            Replicas.incarnation r w,
            Replicas.missing r w ))
        [ w0; w1 ],
      Array.to_list (Replicas.believed r ~replica:0),
      Replicas.hash r ~replica:0 ~origin:0 )
  in
  Alcotest.(check string) "first restart announced" "reset" (join 1);
  receive w0 ~seq:0 6;
  receive w0 ~seq:1 10;
  receive w1 ~seq:2 14;
  let before = state () in
  Alcotest.(check (list int)) "flows believed" [ 3; 5 ] (Array.to_list (Replicas.believed r ~replica:0));
  Alcotest.(check (list (pair int int))) "tree 1 has a gap" [ (0, 1) ] (Replicas.missing r w1);
  Alcotest.(check string) "JOIN retry" "current" (join 1);
  Alcotest.(check bool) "retry leaves everything" true (state () = before);
  Alcotest.(check string) "late JOIN" "stale" (join 0);
  Alcotest.(check bool) "late JOIN leaves everything" true (state () = before);
  Alcotest.(check string) "newer incarnation" "reset" (join 2);
  Alcotest.(check bool) "windows and set reset" true
    (state () = ([ (0, -1, 2, []); (0, -1, 2, []) ], [], 0));
  receive w1 ~seq:0 14;
  Alcotest.(check (list int)) "the fresh stream applies" [ 7 ]
    (Array.to_list (Replicas.believed r ~replica:0))

(* -- set hash -------------------------------------------------------------- *)

(* Adds and removes in any order, on a 2-replica x 3-origin x 2-tree table
   and on an origin's live set: every incremental hash — per (replica,
   origin, tree), per (replica, origin), per replica, and the origin's per
   tree (as its digests carry it) and whole — equals the from-scratch sum
   over the final set. Flow ids are origin-disjoint and each rides one
   tree, as in the rack. *)
let qcheck_set_hash_incremental =
  QCheck.Test.make ~name:"incremental set hash = from-scratch hash" ~count:300
    QCheck.(list (quad (int_bound 1) (int_bound 2) bool (int_bound 30)))
    (fun ops ->
      let r = Replicas.create ~replicas:2 ~origins:3 ~trees:2 in
      let o = Rbcast.origin ~trees:2 () in
      let tree_of id = id land 1 in
      let on_tree tree = List.filter (fun id -> tree_of id = tree) in
      let rows = Array.make 6 [] and live = ref [] in
      List.iter
        (fun (replica, origin, add, k) ->
          let id = (origin * 100) + k and row = (replica * 3) + origin in
          let without = List.filter (fun x -> x <> id) in
          if add then begin
            Replicas.add r (Replicas.window r ~replica ~origin ~tree:(tree_of id)) id;
            ignore (Rbcast.announce o ~tree:(tree_of id) ~flow:id Wire.Flow_start ());
            rows.(row) <- id :: without rows.(row);
            live := id :: without !live
          end
          else begin
            Replicas.remove r ~replica id;
            ignore (Rbcast.announce o ~tree:(tree_of id) ~flow:id Wire.Flow_finish ());
            rows.(row) <- without rows.(row);
            live := without !live
          end)
        ops;
      let ok = ref (Rbcast.state_hash o = scratch_hash !live) in
      (* Every tree that carried an event is due in the first round, and
         one that never did hashes the empty set. *)
      let digested = Array.make 2 0 in
      Rbcast.digest_round o (fun ~epoch:_ ~tree ~last_seq:_ ~hash -> digested.(tree) <- hash);
      for tree = 0 to 1 do
        if digested.(tree) <> scratch_hash (on_tree tree !live) then ok := false
      done;
      for replica = 0 to 1 do
        let all = ref [] in
        for origin = 0 to 2 do
          let ids = rows.((replica * 3) + origin) in
          all := ids @ !all;
          if
            Replicas.hash r ~replica ~origin <> scratch_hash ids
            || Replicas.size r ~replica ~origin <> List.length ids
          then ok := false;
          for tree = 0 to 1 do
            if
              Replicas.tree_hash r (Replicas.window r ~replica ~origin ~tree)
              <> scratch_hash (on_tree tree ids)
            then ok := false
          done
        done;
        if
          Replicas.replica_hash r ~replica <> scratch_hash !all
          || Array.to_list (Replicas.believed r ~replica) <> List.sort Int.compare !all
        then ok := false
      done;
      !ok)

(* -- differential test against the per-window model ----------------------- *)

let nr = 2 and no = 2 and nt = 2

type op =
  | Recv of int * int * int * int * int  (* replica, origin, tree, seq, event *)
  | Admit of int * int * int * int  (* replica, origin, tree, incarnation *)
  | Digest of int * int * int * int * int * int list
      (* ..., incarnation, last_seq, origin's live ids on the tree *)
  | Sync of int * int * (int * int) list * int list  (* replica, origin, (id, tree)s, last_seqs *)
  | Join of int * int * int  (* replica, origin, incarnation *)
  | Clear of int  (* replica *)
  | Arm of int * int * int
  | Disarm of int * int * int

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"
let pairs l = "[" ^ String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d/%d" a b) l) ^ "]"

let show_op = function
  | Recv (r, o, t, s, e) -> Printf.sprintf "Recv(%d,%d,%d,seq %d,ev %d)" r o t s e
  | Admit (r, o, t, i) -> Printf.sprintf "Admit(%d,%d,%d,inc %d)" r o t i
  | Digest (r, o, t, i, l, ids) ->
      Printf.sprintf "Digest(%d,%d,%d,inc %d,last %d,%s)" r o t i l (ints ids)
  | Sync (r, o, ids, ls) -> Printf.sprintf "Sync(%d,%d,%s,%s)" r o (pairs ids) (ints ls)
  | Join (r, o, i) -> Printf.sprintf "Join(%d,%d,inc %d)" r o i
  | Clear r -> Printf.sprintf "Clear %d" r
  | Arm (r, o, t) -> Printf.sprintf "Arm(%d,%d,%d)" r o t
  | Disarm (r, o, t) -> Printf.sprintf "Disarm(%d,%d,%d)" r o t

(* Flow ids are origin-disjoint ([origin * 8 + k]); an event is a start,
   a finish, or (-1) no flow. Sequence numbers stay small so that
   in-order, reordered and duplicated arrivals all occur. *)
let gen_op =
  let open QCheck.Gen in
  let r = int_bound (nr - 1) and o = int_bound (no - 1) and t = int_bound (nt - 1) in
  let ids o = list_size (int_bound 4) (map (fun k -> (o * 8) + k) (int_bound 5)) in
  let ev o = map (fun k -> if k < 0 then -1 else (2 * ((o * 8) + (k / 2))) + (k land 1)) (int_range (-1) 11) in
  frequency
    [
      ( 10,
        r >>= fun r ->
        o >>= fun o ->
        t >>= fun t ->
        int_bound 7 >>= fun seq -> ev o >|= fun e -> Recv (r, o, t, seq, e) );
      (2, r >>= fun r -> o >>= fun o -> t >>= fun t -> int_bound 3 >|= fun i -> Admit (r, o, t, i));
      ( 4,
        r >>= fun r ->
        o >>= fun o ->
        t >>= fun t ->
        int_bound 3 >>= fun i ->
        int_range (-1) 7 >>= fun l -> ids o >|= fun ids -> Digest (r, o, t, i, l, ids) );
      ( 2,
        r >>= fun r ->
        o >>= fun o ->
        ids o >>= fun ids ->
        list_repeat (List.length ids) t >>= fun trees ->
        list_repeat nt (int_range (-1) 7) >|= fun ls -> Sync (r, o, List.combine ids trees, ls) );
      (1, r >>= fun r -> o >>= fun o -> int_bound 3 >|= fun i -> Join (r, o, i));
      (1, map (fun r -> Clear r) r);
      (1, r >>= fun r -> o >>= fun o -> t >|= fun t -> Arm (r, o, t));
      (1, r >>= fun r -> o >>= fun o -> t >|= fun t -> Disarm (r, o, t));
    ]

(* The model: one [Rx_model] window plus its highest-heard mark per
   (replica, origin, tree), and per (replica, origin) a list of believed
   (id, tree) pairs sorted by id — a flow keeps the tree it was first
   believed on. *)
type model = { rx : int Rx_model.rx array; hi : int array; sets : (int * int) list array }

let widx ~replica ~origin ~tree = (((replica * no) + origin) * nt) + tree
let row ~replica ~origin = (replica * no) + origin
let ids_of set = List.map fst set
let ids_on set tree = List.filter_map (fun (id, t) -> if t = tree then Some id else None) set

(* First (id, tree) per id wins, as repeated adds leave a flow's tree. *)
let m_set pairs =
  List.sort (fun (a, _) (b, _) -> Int.compare a b)
    (List.fold_left
       (fun acc (id, t) -> if List.mem_assoc id acc then acc else (id, t) :: acc)
       [] pairs)

let m_apply m ~replica ~origin ~tree ev =
  if ev >= 0 then begin
    let r = row ~replica ~origin and id = ev / 2 in
    if ev land 1 = 0 then m.sets.(r) <- m_set (m.sets.(r) @ [ (id, tree) ])
    else m.sets.(r) <- List.filter (fun (x, _) -> x <> id) m.sets.(r)
  end

let m_rekey m w ~inc =
  inc > Rx_model.rx_incarnation m.rx.(w)
  && begin
       ignore (Rx_model.ensure_epoch m.rx.(w) ~epoch:inc);
       m.hi.(w) <- -1;
       true
     end

let m_caught_up m ~replica ~origin =
  List.for_all
    (fun tree ->
      let w = widx ~replica ~origin ~tree in
      Rx_model.next_expected m.rx.(w) > m.hi.(w))
    (List.init nt Fun.id)

(* Each op returns a printable outcome: the verdict plus the delivered run. *)
let m_step m = function
  | Recv (replica, origin, tree, seq, ev) -> (
      let w = widx ~replica ~origin ~tree in
      if seq > m.hi.(w) then m.hi.(w) <- seq;
      match Rx_model.receive m.rx.(w) ~seq ev with
      | Rx_model.Deliver ps ->
          List.iter (m_apply m ~replica ~origin ~tree) ps;
          "delivered " ^ ints ps
      | Rx_model.Duplicate -> "duplicate"
      | Rx_model.Buffered -> "buffered")
  | Admit (replica, origin, tree, inc) ->
      let w = widx ~replica ~origin ~tree in
      ignore (m_rekey m w ~inc);
      string_of_bool (Rx_model.ensure_epoch m.rx.(w) ~epoch:inc)
  | Digest (replica, origin, tree, inc, last, ids) ->
      let w = widx ~replica ~origin ~tree in
      ignore (m_rekey m w ~inc);
      (* A digest from an older incarnation is stale. *)
      if not (Rx_model.ensure_epoch m.rx.(w) ~epoch:inc) then "synced"
      else begin
        if last > m.hi.(w) then m.hi.(w) <- last;
        let next = Rx_model.next_expected m.rx.(w) in
        if next <= last then "gaps"
        else if
          next = last + 1
          && List.sort_uniq Int.compare ids <> ids_on m.sets.(row ~replica ~origin) tree
        then "diverged"
        else "synced"
      end
  | Sync (replica, origin, ids, last_seqs) ->
      m.sets.(row ~replica ~origin) <- m_set ids;
      let run =
        List.concat
          (List.mapi
             (fun tree last ->
               let w = widx ~replica ~origin ~tree in
               if last > m.hi.(w) then m.hi.(w) <- last;
               let ps = Rx_model.fast_forward m.rx.(w) ~next:(last + 1) in
               List.iter (m_apply m ~replica ~origin ~tree) ps;
               ps)
             last_seqs)
      in
      "synced " ^ ints run
  | Join (replica, origin, inc) ->
      let base = widx ~replica ~origin ~tree:0 in
      let stale = inc < Rx_model.rx_incarnation m.rx.(base) in
      let reset = List.filter (fun tree -> m_rekey m (base + tree) ~inc) (List.init nt Fun.id) in
      if reset <> [] then begin
        m.sets.(row ~replica ~origin) <- [];
        "reset"
      end
      else if stale then "stale"
      else "current"
  | Clear replica ->
      for origin = 0 to no - 1 do
        m.sets.(row ~replica ~origin) <- [];
        for tree = 0 to nt - 1 do
          let w = widx ~replica ~origin ~tree in
          m.rx.(w) <- Rx_model.rx ();
          m.hi.(w) <- -1
        done
      done;
      "cleared"
  | Arm (replica, origin, tree) ->
      string_of_bool (Rx_model.arm m.rx.(widx ~replica ~origin ~tree))
  | Disarm (replica, origin, tree) ->
      Rx_model.disarm m.rx.(widx ~replica ~origin ~tree);
      "disarmed"

let r_step t = function
  | Recv (replica, origin, tree, seq, ev) -> (
      let run = ref [] in
      let deliver w e =
        run := e :: !run;
        Replicas.apply t w e
      in
      match Replicas.receive t (Replicas.window t ~replica ~origin ~tree) ~seq ev ~deliver with
      | Replicas.Delivered -> "delivered " ^ ints (List.rev !run)
      | Replicas.Duplicate -> "duplicate"
      | Replicas.Buffered -> "buffered")
  | Admit (replica, origin, tree, inc) ->
      string_of_bool (Replicas.admit t (Replicas.window t ~replica ~origin ~tree) ~inc)
  | Digest (replica, origin, tree, inc, last_seq, ids) -> (
      let hash = scratch_hash (List.sort_uniq Int.compare ids) in
      let epoch = Wire.pack_epoch ~inc ~epoch:0 in
      match
        Replicas.observe_digest t (Replicas.window t ~replica ~origin ~tree) ~epoch ~last_seq ~hash
      with
      | Replicas.Gaps -> "gaps"
      | Replicas.Diverged -> "diverged"
      | Replicas.Synced -> "synced")
  | Sync (replica, origin, ids, last_seqs) ->
      let run = ref [] in
      let deliver w e =
        run := e :: !run;
        Replicas.apply t w e
      in
      Replicas.sync t ~replica ~origin ~ids ~last_seqs:(Array.of_list last_seqs) ~deliver;
      "synced " ^ ints (List.rev !run)
  | Join (replica, origin, inc) -> join_name (Replicas.join t ~replica ~origin ~inc)
  | Clear replica ->
      Replicas.clear t ~replica;
      "cleared"
  | Arm (replica, origin, tree) ->
      string_of_bool (Replicas.arm t (Replicas.window t ~replica ~origin ~tree))
  | Disarm (replica, origin, tree) ->
      Replicas.disarm t (Replicas.window t ~replica ~origin ~tree);
      "disarmed"

(* Everything observable, in one printable line: per window the cursor,
   highest-heard mark, incarnation, missing ranges and tree hash; per row
   the hash, size and caught-up flag; per replica the believed ids; the
   duplicates. *)
let snapshot_r t =
  let b = Buffer.create 256 in
  for replica = 0 to nr - 1 do
    for origin = 0 to no - 1 do
      for tree = 0 to nt - 1 do
        let w = Replicas.window t ~replica ~origin ~tree in
        Buffer.add_string b
          (Printf.sprintf "w%d%d%d:%d,%d,%d,%s,%d " replica origin tree (Replicas.next_expected t w)
             (Replicas.highest_heard t w) (Replicas.incarnation t w)
             (String.concat "" (List.map (fun (a, z) -> Printf.sprintf "%d-%d" a z) (Replicas.missing t w)))
             (Replicas.tree_hash t w))
      done;
      Buffer.add_string b
        (Printf.sprintf "row:%d,%d,%b " (Replicas.hash t ~replica ~origin)
           (Replicas.size t ~replica ~origin) (Replicas.caught_up t ~replica ~origin))
    done;
    Buffer.add_string b (ints (Array.to_list (Replicas.believed t ~replica)) ^ " ")
  done;
  Buffer.add_string b (Printf.sprintf "dups:%d" (Replicas.duplicates t));
  Buffer.contents b

let snapshot_m m =
  let b = Buffer.create 256 in
  let dups = ref 0 in
  for replica = 0 to nr - 1 do
    let all = ref [] in
    for origin = 0 to no - 1 do
      for tree = 0 to nt - 1 do
        let w = widx ~replica ~origin ~tree in
        let rx = m.rx.(w) in
        dups := !dups + Rx_model.duplicates rx;
        Buffer.add_string b
          (Printf.sprintf "w%d%d%d:%d,%d,%d,%s,%d " replica origin tree (Rx_model.next_expected rx)
             m.hi.(w) (Rx_model.rx_incarnation rx)
             (String.concat ""
                (List.map (fun (a, z) -> Printf.sprintf "%d-%d" a z) (Rx_model.missing rx ~upto:m.hi.(w))))
             (scratch_hash (ids_on m.sets.(row ~replica ~origin) tree)))
      done;
      let ids = ids_of m.sets.(row ~replica ~origin) in
      all := ids @ !all;
      Buffer.add_string b
        (Printf.sprintf "row:%d,%d,%b " (scratch_hash ids) (List.length ids)
           (m_caught_up m ~replica ~origin))
    done;
    Buffer.add_string b (ints (List.sort Int.compare !all) ^ " ")
  done;
  Buffer.add_string b (Printf.sprintf "dups:%d" !dups);
  Buffer.contents b

let qcheck_replicas_match_model =
  QCheck.Test.make ~name:"Replicas = per-window reference model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_op))
    (fun ops ->
      let t = Replicas.create ~replicas:nr ~origins:no ~trees:nt in
      let n = nr * no * nt in
      let m =
        { rx = Array.init n (fun _ -> Rx_model.rx ()); hi = Array.make n (-1); sets = Array.make (nr * no) [] }
      in
      List.iteri
        (fun i op ->
          let got = r_step t op and want = m_step m op in
          if got <> want then
            QCheck.Test.fail_reportf "op %d (%s): Replicas %S, model %S" i (show_op op) got want;
          let got = snapshot_r t and want = snapshot_m m in
          if got <> want then
            QCheck.Test.fail_reportf "after op %d (%s):\nReplicas %s\nmodel    %s" i (show_op op) got
              want)
        ops;
      true)

let suites =
  [
    ( "replicas",
      [
        tc "JOIN resets only on a newer incarnation" join_resets_only_on_newer_incarnation;
        QCheck_alcotest.to_alcotest qcheck_set_hash_incremental;
        QCheck_alcotest.to_alcotest qcheck_replicas_match_model;
      ] );
  ]
