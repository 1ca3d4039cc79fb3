(* Reference model for the receive windows of [Replicas]: one receive
   window per (source, tree), each with its own out-of-order table. This is
   the per-window implementation the reliable plane used before every
   window moved into one [Replicas] table; the differential test in
   test_replicas.ml runs both on the same inputs. *)

type 'a rx = {
  mutable rnext : int;  (* next expected sequence number *)
  pending : (int, 'a) Hashtbl.t;  (* out-of-order buffer: seq -> payload *)
  mutable dups : int;
  mutable armed : bool;  (* caller's repair-timer latch *)
  mutable rinc : int;  (* origin incarnation this window is keyed to *)
}

type 'a verdict =
  | Deliver of 'a list  (* in-order run, oldest first *)
  | Duplicate
  | Buffered  (* out of order: a gap is now open *)

let rx () =
  { rnext = 0; pending = Hashtbl.create 8; dups = 0; armed = false; rinc = 0 }

let next_expected r = r.rnext
let duplicates r = r.dups
let rx_incarnation r = r.rinc

(* A newer incarnation drops the window's state; an older one is stale. *)
let ensure_epoch r ~epoch =
  if epoch < r.rinc then false
  else begin
    if epoch > r.rinc then begin
      Hashtbl.reset r.pending;
      r.rnext <- 0;
      r.armed <- false;
      r.rinc <- epoch
    end;
    true
  end

let drain r acc =
  let rec go acc =
    match Hashtbl.find_opt r.pending r.rnext with
    | Some p ->
        Hashtbl.remove r.pending r.rnext;
        r.rnext <- r.rnext + 1;
        go (p :: acc)
    | None -> List.rev acc
  in
  go acc

let receive r ~seq payload =
  if seq < 0 then invalid_arg "Rx_model.receive: negative seq";
  if seq < r.rnext || Hashtbl.mem r.pending seq then begin
    r.dups <- r.dups + 1;
    Duplicate
  end
  else if seq = r.rnext then begin
    r.rnext <- r.rnext + 1;
    Deliver (drain r [ payload ])
  end
  else begin
    Hashtbl.replace r.pending seq payload;
    Buffered
  end

let missing r ~upto =
  let out = ref [] in
  let from = ref (-1) in
  for s = r.rnext to upto do
    if Hashtbl.mem r.pending s then begin
      if !from >= 0 then begin
        out := (!from, s - 1) :: !out;
        from := -1
      end
    end
    else if !from < 0 then from := s
  done;
  if !from >= 0 then out := (!from, upto) :: !out;
  List.rev !out

let fast_forward r ~next =
  if next <= r.rnext then []
  else begin
    Array.iter
      (fun s -> if s < next then Hashtbl.remove r.pending s)
      (Util.Tbl.sorted_keys ~cmp:Int.compare r.pending);
    r.rnext <- next;
    drain r []
  end

let arm r =
  if r.armed then false
  else begin
    r.armed <- true;
    true
  end

let disarm r = r.armed <- false
