(* Benchmark-side tracing.

   Spans are recorded only around the benchmark's own calls into each
   layer's public functions — nothing inside lib/ is instrumented. A span's
   name is "<layer>.<operation>"; its self time (duration minus the part its
   child spans cover) is charged to the layer. Spans stay in memory and are
   written once, at exit, as Chrome trace-event JSON (Perfetto opens it).
   GC pauses come from the runtime's own event ring ([runtime_events]). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int vector: the recorder's only storage. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let to_floats v = Array.init v.n (fun i -> float_of_int v.a.(i))
end

let percentile xs p = if Array.length xs = 0 then 0.0 else Util.Stats.percentile xs p

(* Spans written to the trace file; statistics keep counting past it. *)
let max_recorded = 200_000
let max_depth = 64

type name = int

type t = {
  names : (string, name) Hashtbl.t;
  mutable labels : string array;
  mutable durs : Vec.t array;  (* per name: every span duration, ns *)
  mutable selfs : Vec.t array;  (* per name: every span self time, ns *)
  st_start : int array;  (* open-span stack *)
  st_child : int array;
  mutable depth : int;
  recs : Vec.t;  (* flat (name, start, duration, parent's start) quadruples *)
  origin : int;
  (* GC pauses: outermost runtime phases, read off the event ring. *)
  mutable ring : (Runtime_events.cursor * Runtime_events.Callbacks.t) option;
  mutable gc_depth : int;
  mutable gc_begin : int;
  gc_pauses : Vec.t;  (* (start, dur) pairs *)
}

let create () =
  {
    names = Hashtbl.create 32;
    labels = [||];
    durs = [||];
    selfs = [||];
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    recs = Vec.create ();
    origin = now_ns ();
    ring = None;
    gc_depth = 0;
    gc_begin = 0;
    gc_pauses = Vec.create ();
  }

let name t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> id
  | None ->
      let id = Array.length t.labels in
      Hashtbl.replace t.names label id;
      t.labels <- Array.append t.labels [| label |];
      t.durs <- Array.append t.durs [| Vec.create () |];
      t.selfs <- Array.append t.selfs [| Vec.create () |];
      id

let enter t =
  let d = t.depth in
  if d >= max_depth then failwith "Tracer: spans nested too deeply";
  t.st_start.(d) <- now_ns ();
  t.st_child.(d) <- 0;
  t.depth <- d + 1

let leave t id =
  let stop = now_ns () in
  let d = t.depth - 1 in
  let start = t.st_start.(d) in
  let dur = stop - start in
  Vec.push t.durs.(id) dur;
  Vec.push t.selfs.(id) (dur - t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  if Vec.length t.recs < 4 * max_recorded then begin
    Vec.push t.recs id;
    Vec.push t.recs (start - t.origin);
    Vec.push t.recs dur;
    (* The parent is still open and unrecorded; its start time names it. *)
    Vec.push t.recs (if d > 0 then t.st_start.(d - 1) - t.origin else -1)
  end;
  t.depth <- d

let span t id f =
  enter t;
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

let durations t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> Vec.to_floats t.durs.(id)
  | None -> [||]

let self_samples t label =
  match Hashtbl.find_opt t.names label with
  | Some id -> Vec.to_floats t.selfs.(id)
  | None -> [||]

let layer_of label =
  match String.index_opt label '.' with Some i -> String.sub label 0 i | None -> label

let sum v =
  let s = ref 0 in
  for i = 0 to Vec.length v - 1 do
    s := !s + Vec.get v i
  done;
  !s

(* Summed self time per layer, ns, in layer order. *)
let layer_self t =
  let acc = Hashtbl.create 8 in
  Array.iteri
    (fun id label ->
      let l = layer_of label in
      Hashtbl.replace acc l (sum t.selfs.(id) + Option.value ~default:0 (Hashtbl.find_opt acc l)))
    t.labels;
  List.sort compare (Hashtbl.fold (fun l s xs -> (l, s) :: xs) acc [])

let self_time t label =
  match Hashtbl.find_opt t.names label with Some id -> sum t.selfs.(id) | None -> 0

(* -- GC pauses ------------------------------------------------------------ *)

let gc_callbacks t =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ time _ ->
      if t.gc_depth = 0 then t.gc_begin <- ts time;
      t.gc_depth <- t.gc_depth + 1)
    ~runtime_end:(fun _ time _ ->
      if t.gc_depth > 0 then begin
        t.gc_depth <- t.gc_depth - 1;
        if t.gc_depth = 0 then begin
          Vec.push t.gc_pauses (t.gc_begin - t.origin);
          Vec.push t.gc_pauses (ts time - t.gc_begin)
        end
      end)
    ()

let gc_start t =
  Runtime_events.start ();
  let c = Runtime_events.create_cursor None in
  (* Drop whatever the ring already holds from before the measured phase. *)
  ignore (Runtime_events.read_poll c (Runtime_events.Callbacks.create ()) None);
  t.ring <- Some (c, gc_callbacks t)

let gc_poll t =
  match t.ring with Some (c, cbs) -> ignore (Runtime_events.read_poll c cbs None) | None -> ()

let gc_pauses_us t =
  let n = Vec.length t.gc_pauses / 2 in
  Array.init n (fun i -> float_of_int (Vec.get t.gc_pauses ((2 * i) + 1)) /. 1000.0)

(* -- Chrome trace-event JSON ---------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome t ~path ~meta =
  let oc = open_out path in
  let us ns = float_of_int ns /. 1000.0 in
  Printf.fprintf oc "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s%s:%s" (if i > 0 then "," else "") (json_string k) (json_string v))
    meta;
  Printf.fprintf oc "},\"traceEvents\":[";
  Printf.fprintf oc
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"layers\"}},";
  Printf.fprintf oc
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"gc\"}}";
  let n = Vec.length t.recs / 4 in
  for i = 0 to n - 1 do
    let id = Vec.get t.recs (4 * i) in
    let start = Vec.get t.recs ((4 * i) + 1) and dur = Vec.get t.recs ((4 * i) + 2) in
    let parent = Vec.get t.recs ((4 * i) + 3) in
    let label = t.labels.(id) in
    Printf.fprintf oc
      ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f%s}"
      (json_string label) (json_string (layer_of label)) (us start) (us dur)
      (if parent >= 0 then Printf.sprintf ",\"args\":{\"parent_ts\":%.3f}" (us parent) else "")
  done;
  let g = Vec.length t.gc_pauses / 2 in
  for i = 0 to g - 1 do
    Printf.fprintf oc
      ",\n{\"name\":\"gc.pause\",\"cat\":\"gc\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\
       \"ts\":%.3f,\"dur\":%.3f}"
      (us (Vec.get t.gc_pauses (2 * i)))
      (us (Vec.get t.gc_pauses ((2 * i) + 1)))
  done;
  Printf.fprintf oc "]}\n";
  close_out oc
