let save path specs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s : Flowgen.spec) ->
          Printf.fprintf oc "A %d %d %d %d %d %d\n" s.arrival_ns s.src s.dst s.size s.weight
            s.priority)
        specs)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then
             acc :=
               (match String.split_on_char ' ' line with
               | [ "A"; a; s; d; sz; w; p ] ->
                   {
                     Flowgen.arrival_ns = int_of_string a;
                     src = int_of_string s;
                     dst = int_of_string d;
                     size = int_of_string sz;
                     weight = int_of_string w;
                     priority = int_of_string p;
                   }
               | _ -> failwith ("Trace.load: malformed line: " ^ line))
               :: !acc
         done
       with
      | End_of_file -> ()
      | Failure _ as e -> raise e);
      List.rev !acc)
