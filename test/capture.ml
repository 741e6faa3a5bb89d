(* Run a channel writer into a temporary file and return the bytes it
   wrote, so tests can compare streamed output with string renderings. *)
let output write =
  let path = Filename.temp_file "bcp-capture" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path write;
      In_channel.with_open_bin path In_channel.input_all)
