(* Path of the [bcp_sim] binary, a declared dune dependency of the
   tests.  Under `dune runtest` the cwd is _build/default/test; under a
   bare `dune exec` it is the workspace root. *)
let bcp_sim =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "bcp_sim.exe";
      List.fold_left Filename.concat "_build" [ "default"; "bin"; "bcp_sim.exe" ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates
