(* Child-process plumbing for the lock-service swarm driver:
   kernel-allocated loopback ports, re-exec
   of the current binary with a spec in an environment variable, and
   quiet SIGKILL+reap teardown. *)

let alloc_ports k =
  let fds =
    List.init k (fun _ ->
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.setsockopt fd SO_REUSEADDR true;
        Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | _ -> assert false)
      fds
  in
  List.iter Unix.close fds;
  ports

let child ~log_dir ~log_name ~env_var ~spec =
  let exe = Sys.executable_name in
  let prefix = env_var ^ "=" in
  let plen = String.length prefix in
  let env =
    Array.append
      (Array.of_seq
         (Seq.filter
            (fun kv ->
              not (String.length kv >= plen && String.sub kv 0 plen = prefix))
            (Array.to_seq (Unix.environment ()))))
      [| prefix ^ spec |]
  in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let errfd =
    match log_dir with
    | None -> devnull
    | Some d ->
      Unix.openfile (Filename.concat d log_name)
        [ O_WRONLY; O_CREAT; O_APPEND ]
        0o644
  in
  let pid = Unix.create_process_env exe [| exe |] env devnull devnull errfd in
  Unix.close devnull;
  if errfd <> devnull then Unix.close errfd;
  pid

let kill_quietly pid =
  (try Unix.kill pid Sys.sigkill with _ -> ());
  try ignore (Unix.waitpid [] pid) with _ -> ()
