let scan ~n entries =
  let in_cs = Array.make n false in
  let open_tenures = ref 0 in
  let violations = ref 0 in
  let close site =
    if in_cs.(site) then begin
      in_cs.(site) <- false;
      decr open_tenures
    end
  in
  List.iter
    (fun (e : Trace.entry) ->
      let site = e.Trace.site in
      match e.Trace.kind with
      | Trace.Enter_cs ->
        if !open_tenures > 0 then incr violations;
        if not in_cs.(site) then incr open_tenures;
        in_cs.(site) <- true
      | Trace.Exit_cs | Trace.Crash -> close site
      | _ -> ())
    entries;
  !violations
