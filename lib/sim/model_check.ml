module type CHECKABLE = sig
  include Protocol.PROTOCOL

  val copy_state : state -> state
end

type outcome = {
  states_explored : int;
  distinct_states : int;
  violations : int;
  stuck_states : int;
  completed_schedules : int;
  truncated : bool;
}

let clean o =
  o.violations = 0 && o.stuck_states = 0 && (not o.truncated)
  && o.completed_schedules > 0

let pp_outcome ppf o =
  Format.fprintf ppf
    "explored=%d distinct=%d violations=%d stuck=%d completed=%d%s"
    o.states_explored o.distinct_states o.violations o.stuck_states
    o.completed_schedules
    (if o.truncated then " TRUNCATED" else "")

module Make (P : CHECKABLE) = struct
  (* A global configuration: per-site protocol state, per-channel FIFO
     queues (newest last), who is in the CS, who has completed. *)
  type node = {
    states : P.state array;
    channels : P.message list array;  (* index src*n + dst *)
    in_cs : int;  (* -1 when free *)
    served : bool array;
    pending_requests : bool array;  (* staggered requesters yet to issue *)
    losses : int;  (* messages dropped so far (bounded-loss adversary) *)
  }

  let copy_node node =
    {
      states = Array.map P.copy_state node.states;
      channels = Array.copy node.channels;
      in_cs = node.in_cs;
      served = Array.copy node.served;
      pending_requests = Array.copy node.pending_requests;
      losses = node.losses;
    }

  (* The context used while (re)executing protocol steps inside one node
     under construction; [cell] carries the mutable bits an action updates. *)
  type cell = {
    mutable cur : node;
    mutable entered : int list;  (* CS entries triggered by this action *)
  }

  let make_ctx ~n cell self : P.message Protocol.ctx =
    {
      Protocol.self;
      n;
      now = (fun () -> 0.0);
      send =
        (fun ~dst msg ->
          let idx = (self * n) + dst in
          cell.cur.channels.(idx) <- cell.cur.channels.(idx) @ [ msg ]);
      enter_cs = (fun () -> cell.entered <- self :: cell.entered);
      set_timer =
        (fun ~delay:_ ~tag:_ ->
          invalid_arg "Model_check: protocols with timers are not supported");
      trace_note = ignore;
      trace_event = ignore;
      mark_parked = ignore;
    }

  (* Digest of a node for the visited set. Protocol states are pure data,
     so the polymorphic hash/equality are sound here. *)
  let digest node =
    ( node.states,
      node.channels,
      node.in_cs,
      node.served,
      node.pending_requests,
      node.losses )

  let explore ?(max_states = 2_000_000) ?(staggered = false) ?(max_losses = 0)
      ~n ~requesters pconfig =
    if max_losses < 0 then invalid_arg "Model_check.explore: max_losses";
    if requesters = [] then invalid_arg "Model_check.explore: no requesters";
    List.iter
      (fun s ->
        if s < 0 || s >= n then invalid_arg "Model_check.explore: requester")
      requesters;
    let visited = Hashtbl.create 4096 in
    let explored = ref 0 in
    let violations = ref 0 in
    let stuck = ref 0 in
    let completed = ref 0 in
    let truncated = ref false in
    (* initial node: init everyone, then all requests issued up front *)
    let init_node () =
      let cell =
        {
          cur =
            {
              states = [||];
              channels = Array.make (n * n) [];
              in_cs = -1;
              served = Array.make n true;
              pending_requests = Array.make n false;
              losses = 0;
            };
          entered = [];
        }
      in
      let states =
        Array.init n (fun self -> P.init (make_ctx ~n cell self) pconfig)
      in
      cell.cur <- { cell.cur with states };
      List.iter (fun s -> cell.cur.served.(s) <- false) requesters;
      if staggered then
        (* request issuance becomes an explorable action interleaved with
           deliveries, covering late-arrival schedules too *)
        List.iter (fun s -> cell.cur.pending_requests.(s) <- true) requesters
      else
        List.iter
          (fun s -> P.request_cs (make_ctx ~n cell s) cell.cur.states.(s))
          requesters;
      (* an immediate self-grant (n=1-style) may enter already *)
      (cell, cell.entered)
    in
    (* apply pending CS entries to a node, counting violations *)
    let absorb_entries cell =
      List.iter
        (fun site ->
          if cell.cur.in_cs >= 0 then incr violations
          else cell.cur <- { cell.cur with in_cs = site })
        (List.rev cell.entered);
      cell.entered <- []
    in
    let rec visit node =
      if !truncated then ()
      else begin
        let key = digest node in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key ();
          incr explored;
          if !explored >= max_states then truncated := true
          else begin
            (* enabled actions *)
            let any = ref false in
            (* deliver the head of any non-empty channel *)
            for idx = 0 to (n * n) - 1 do
              match node.channels.(idx) with
              | [] -> ()
              | msg :: rest ->
                any := true;
                let src = idx / n and dst = idx mod n in
                let cell = { cur = copy_node node; entered = [] } in
                cell.cur.channels.(idx) <- rest;
                P.on_message (make_ctx ~n cell dst) cell.cur.states.(dst) ~src
                  msg;
                absorb_entries cell;
                visit cell.cur;
                (* the adversary may instead drop the head, if it still has
                   loss budget; safety must hold on every such schedule *)
                if node.losses < max_losses then begin
                  let lossy = copy_node node in
                  lossy.channels.(idx) <- rest;
                  visit { lossy with losses = lossy.losses + 1 }
                end
            done;
            (* a staggered requester may issue its request now *)
            for site = 0 to n - 1 do
              if node.pending_requests.(site) then begin
                any := true;
                let cell = { cur = copy_node node; entered = [] } in
                cell.cur.pending_requests.(site) <- false;
                P.request_cs (make_ctx ~n cell site) cell.cur.states.(site);
                absorb_entries cell;
                visit cell.cur
              end
            done;
            (* the site in the CS may exit *)
            if node.in_cs >= 0 then begin
              any := true;
              let site = node.in_cs in
              let cell = { cur = copy_node node; entered = [] } in
              cell.cur <- { cell.cur with in_cs = -1 };
              cell.cur.served.(site) <- true;
              P.release_cs (make_ctx ~n cell site) cell.cur.states.(site);
              absorb_entries cell;
              visit cell.cur
            end;
            if not !any then begin
              (* terminal: no messages, nobody in CS *)
              if Array.for_all Fun.id node.served then incr completed
              else incr stuck
            end
          end
        end
      end
    in
    let cell, _ = init_node () in
    absorb_entries cell;
    visit cell.cur;
    {
      states_explored = !explored;
      distinct_states = Hashtbl.length visited;
      violations = !violations;
      stuck_states = !stuck;
      completed_schedules = !completed;
      truncated = !truncated;
    }
end
