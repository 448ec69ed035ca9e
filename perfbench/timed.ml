(* Timing from outside the program: a monotonic clock, accumulators, and
   wrappers around the public entry points of each layer. Nothing here
   changes what the wrapped code computes; the traced run checks that by
   comparing its exact counts with an untraced run of the same seed. *)

module Proto = Dmx_sim.Protocol

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Time [f ()] in seconds. *)
let wall f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

let add a t0 =
  a.ns <- a.ns + (now_ns () - t0);
  a.calls <- a.calls + 1

(* Inclusive time inside the protocol's callbacks, and the part of it
   spent inside [ctx.send] (the engine's or the host's send path). *)
let proto = acc ()
let send = acc ()

(* The wire codec handed to the service twin. *)
let encode = acc ()
let decode = acc ()
let encoded_bytes = ref 0

(* Recording the traffic for the replays, done inside [ctx.send]. *)
let recording = acc ()

(* Sends and receipts in the order the engine dispatched them, kept only
   when a replay of the queue and network layers is wanted. Each op packs
   (is_send, src, dst) into one int; sites fit in 30 bits. *)
module Log = struct
  type t = { mutable ops : int array; mutable times : float array; mutable len : int }

  let create () = { ops = Array.make 4096 0; times = Array.make 4096 0.0; len = 0 }

  let push l ~is_send ~src ~dst ~time =
    if l.len = Array.length l.ops then begin
      let grow a z =
        let b = Array.make (2 * Array.length a) z in
        Array.blit a 0 b 0 l.len;
        b
      in
      l.ops <- grow l.ops 0;
      l.times <- grow l.times 0.0
    end;
    l.ops.(l.len) <- (((src lsl 30) lor dst) lsl 1) lor Bool.to_int is_send;
    l.times.(l.len) <- time;
    l.len <- l.len + 1

  let iter l f =
    for i = 0 to l.len - 1 do
      let op = l.ops.(i) in
      f ~is_send:(op land 1 = 1)
        ~src:(op lsr 31)
        ~dst:((op lsr 1) land ((1 lsl 30) - 1))
        ~time:l.times.(i)
    done
end

let log : Log.t option ref = ref None

(* Sites whose protocol state was created, in creation order. *)
let inits : int list ref = ref []

let reset ~record =
  List.iter (fun a -> a.ns <- 0; a.calls <- 0) [ proto; send; encode; decode; recording ];
  encoded_bytes := 0;
  inits := [];
  log := if record then Some (Log.create ()) else None

(* [P] with every callback timed. The state keeps the context the site was
   created with and its timed twin, so the twin is built once per site and
   protocols that capture [ctx.send] at [init] (the reliability layer does)
   are timed too. *)
module Timed (P : Proto.PROTOCOL) : sig
  include
    Proto.PROTOCOL
      with type config = P.config
       and type message = P.message

  val inner : state -> P.state
end = struct
  type config = P.config
  type message = P.message

  type state = {
    inner : P.state;
    base : message Proto.ctx;
    timed : message Proto.ctx;
  }

  let inner st = st.inner
  let name = P.name
  let describe = P.describe
  let message_kind = P.message_kind
  let pp_message = P.pp_message

  let wrap (ctx : message Proto.ctx) =
    let send ~dst msg =
      (match !log with
      | Some l ->
        let t0 = now_ns () in
        Log.push l ~is_send:true ~src:ctx.self ~dst ~time:(ctx.now ());
        add recording t0
      | None -> ());
      let t0 = now_ns () in
      ctx.send ~dst msg;
      add send t0
    in
    { ctx with send }

  let ctx_for st ctx = if ctx == st.base then st.timed else wrap ctx

  let init ctx cfg =
    inits := ctx.Proto.self :: !inits;
    let timed = wrap ctx in
    let t0 = now_ns () in
    let inner = P.init timed cfg in
    add proto t0;
    { inner; base = ctx; timed }

  let on_message ctx st ~src msg =
    (match !log with
    | Some l ->
      Log.push l ~is_send:false ~src ~dst:ctx.Proto.self ~time:(ctx.now ())
    | None -> ());
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.on_message c st.inner ~src msg;
    add proto t0

  let request_cs ctx st =
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.request_cs c st.inner;
    add proto t0

  let release_cs ctx st =
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.release_cs c st.inner;
    add proto t0

  let on_timer ctx st tag =
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.on_timer c st.inner tag;
    add proto t0

  let on_failure ctx st site =
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.on_failure c st.inner site;
    add proto t0

  let on_recovery ctx st site =
    let c = ctx_for st ctx in
    let t0 = now_ns () in
    P.on_recovery c st.inner site;
    add proto t0
end

(* The cost of one clock read. A timed interval carries about one read of
   its own, and two for every interval timed inside it; [proto_s] and
   friends take these, and the traffic recording, back out. *)
let clock_ns =
  lazy
    (let n = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

let net a ~inner =
  (float_of_int a.ns -. (Lazy.force clock_ns *. float_of_int (a.calls + (2 * inner))))
  *. 1e-9

(* Seconds in the protocol's callbacks, sends included; in [ctx.send],
   which includes the encoding on the service twin; in decoding. *)
let proto_s () =
  net proto ~inner:(send.calls + encode.calls + recording.calls)
  -. (float_of_int recording.ns *. 1e-9)

let send_s () = net send ~inner:encode.calls
let decode_s () = net decode ~inner:0

(* A codec whose calls are timed and whose output bytes are counted. *)
let codec ~encode:enc ~decode:dec =
  ( (fun msg ->
      let t0 = now_ns () in
      let s = enc msg in
      add encode t0;
      encoded_bytes := !encoded_bytes + String.length s;
      s),
    fun s ->
      let t0 = now_ns () in
      let r = dec s in
      add decode t0;
      r )
