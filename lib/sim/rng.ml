(* xoshiro256++ (Blackman & Vigna) seeded via splitmix64. Both algorithms
   are implemented verbatim from the reference C sources; all arithmetic is
   on int64 with wraparound, which OCaml's Int64 provides natively. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The xoshiro256++ state update, on unboxed locals: the loop allocates
   nothing, and only the final write-back boxes. *)
let skip t k =
  let open Int64 in
  let s0 = ref t.s0 and s1 = ref t.s1 and s2 = ref t.s2 and s3 = ref t.s3 in
  for _ = 1 to k do
    let tmp = shift_left !s1 17 in
    s2 := logxor !s2 !s0;
    s3 := logxor !s3 !s1;
    s1 := logxor !s1 !s2;
    s0 := logxor !s0 !s3;
    s2 := logxor !s2 tmp;
    s3 := rotl !s3 45
  done;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let int64 t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  skip t 1;
  result

let split t =
  (* Seed a fresh splitmix64 chain from the parent's next output; this is the
     standard technique for deriving statistically independent streams. *)
  let state = ref (int64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native positive int range; the
     modulo bias is < 2^-40 for every bound used in this repo. *)
  let x = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  x mod bound

let float t bound =
  (* 53 random mantissa bits, scaled. *)
  let x = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L
let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = float t 1.0 in
  (* u = 0 would give infinity; nudge it into (0,1]. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
