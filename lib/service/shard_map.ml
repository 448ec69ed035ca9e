(* Lock-namespace sharding: lock name -> shard by FNV-1a, and the
   per-shard rotation that spreads each shard's protocol sites over the
   node set so no node is the quorum hot spot of every shard at once. *)

(* 64-bit FNV-1a in native ints. [lxor] and [*] wrap modulo 2^63, which
   keeps exactly the low 63 bits of the [Int64] computation: the bits
   [Int64.to_int] keeps. Clearing the sign bit then folds to the same
   non-negative int, with no boxed [Int64] per byte. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3

let hash lock =
  let h = ref fnv_offset in
  for i = 0 to String.length lock - 1 do
    h := (!h lxor Char.code lock.[i]) * fnv_prime
  done;
  !h land max_int

let shard_of_lock ~shards lock =
  if shards < 1 then invalid_arg "Shard_map: shards must be >= 1";
  hash lock mod shards

let node_of_site ~shard ~n site =
  if site < 0 || site >= n then invalid_arg "Shard_map: site out of range";
  (site + shard) mod n

let site_of_node ~shard ~n node =
  if node < 0 || node >= n then invalid_arg "Shard_map: node out of range";
  ((node - shard) mod n + n) mod n
