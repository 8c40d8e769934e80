(* Sharded transposition table over two-word configuration fingerprints.

   One table serves both the sequential [`Memo] engine (a single unlocked
   shard) and the parallel engine (N locked shards, shard chosen by the
   fingerprint's low bits so concurrent lookups of distinct states almost
   never contend).  Entries are {e claim lists}: each claim [(d, S)] records
   one exploration pass through the keyed configuration — "every enabled
   transition outside the sleep set [S] has been (or is being) explored to
   remaining depth [d]".  Claims are inserted before the subtree is walked,
   matching the sequential engine's historical replace-then-visit order; in
   the parallel engine this optimistic claim is sound because workers join
   before a [Completed] verdict is produced, and a stopped run reports
   [Timed_out]/[Falsified], never a completed exploration.

   [plan] implements sleep sets with state matching and partial
   re-exploration (Godefroid's Algorithm 5, generalized to depth-bounded
   claims): a revisit covered by some claim is pruned outright ([Hit]); a
   revisit at a depth no prior pass reached re-explores in full ([Visit]);
   and a revisit whose depth is covered but whose sleep set is incomparable
   re-explores {e only} the transitions every adequate prior pass had
   asleep ([Partial] carries their intersection).  The old single-entry
   table treated the third case as a full re-visit, which is where the
   commutativity reduction's config counts regressed past plain memoization
   on the RED bench.

   Layout.  A shard is one open-addressed [int array] of three words per
   slot: lane a, lane b, and a claim word.  A claim [(d, S)] packs into one
   positive int, [d + 1] above [sleep_bits] bits of sleep set, so an empty
   slot is the claim word 0.  Shards already split keys on lane a's low
   bits, so slots are probed linearly from lane b's.  A key holds one claim
   in all but a few percent of lookups — a new claim almost always covers
   the old one — and keeps it inline; a key that needs two to [max_claims]
   claims stores them, newest first, in a block of the shard's spill pool,
   and its claim word is the block's index, complemented (negative).  A
   block that shrinks back to one claim is freed to the pool's free list.
   No key is ever removed, so probing needs no tombstones. *)

type plan =
  | Hit
  | Visit
  | Partial of int

(* Keep claim lists short: claims only enable pruning, so dropping one costs
   re-exploration, never soundness. *)
let max_claims = 4

(* The claim word's bit split: the sleep set below, [depth + 1] above,
   half the value bits each, clear of the sign bit. *)
let sleep_bits = (Sys.int_size - 1) / 2
let sleep_mask = (1 lsl sleep_bits) - 1
let max_sleep_pids = sleep_bits
let max_depth = (1 lsl (Sys.int_size - 1 - sleep_bits)) - 2
let pack depth sleep = ((depth + 1) lsl sleep_bits) lor sleep

(* [covers c1 c2]: a pass at claim [c1] explores a superset of what a pass
   at claim [c2] would — at least as deep, from a sleep set no larger. *)
let covers c1 c2 =
  c1 lsr sleep_bits >= c2 lsr sleep_bits && c1 land lnot c2 land sleep_mask = 0

let initial_slots = 64

type shard = {
  mu : Mutex.t;
  mutable slots : int array;  (* 3 words per slot: lane a, lane b, claim word *)
  mutable mask : int;  (* slot count - 1, a power of two *)
  mutable count : int;  (* keys held *)
  mutable pool : int array;  (* spill blocks of [max_claims] words, unused = 0 *)
  mutable blocks : int;  (* blocks carved from [pool] so far *)
  mutable free : int;  (* first freed block, linked through word 0; -1 if none *)
}

type t = {
  shards : shard array;
  mask : int;
  concurrent : bool;
}

let new_shard () =
  {
    mu = Mutex.create ();
    slots = Array.make (3 * initial_slots) 0;
    mask = initial_slots - 1;
    count = 0;
    pool = [||];
    blocks = 0;
    free = -1;
  }

let create ?shards ~concurrent () =
  let shards =
    match shards with
    | Some s when s > 0 ->
      (* round up to a power of two so the low-bit mask is uniform *)
      let rec pow2 k = if k >= s then k else pow2 (k * 2) in
      pow2 1
    | _ -> if concurrent then 64 else 1
  in
  { shards = Array.init shards (fun _ -> new_shard ()); mask = shards - 1; concurrent }

let shard_count t = Array.length t.shards

(* The slot of key [(a, b)] — the one holding it, or the empty slot where it
   belongs — as the index of its first word. *)
let rec find slots mask a b i =
  let j = 3 * i in
  if slots.(j + 2) = 0 || (slots.(j) = a && slots.(j + 1) = b) then j
  else find slots mask a b ((i + 1) land mask)

(* Double the slots, so that at most 3/4 of them are ever taken. *)
let grow sh =
  let old = sh.slots in
  let mask = (2 * (sh.mask + 1)) - 1 in
  let slots = Array.make (3 * (mask + 1)) 0 in
  for i = 0 to sh.mask do
    let w = old.((3 * i) + 2) in
    if w <> 0 then begin
      let a = old.(3 * i) and b = old.((3 * i) + 1) in
      let j = find slots mask a b (b land mask) in
      slots.(j) <- a;
      slots.(j + 1) <- b;
      slots.(j + 2) <- w
    end
  done;
  sh.slots <- slots;
  sh.mask <- mask

let alloc_block sh =
  if sh.free >= 0 then begin
    let blk = sh.free in
    sh.free <- sh.pool.(blk * max_claims);
    blk
  end
  else begin
    let blk = sh.blocks in
    if (blk + 1) * max_claims > Array.length sh.pool then begin
      let pool = Array.make (Stdlib.max (16 * max_claims) (2 * Array.length sh.pool)) 0 in
      Array.blit sh.pool 0 pool 0 (Array.length sh.pool);
      sh.pool <- pool
    end;
    sh.blocks <- blk + 1;
    blk
  end

(* Store [claim] ahead of the claims [c0..c3] (newest first, 0 = none)
   that it does not cover, up to [max_claims] in all — dropping the oldest
   surviving claim is sound — for the key whose claim word is [slots.(w)]:
   inline if one claim remains, else in a spill block. *)
let store sh w claim c0 c1 c2 c3 =
  let pool_base = ref (-1) and kept = ref 0 in
  let keep c =
    if c <> 0 && !kept < max_claims - 1 && not (covers claim c) then begin
      if !pool_base < 0 then begin
        let old = sh.slots.(w) in
        let blk = if old < 0 then lnot old else alloc_block sh in
        sh.slots.(w) <- lnot blk;
        pool_base := blk * max_claims;
        sh.pool.(!pool_base) <- claim
      end;
      incr kept;
      sh.pool.(!pool_base + !kept) <- c
    end
  in
  keep c0;
  keep c1;
  keep c2;
  keep c3;
  if !kept = 0 then begin
    let old = sh.slots.(w) in
    if old < 0 then begin
      (* back to one claim: free the block *)
      let blk = lnot old in
      sh.pool.(blk * max_claims) <- sh.free;
      sh.free <- blk
    end;
    sh.slots.(w) <- claim
  end
  else
    for k = !kept + 1 to max_claims - 1 do
      sh.pool.(!pool_base + k) <- 0
    done

(* [plan] on a key with claims [c0..c3] (newest first, 0 = none). *)
let decide sh w ~depth ~sleep c0 c1 c2 c3 =
  let q = pack depth sleep in
  let hit c = c <> 0 && covers c q in
  if hit c0 || hit c1 || hit c2 || hit c3 then Hit
  else begin
    (* prior passes deep enough to cover this revisit's subtrees; a
       transition needs (re-)exploration only if every one of them had it
       asleep *)
    let dq = q lsr sleep_bits in
    let inter = ref (-1) and any = ref false in
    let adequate c =
      if c <> 0 && c lsr sleep_bits >= dq then begin
        any := true;
        inter := !inter land c land sleep_mask
      end
    in
    adequate c0;
    adequate c1;
    adequate c2;
    adequate c3;
    if !any then begin
      store sh w (pack depth (sleep land !inter)) c0 c1 c2 c3;
      Partial !inter
    end
    else begin
      store sh w q c0 c1 c2 c3;
      Visit
    end
  end

let plan_shard sh a b ~depth ~sleep =
  let j = find sh.slots sh.mask a b (b land sh.mask) in
  let w = sh.slots.(j + 2) in
  if w = 0 then begin
    let j =
      if 4 * (sh.count + 1) <= 3 * (sh.mask + 1) then j
      else begin
        grow sh;
        find sh.slots sh.mask a b (b land sh.mask)
      end
    in
    sh.slots.(j) <- a;
    sh.slots.(j + 1) <- b;
    sh.slots.(j + 2) <- pack depth sleep;
    sh.count <- sh.count + 1;
    Visit
  end
  else if w > 0 then decide sh (j + 2) ~depth ~sleep w 0 0 0
  else begin
    let p = lnot w * max_claims in
    let pool = sh.pool in
    decide sh (j + 2) ~depth ~sleep pool.(p) pool.(p + 1) pool.(p + 2) pool.(p + 3)
  end

let plan t a b ~depth ~sleep =
  let sh = t.shards.(a land t.mask) in
  if t.concurrent then begin
    Mutex.lock sh.mu;
    let r =
      try plan_shard sh a b ~depth ~sleep with e -> Mutex.unlock sh.mu; raise e
    in
    Mutex.unlock sh.mu;
    r
  end
  else plan_shard sh a b ~depth ~sleep

let stats t = Array.fold_left (fun acc sh -> acc + sh.count) 0 t.shards
