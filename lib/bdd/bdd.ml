type t = int

(* Open-addressing tables keyed by int triples: the manager's unique
   table, ite cache and scratch memo.  A slot is five ints inline —
   epoch stamp, three keys, value — so a lookup hashes three ints and
   walks one flat array: no tuple is boxed and nothing goes through
   polymorphic hashing.  A slot is live only while its stamp equals the
   table's epoch, so [clear] is O(1): it bumps the epoch and every slot
   reads empty, with the arrays kept for the next use.  Probing is
   linear; the table doubles at half load and never deletes.  Stored
   values are non-negative, so [find] answers -1 for an absent key. *)
module Tbl = struct
  type t = {
    mutable data : int array;
    mutable mask : int;  (* slots - 1; slots is a power of two *)
    mutable count : int;
    mutable epoch : int;  (* >= 1; stamps of never-used slots are 0 *)
  }

  let create n = { data = Array.make (5 * n) 0; mask = n - 1; count = 0; epoch = 1 }

  let clear t =
    t.epoch <- t.epoch + 1;
    t.count <- 0

  let hash a b c =
    let h = (a * 0x9E3779B1) + (b * 0x85EBCA77) + (c * 0xC2B2AE3D) in
    h lxor (h lsr 29)

  (* first word of the slot holding the key, or of the empty slot where
     it would go; a toplevel loop, so a lookup allocates nothing *)
  let rec probe data mask epoch a b c i =
    let j = (i lsl 2) + i in
    if Array.unsafe_get data j <> epoch
       || (Array.unsafe_get data (j + 1) = a
          && Array.unsafe_get data (j + 2) = b
          && Array.unsafe_get data (j + 3) = c)
    then j
    else probe data mask epoch a b c ((i + 1) land mask)

  let slot t a b c = probe t.data t.mask t.epoch a b c (hash a b c land t.mask)

  let find t a b c =
    let j = slot t a b c in
    if t.data.(j) <> t.epoch then -1 else t.data.(j + 4)

  let mem t a b c = find t a b c >= 0

  let rec add t a b c v =
    if 2 * (t.count + 1) > t.mask + 1 then begin
      let old = t.data and epoch = t.epoch in
      t.data <- Array.make (2 * Array.length old) 0;
      t.mask <- (2 * t.mask) + 1;
      t.count <- 0;
      let j = ref 0 in
      while !j < Array.length old do
        let s = !j in
        if old.(s) = epoch then
          add t old.(s + 1) old.(s + 2) old.(s + 3) old.(s + 4);
        j := s + 5
      done
    end;
    let data = t.data in
    let j = slot t a b c in
    if data.(j) <> t.epoch then begin
      t.count <- t.count + 1;
      data.(j) <- t.epoch
    end;
    data.(j + 1) <- a;
    data.(j + 2) <- b;
    data.(j + 3) <- c;
    data.(j + 4) <- v
end

(* Node ids 0 and 1 are the terminals.  Internal nodes are stored in growable
   arrays indexed by id; [level] is the variable index (terminals get
   [max_int] so the top-variable computation is uniform).  Entries at ids
   [>= next_id] are stale after a [reset] and are never read before [mk]
   writes them.  [scratch] is the memo of whichever per-call traversal
   runs ([restrict], [cofactors], [compose], [support], [sat_count],
   [size], [export]): each clears it on entry, and none of them calls
   another while it holds the memo. *)

type man = {
  mutable level : int array;
  mutable low : int array;
  mutable high : int array;
  mutable next_id : int;
  unique : Tbl.t;
  ite_cache : Tbl.t;
  scratch : Tbl.t;
  mutable nvars : int;
  mutable leased : bool;
}

(* Node arrays start at 64 ids and tables at 32 slots (160 words): every
   block of a fresh manager stays within the 256 words OCaml allocates on
   the minor heap, so a short-lived manager (one per mapped LUT in
   [Mapgen]) costs a few minor words. *)
let initial = 64
let initial_slots = 32

let new_man () =
  (* ids 0 (false) and 1 (true) are pre-allocated terminals *)
  {
    level = Array.make initial max_int;
    low = Array.make initial 0;
    high = Array.make initial 0;
    next_id = 2;
    unique = Tbl.create initial_slots;
    ite_cache = Tbl.create initial_slots;
    scratch = Tbl.create initial_slots;
    nvars = 0;
    leased = false;
  }

let reset m =
  if m.leased then
    invalid_arg
      "Bdd.reset: manager is leased — two label runs are sharing one \
       manager (doc/CONCURRENCY.md: one manager per label run)";
  m.next_id <- 2;
  m.nvars <- 0;
  Tbl.clear m.unique;
  Tbl.clear m.ite_cache;
  Tbl.clear m.scratch

let lease m f =
  reset m;
  m.leased <- true;
  Fun.protect ~finally:(fun () -> m.leased <- false) f

(* the scratch memo, emptied for one traversal *)
let memo m =
  Tbl.clear m.scratch;
  m.scratch

let bdd_false _ = 0
let bdd_true _ = 1
let of_bool _ b = if b then 1 else 0
let is_false _ f = f = 0
let is_true _ f = f = 1
let is_const _ f = if f = 0 then Some false else if f = 1 then Some true else None
let equal (a : t) (b : t) = a = b
let nvars m = m.nvars
let num_nodes m = m.next_id

let grow m =
  let n = Array.length m.level in
  let n' = 2 * n in
  let copy a fill =
    let b = Array.make n' fill in
    Array.blit a 0 b 0 n;
    b
  in
  m.level <- copy m.level max_int;
  m.low <- copy m.low 0;
  m.high <- copy m.high 0

let mk m lvl lo hi =
  if lo = hi then lo
  else
    let id = Tbl.find m.unique lvl lo hi in
    if id >= 0 then id
    else begin
      if m.next_id >= Array.length m.level then grow m;
      let id = m.next_id in
      m.next_id <- id + 1;
      m.level.(id) <- lvl;
      m.low.(id) <- lo;
      m.high.(id) <- hi;
      Tbl.add m.unique lvl lo hi id;
      id
    end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  if i >= m.nvars then m.nvars <- i + 1;
  mk m i 0 1

let level m f = if f < 2 then max_int else m.level.(f)

(* Shannon cofactors of f with respect to level lvl. *)
let cof0 m f lvl = if f < 2 || m.level.(f) > lvl then f else m.low.(f)
let cof1 m f lvl = if f < 2 || m.level.(f) > lvl then f else m.high.(f)

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let r = Tbl.find m.ite_cache f g h in
    if r >= 0 then r
    else
      let lvl = Int.min (level m f) (Int.min (level m g) (level m h)) in
      let lo = ite m (cof0 m f lvl) (cof0 m g lvl) (cof0 m h lvl) in
      let hi = ite m (cof1 m f lvl) (cof1 m g lvl) (cof1 m h lvl) in
      let r = mk m lvl lo hi in
      Tbl.add m.ite_cache f g h r;
      r

let neg m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor m f g = ite m f (ite m g 0 1) g
let xnor m f g = ite m f g (ite m g 0 1)
let imp m f g = ite m f g 1

(* Substitute a constant for variable i: ite over var i would not work
   directly, so walk the graph.  [memo] is keyed by (node, variable,
   value), so one table can serve several restrictions. *)
let restrict_in m memo f i b =
  let bit = Bool.to_int b in
  let rec go f =
    if f < 2 || m.level.(f) > i then f
    else
      let r = Tbl.find memo f i bit in
      if r >= 0 then r
      else
        let r =
          if m.level.(f) = i then if b then m.high.(f) else m.low.(f)
          else mk m m.level.(f) (go m.low.(f)) (go m.high.(f))
        in
        Tbl.add memo f i bit r;
        r
  in
  go f

let restrict m f i b = restrict_in m (memo m) f i b

let restrict_many m f assigns =
  (* Sort by variable to allow early termination along each path. *)
  let assigns = List.sort (fun (a, _) (b, _) -> Int.compare a b) assigns in
  List.fold_left (fun acc (i, b) -> restrict m acc i b) f assigns

let cofactors m f bound =
  (* All 2^b cofactors of [f] over [bound], bit j of the mask giving
     the value assigned to [bound.(j)] — the restriction tree shares
     every partial restriction between the masks that extend it
     (2^(b+1) - 2 single-variable restricts instead of b * 2^b, each on
     an already-shrunk graph) and one memo serves the whole call.
     Restriction order is ascending variable level, so each step only
     walks the shallow part of the graph; substitutions of distinct
     variables commute, so each cofactor equals the [restrict_many] of
     its assignment. *)
  let b = Array.length bound in
  let order = Array.init b Fun.id in
  Array.sort (fun i j -> Int.compare bound.(i) bound.(j)) order;
  let memo = memo m in
  let out = Array.make (1 lsl b) 0 in
  let rec fill d g mask =
    if d = b then out.(mask) <- g
    else begin
      let p = order.(d) in
      let i = bound.(p) in
      fill (d + 1) (restrict_in m memo g i false) mask;
      fill (d + 1) (restrict_in m memo g i true) (mask lor (1 lsl p))
    end
  in
  fill 0 f 0;
  out

let compose m f i g =
  let memo = memo m in
  let rec go f =
    if f < 2 || m.level.(f) > i then f
    else
      let r = Tbl.find memo f 0 0 in
      if r >= 0 then r
      else
        let r =
          if m.level.(f) = i then ite m g m.high.(f) m.low.(f)
          else
            (* Levels above i may collide with g's levels after
               substitution, so rebuild with ite on the level variable. *)
            let v = mk m m.level.(f) 0 1 in
            ite m v (go m.high.(f)) (go m.low.(f))
        in
        Tbl.add memo f 0 0 r;
        r
  in
  go f

let support m f =
  let seen = memo m in
  (* every internal node's level is a variable index below [nvars] *)
  let used = Array.make m.nvars false in
  let rec go f =
    if f >= 2 && not (Tbl.mem seen f 0 0) then begin
      Tbl.add seen f 0 0 0;
      used.(m.level.(f)) <- true;
      go m.low.(f);
      go m.high.(f)
    end
  in
  go f;
  let vars = ref [] in
  for v = m.nvars - 1 downto 0 do
    if used.(v) then vars := v :: !vars
  done;
  !vars

let eval m f env =
  let rec go f =
    if f = 0 then false
    else if f = 1 then true
    else if env m.level.(f) then go m.high.(f)
    else go m.low.(f)
  in
  go f

let sat_count m f n =
  let memo = memo m in
  (* count over variables [lvl, n) *)
  let rec go f lvl =
    if lvl >= n then (if f = 1 then 1 else if f = 0 then 0 else invalid_arg "Bdd.sat_count: support exceeds n")
    else
      let r = Tbl.find memo f lvl 0 in
      if r >= 0 then r
      else
        let r =
          if f < 2 || m.level.(f) > lvl then 2 * go f (lvl + 1)
          else go m.low.(f) (lvl + 1) + go m.high.(f) (lvl + 1)
        in
        Tbl.add memo f lvl 0 r;
        r
  in
  go f 0

let of_truthtable m tt vars =
  let k = Logic.Truthtable.arity tt in
  if Array.length vars <> k then invalid_arg "Bdd.of_truthtable: vars length";
  (* Shannon expansion over truth-table inputs, highest BDD level first for
     compactness is unnecessary; recurse on tt inputs directly. *)
  let rec go tt j =
    match Logic.Truthtable.is_const tt with
    | Some b -> of_bool m b
    | None ->
        (* j is the next truth-table input to branch on *)
        let lo = go (Logic.Truthtable.cofactor tt j false) (j + 1) in
        let hi = go (Logic.Truthtable.cofactor tt j true) (j + 1) in
        ite m (var m vars.(j)) hi lo
  in
  go tt 0

let apply_truthtable m tt args =
  let k = Logic.Truthtable.arity tt in
  if Array.length args <> k then invalid_arg "Bdd.apply_truthtable: args length";
  let rec go tt j =
    match Logic.Truthtable.is_const tt with
    | Some b -> of_bool m b
    | None ->
        let lo = go (Logic.Truthtable.cofactor tt j false) (j + 1) in
        let hi = go (Logic.Truthtable.cofactor tt j true) (j + 1) in
        ite m args.(j) hi lo
  in
  go tt 0

let to_truthtable m f vars =
  let k = Array.length vars in
  if k > Logic.Truthtable.max_arity then invalid_arg "Bdd.to_truthtable: arity";
  let sup = support m f in
  let in_vars v = Array.exists (fun x -> x = v) vars in
  if not (List.for_all in_vars sup) then
    invalid_arg "Bdd.to_truthtable: support not covered";
  (* truth-table input of each variable (the last position when [vars]
     repeats one); every level reachable from [f] is in its support, so
     the walk below only reads positions that were set *)
  let pos = Array.make (Array.fold_left max (-1) vars + 1) (-1) in
  Array.iteri (fun j x -> if x >= 0 then pos.(x) <- j) vars;
  let rec go i f =
    if f < 2 then f = 1
    else if i land (1 lsl pos.(m.level.(f))) <> 0 then go i m.high.(f)
    else go i m.low.(f)
  in
  let b = ref 0L in
  for i = 0 to (1 lsl k) - 1 do
    if go i f then b := Int64.logor !b (Int64.shift_left 1L i)
  done;
  Logic.Truthtable.create k !b

let size m f =
  let seen = memo m in
  let count = ref 0 in
  let rec go f =
    if not (Tbl.mem seen f 0 0) then begin
      Tbl.add seen f 0 0 0;
      incr count;
      if f >= 2 then begin
        go m.low.(f);
        go m.high.(f)
      end
    end
  in
  go f;
  !count

(* Exported graphs: the nodes reachable from the root in post-order
   (children first), each packed into one word as level (bits 42..61),
   low child (bits 21..41) and high child (bits 0..20) in local ids —
   0 and 1 the terminals, [2 + i] the i-th exported node.  One word per
   node instead of three: exported cones are kept in bulk. *)
type exported = { x_nvars : int; x_root : int; x_nodes : int array }

let x_bits = 21
let x_mask = (1 lsl x_bits) - 1

let export m f =
  let local = memo m in
  let nodes = ref [] in
  let count = ref 0 in
  let rec go f =
    if f < 2 then f
    else
      let l = Tbl.find local f 0 0 in
      if l >= 0 then l
      else begin
        let lo = go m.low.(f) in
        let hi = go m.high.(f) in
        let l = 2 + !count in
        let lvl = m.level.(f) in
        if l > x_mask || lvl >= 1 lsl (62 - (2 * x_bits)) then
          invalid_arg "Bdd.export: graph too large";
        incr count;
        nodes := (lvl lsl (2 * x_bits)) lor (lo lsl x_bits) lor hi :: !nodes;
        Tbl.add local f 0 0 l;
        l
      end
  in
  let root = go f in
  { x_nvars = m.nvars; x_root = root; x_nodes = Array.of_list (List.rev !nodes) }

let import m x =
  if x.x_nvars > m.nvars then m.nvars <- x.x_nvars;
  let ids = Array.make (Array.length x.x_nodes + 2) 1 in
  ids.(0) <- 0;
  Array.iteri
    (fun i e ->
      ids.(i + 2) <-
        mk m (e lsr (2 * x_bits))
          ids.((e lsr x_bits) land x_mask)
          ids.(e land x_mask))
    x.x_nodes;
  ids.(x.x_root)
