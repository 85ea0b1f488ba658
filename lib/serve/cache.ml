(* LRU + single-flight result cache.

   One mutex guards the table, the LRU list and the in-flight markers;
   one condition variable wakes joiners when a flight lands (or
   crashes).  The compute callback runs outside the lock: a key's
   flight blocks only requests for that same key, never the cache.

   The LRU list is an intrusive circular doubly-linked list through a
   sentinel: most-recently-used behind [sent.next], eviction victim at
   [sent.prev].  Only completed entries live in the list — an in-flight
   key is just a [Pending] table slot, so eviction can never race a
   computation. *)

type node = {
  key : string;
  body : string;
  mutable prev : node;
  mutable next : node;
}

type slot = Ready of node | Pending

type outcome = Hit | Miss | Join | Bypass

let outcome_label = function
  | Hit | Join -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

type t = {
  mutex : Mutex.t;
  landed : Condition.t; (* a flight completed (or failed) *)
  tbl : (string, slot) Hashtbl.t;
  sent : node; (* LRU sentinel: next = MRU, prev = LRU *)
  cap : int;
  mutable size : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  let rec sent = { key = ""; body = ""; prev = sent; next = sent } in
  {
    mutex = Mutex.create ();
    landed = Condition.create ();
    tbl = Hashtbl.create 64;
    sent;
    cap = capacity;
    size = 0;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sent.next;
  n.prev <- t.sent;
  t.sent.next.prev <- n;
  t.sent.next <- n

let touch t n =
  unlink n;
  push_front t n

let evict_over_capacity t =
  while t.size > t.cap do
    let victim = t.sent.prev in
    unlink victim;
    Hashtbl.remove t.tbl victim.key;
    t.size <- t.size - 1
  done

(* a completed entry's bytes, refreshed as most recently used; [None]
   for an absent or in-flight key, without waiting or leading *)
let find t ~key =
  if t.cap = 0 then None
  else begin
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready n) ->
          touch t n;
          Some n.body
      | Some Pending | None -> None
    in
    Mutex.unlock t.mutex;
    r
  end

let find_or_compute t ~key compute =
  if t.cap = 0 then (compute (), Bypass)
  else begin
    Mutex.lock t.mutex;
    (* resolve the key to either cached bytes or flight leadership;
       waiting on an in-flight entry loops, because the flight may fail
       — in which case the first waiter to wake leads the retry *)
    let waited = ref false in
    let rec resolve () =
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready n) ->
          touch t n;
          `Ready n.body
      | Some Pending ->
          waited := true;
          Condition.wait t.landed t.mutex;
          resolve ()
      | None ->
          Hashtbl.replace t.tbl key Pending;
          `Lead
    in
    match resolve () with
    | `Ready body ->
        Mutex.unlock t.mutex;
        (body, if !waited then Join else Hit)
    | `Lead -> (
        Mutex.unlock t.mutex;
        let outcome =
          try Ok (compute ()) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.mutex;
        (match outcome with
        | Ok body ->
            let n = { key; body; prev = t.sent; next = t.sent } in
            push_front t n;
            Hashtbl.replace t.tbl key (Ready n);
            t.size <- t.size + 1;
            evict_over_capacity t
        | Error _ -> Hashtbl.remove t.tbl key);
        Condition.broadcast t.landed;
        Mutex.unlock t.mutex;
        match outcome with
        | Ok body -> (body, Miss)
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  end

let length t =
  Mutex.lock t.mutex;
  let n = t.size in
  Mutex.unlock t.mutex;
  n

let capacity t = t.cap
