type t = { class_of : int array; representatives : Bdd.t array }

let compute man f ~bound =
  let b = Array.length bound in
  if b > 16 then invalid_arg "Classes.compute: bound set too large";
  let count = 1 lsl b in
  let class_of = Array.make count (-1) in
  let reps = ref [] in
  let nclasses = ref 0 in
  let seen = Hashtbl.create 16 in
  (* one shared restriction tree for the whole cofactor family; mask
     semantics (bit j assigns bound.(j)) and class numbering by first
     occurrence are unchanged *)
  let cofs = Bdd.cofactors man f bound in
  for m = 0 to count - 1 do
    let cof = cofs.(m) in
    match Hashtbl.find_opt seen cof with
    | Some c -> class_of.(m) <- c
    | None ->
        let c = !nclasses in
        incr nclasses;
        Hashtbl.replace seen cof c;
        class_of.(m) <- c;
        reps := cof :: !reps
  done;
  { class_of; representatives = Array.of_list (List.rev !reps) }

let multiplicity man f ~bound =
  Array.length (compute man f ~bound).representatives

let at_most table ~bound ~mu =
  let free = (Array.length table - 1) land lnot bound in
  (* bound assignments [a] and [r] share a class iff their entries agree
     under every assignment [c] of the free pool variables: the submask
     walk of [free], from [free] down to 0 *)
  let rec same a r c =
    Bdd.equal table.(a lor c) table.(r lor c)
    && (c = 0 || same a r ((c - 1) land free))
  in
  let reps = Array.make mu 0 in
  let rec known a i n = i < n && (same a reps.(i) free || known a (i + 1) n) in
  (* visit the bound assignments as the submasks of [bound]; fail at the
     (mu+1)-th class *)
  let rec go a n =
    if known a 0 n then a = 0 || go ((a - 1) land bound) n
    else if n = mu then false
    else begin
      reps.(n) <- a;
      a = 0 || go ((a - 1) land bound) (n + 1)
    end
  in
  go bound 0
