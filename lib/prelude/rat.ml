type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd (abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num r = r.num
let den r = r.den
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }
let abs a = { a with num = Stdlib.abs a.num }
let mul_int a k = make (a.num * k) a.den
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let min a b = if Stdlib.( <= ) (compare a b) 0 then a else b
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let sign a = Stdlib.compare a.num 0

let floor a =
  if Stdlib.( >= ) a.num 0 then a.num / a.den
  else
    let q = a.num / a.den in
    if q * a.den = a.num then q else q - 1

let ceil a = -floor (neg a)
let mediant a b = make (a.num + b.num) (a.den + b.den)
let to_float a = float_of_int a.num /. float_of_int a.den

let pp fmt a =
  if a.den = 1 then Format.fprintf fmt "%d" a.num
  else Format.fprintf fmt "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a

(* Exponential-then-binary search for the largest [k] in [1, kmax] with
   [p k], assuming [p] holds on a prefix.  [p 1] holding is the caller's
   precondition: it is never evaluated here, since [p] is a search probe
   the caller has just run. *)
let max_k_with ~kmax p =
  assert (Stdlib.( >= ) kmax 1);
  let rec expo k = if Stdlib.( >= ) k kmax then kmax else if p (Stdlib.min kmax (2 * k)) then expo (2 * k) else k in
  let hi0 = expo 1 in
  if hi0 = kmax then kmax
  else begin
    (* p hi0 holds; p (min kmax (2*hi0)) fails. *)
    let lo = ref hi0 and hi = ref (Stdlib.min kmax (2 * hi0)) in
    while Stdlib.( > ) (!hi - !lo) 1 do
      let m = (!lo + !hi) / 2 in
      if p m then lo := m else hi := m
    done;
    !lo
  end

let stern_brocot_min ~lo ~hi ~max_den ~feasible =
  if not (feasible hi) then None
  else if feasible lo then Some lo
  else begin
    (* Descend the Stern–Brocot tree from the root anchors 0/1 and 1/0
       (Farey neighbors: a*d - b*c = -1 is preserved by every step, so when
       b + d exceeds [max_den] no fraction strictly between a/b and c/d has a
       denominator within budget and c/d is the answer).  The caller's [lo]
       and [hi] only bracket the threshold: monotonicity of [feasible]
       guarantees the minimum feasible fraction lies in (lo, hi]. *)
    let a = ref 0 and b = ref 1 in
    (* c/d = 1/0 represents +infinity until the first feasible probe. *)
    let c = ref 1 and d = ref 0 in
    let big = max_int / 4 in
    let result = ref None in
    while !result = None do
      if Stdlib.( > ) (!b + !d) max_den then result := Some (make !c !d)
      else if feasible (make (!a + !c) (!b + !d)) then begin
        (* With c/d still 1/0 the integer phase has just bracketed the
           answer in (n-1, n]: a/b = (n-1)/1 and the mediant is n/1.
           Certify the integer ceiling first: f = n - 1/max_den and n are
           Farey neighbors, so when f is infeasible no fraction within
           budget lies between them and n is the answer (b + d exceeds
           [max_den], which ends the loop).  f is the far end the next
           infeasible walk would probe first anyway; when it is feasible
           the ladder below runs unchanged. *)
        if
          !d = 0
          && Stdlib.( > ) max_den 1
          && not (feasible (make (((!a + 1) * max_den) - 1) max_den))
        then begin
          c := !a + 1;
          d := 1;
          a := (!c * max_den) - 1;
          b := max_den
        end
        else begin
          (* Walk hi toward lo: m_k = (k*a + c)/(k*b + d), feasible on a
             prefix of k (values decrease toward a/b). *)
          let kmax = if !b = 0 then big else Stdlib.max 1 ((max_den - !d) / !b) in
          let k =
            max_k_with ~kmax (fun k ->
                feasible (make ((k * !a) + !c) ((k * !b) + !d)))
          in
          c := (k * !a) + !c;
          d := (k * !b) + !d
        end
      end
      else begin
        (* Walk lo toward hi: m_k = (a + k*c)/(b + k*d), infeasible on a
           prefix of k (values increase toward c/d).  With c/d finite the
           far end m_kmax is probed first: a final approach to the answer
           is typically a run of infeasible steps, each of which the
           ladder would pay for separately, while a feasible far end is
           a cheap probe.  (The hi-toward-lo walk keeps the plain ladder:
           there the far end is an expensive infeasible probe.  The one
           exception is the integer certificate above, which probes the
           far end of the infeasible walk that would follow.) *)
        let kmax = if !d = 0 then big else Stdlib.max 1 ((max_den - !b) / !d) in
        let infeasible_at k =
          not (feasible (make (!a + (k * !c)) (!b + (k * !d))))
        in
        let k =
          if Stdlib.( > ) !d 0 && Stdlib.( > ) kmax 1 && infeasible_at kmax then kmax
          else max_k_with ~kmax infeasible_at
        in
        a := !a + (k * !c);
        b := !b + (k * !d)
      end
    done;
    !result
  end
