open Logic

let const ?name t b =
  Netlist.add_gate ?name t
    (if b then Truthtable.const1 0 else Truthtable.const0 0)
    [||]

let unary ?name ?(w = 0) t f a = Netlist.add_gate ?name t f [| (a, w) |]
let not_ ?name ?w t a = unary ?name ?w t (Truthtable.not_ (Truthtable.var 1 0)) a
let buf ?name ?w t a = unary ?name ?w t (Truthtable.var 1 0) a

let binary ?name ?(wa = 0) ?(wb = 0) t f a b =
  Netlist.add_gate ?name t f [| (a, wa); (b, wb) |]

let and2 ?name ?wa ?wb t a b = binary ?name ?wa ?wb t (Truthtable.and_all 2) a b
let or2 ?name ?wa ?wb t a b = binary ?name ?wa ?wb t (Truthtable.or_all 2) a b
let xor2 ?name ?wa ?wb t a b = binary ?name ?wa ?wb t (Truthtable.xor_all 2) a b

let mux ?name t ~sel ~t1 ~t0 =
  let f =
    Truthtable.ite (Truthtable.var 3 0) (Truthtable.var 3 1) (Truthtable.var 3 2)
  in
  Netlist.add_gate ?name t f [| (sel, 0); (t1, 0); (t0, 0) |]

let gate ?name t f fanins = Netlist.add_gate ?name t f (Array.of_list fanins)

let full_adder t ~a ~b ~cin =
  let sum_f = Truthtable.xor_all 3 in
  (* majority function of three inputs *)
  let v i = Truthtable.var 3 i in
  let carry_f =
    Truthtable.or_
      (Truthtable.and_ (v 0) (v 1))
      (Truthtable.or_
         (Truthtable.and_ (v 0) (v 2))
         (Truthtable.and_ (v 1) (v 2)))
  in
  let sum = Netlist.add_gate t sum_f [| (a, 0); (b, 0); (cin, 0) |] in
  let carry = Netlist.add_gate t carry_f [| (a, 0); (b, 0); (cin, 0) |] in
  (sum, carry)
