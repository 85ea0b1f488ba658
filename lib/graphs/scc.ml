type t = { comp : int array; count : int; members : int array array }

(* Iterative Tarjan.  When a component is completed (popped from the stack)
   every edge leaving it targets an already-completed component, so
   component ids increase against the direction of inter-component edges:
   edge comp a -> comp b (a <> b) implies a > b. *)
let compute ~n ~succ =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit DFS stack: (node, remaining successors). *)
  let frame : (int * int list ref) Stack.t = Stack.create () in
  let push_node v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true;
    Stack.push (v, ref (succ v)) frame
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push_node root;
      while not (Stack.is_empty frame) do
        let v, rest = Stack.top frame in
        match !rest with
        | w :: tl ->
            rest := tl;
            if index.(w) < 0 then push_node w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
            ignore (Stack.pop frame);
            if not (Stack.is_empty frame) then begin
              let parent, _ = Stack.top frame in
              lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            end;
            if lowlink.(v) = index.(v) then begin
              let c = !next_comp in
              incr next_comp;
              let continue = ref true in
              while !continue do
                let w = Stack.pop stack in
                on_stack.(w) <- false;
                comp.(w) <- c;
                if w = v then continue := false
              done
            end
      done
    end
  done;
  let count = !next_comp in
  let sizes = Array.make count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  let members = Array.map (fun s -> Array.make s (-1)) sizes in
  let fill = Array.make count 0 in
  Array.iteri
    (fun v c ->
      members.(c).(fill.(c)) <- v;
      fill.(c) <- fill.(c) + 1)
    comp;
  { comp; count; members }

let topo_order t = Array.init t.count (fun i -> t.count - 1 - i)

let is_trivial t ~succ c =
  Array.length t.members.(c) = 1
  &&
  let v = t.members.(c).(0) in
  not (List.mem v (succ v))
