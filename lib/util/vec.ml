(** Growable array (OCaml 5.1 has no Dynarray yet). *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let push t x =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * Array.length t.data) t.dummy in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))
