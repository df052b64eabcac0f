module Fnv = Nomap_util.Fnv
module Value = Nomap_runtime.Value
module Shape = Nomap_runtime.Shape
module Instance = Nomap_interp.Instance

let of_globals globals =
  let seen_obj = Hashtbl.create 16 and seen_arr = Hashtbl.create 16 in
  let h = ref Fnv.basis in
  (* Terminator byte so "ab","c" and "a","bc" hash differently. *)
  let tag s = h := Fnv.byte (Fnv.string !h s) 0xFF in
  let rec walk (v : Value.t) =
    match v with
    | Value.Int i -> tag ("i" ^ string_of_int i)
    | Value.Num f ->
      (* NaNs canonicalized; -0.0 vs 0.0 distinguished, as JS can observe
         the difference (1/x). *)
      if Float.is_nan f then tag "nan"
      else tag ("n" ^ Int64.to_string (Int64.bits_of_float f))
    | Value.Str s -> tag ("s" ^ s.Value.sdata)
    | Value.Bool b -> tag (if b then "T" else "F")
    | Value.Undef -> tag "u"
    | Value.Null -> tag "0"
    | Value.Fun fid -> tag ("f" ^ string_of_int fid)
    | Value.Hole -> tag "h"
    | Value.Obj o ->
      if Hashtbl.mem seen_obj o.Value.oid then tag "cyc"
      else begin
        Hashtbl.replace seen_obj o.Value.oid ();
        tag "{";
        List.iteri
          (fun slot name ->
            tag name;
            walk o.Value.slots.(slot))
          (Shape.property_names o.Value.shape);
        tag "}"
      end
    | Value.Arr a ->
      if Hashtbl.mem seen_arr a.Value.aid then tag "cyc"
      else begin
        Hashtbl.replace seen_arr a.Value.aid ();
        tag ("[" ^ string_of_int a.Value.alen);
        for i = 0 to a.Value.alen - 1 do
          walk a.Value.elems.(i)
        done;
        tag "]"
      end
  in
  List.iter
    (fun (name, v) ->
      tag name;
      walk v)
    globals;
  Fnv.to_hex !h

let checksum (inst : Instance.t) =
  of_globals
    (Array.to_list
       (Array.mapi
          (fun idx name -> (name, inst.Instance.globals.(idx)))
          inst.Instance.prog.Nomap_bytecode.Opcode.globals))
