(** Growable array (OCaml 5.1 has no Dynarray yet). *)

type 'a t

(** [create ~dummy] makes an empty vector; [dummy] pads unused capacity. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

(** Raise [Invalid_argument] when out of range. *)
val get : 'a t -> int -> 'a

(** Append; returns the new element's index. *)
val push : 'a t -> 'a -> int

val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
