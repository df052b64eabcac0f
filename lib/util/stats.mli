(** Statistics helpers used by the experiment harnesses. *)

val mean : float list -> float

(** Geometric mean; requires strictly positive inputs. *)
val geomean : float list -> float

(** Population standard deviation. *)
val stddev : float list -> float

(** Percentile with linear interpolation between closest ranks (the
    numpy/R-7 definition), [p] in [0, 100]. *)
val percentile : float list -> float -> float

(** [(1 - x/base) * 100]. *)
val percent_reduction : base:float -> float -> float
