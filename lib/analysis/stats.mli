(** Descriptive statistics over float samples. All functions raise
    [Invalid_argument] on an empty sample unless stated otherwise. *)

val mean : float list -> float
val variance : float list -> float
(** Population variance. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]]; linear interpolation
    between order statistics. @raise Invalid_argument if [p] is out of
    range. *)

val median : float list -> float
val minimum : float list -> float
val maximum : float list -> float

val of_ints : int list -> float list
