(** Complementary cumulative distribution functions — the paper presents
    both panels of Figure 3 as CCDFs. *)

type t

val of_samples : float list -> t
(** Total, including on the empty sample: an empty CCDF has {!size} 0,
    {!at} 0 everywhere, no {!points} and no quantiles — it never raises
    and never manufactures a phantom sample. The +0 samples (most F3L
    ratios and F3R counts) are set aside: only the others go through a
    sort, and the result is the one a sort of every sample
    gives (with -0 samples present, +0 and -0 may trade places, which no
    reading tells apart). *)

val at : t -> float -> float
(** [at t x] = fraction of samples [>= x], in [\[0, 1\]]. [0.] everywhere
    on an empty sample (never [nan]). *)

val points : t -> (float * float) list
(** The distinct sample values [x] ascending, each with [at t x]. *)

val size : t -> int
(** Number of samples the CCDF was built from. *)

val eval_at : t -> float list -> (float * float) list
(** CCDF sampled at the given x values (for printing fixed tables). *)

val quantile_where : t -> float -> float option
(** [quantile_where t q] = the smallest sample x with [at t x <= q]:
    "the value past which only a fraction q of cases remain". When [q] is
    below the tail mass at the maximum (no sample satisfies the bound —
    e.g. [q = 0], or heavy ties at the top), the maximum sample is
    returned — always [Some] on a non-empty sample, [None] only on the
    empty one. *)
