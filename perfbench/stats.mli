(** Order statistics for benchmark samples. *)

(** Median of a non-empty sample (mean of the two middle values when the
    count is even).  Raises [Invalid_argument] on an empty sample. *)
val median : float list -> float

(** [tail ~q xs] is the nearest-rank [q]-quantile of [xs] ([0 < q < 1]),
    or [Error] when fewer than 10 samples lie beyond it — a tail
    percentile resting on a handful of points is noise, so it is refused
    rather than reported. *)
val tail : q:float -> float list -> (float, string) result
