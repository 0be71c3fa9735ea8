(** Order statistics for the benchmark's reported figures.

    Every timing the benchmark reports is a median or a tail percentile
    of many samples. A tail is reported only when at least
    {!min_beyond} samples lie beyond it, so a p99 never rests on one or
    two outliers. *)

val min_beyond : int
(** Samples that must lie strictly beyond a tail percentile (10). *)

val median : float array -> float
(** The middle sample (mean of the two middle ones for even counts).
    @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] by the exclusive method (Python's
    [statistics.quantiles(data, n=4)]), so the within-run quartiles
    the benchmark prints compare directly with quartiles taken over
    its runs.
    @raise Invalid_argument with fewer than two samples. *)

val tail : float array -> float -> float option
(** [tail samples p] is the nearest-rank [p]-th percentile
    ([0 < p < 100]) when at least {!min_beyond} samples lie beyond
    its rank, [None] otherwise. *)

val windowed_tail : float array -> float -> float option
(** [windowed_tail samples p] cuts the samples, in the order taken,
    into consecutive windows just large enough for {!tail} to resolve
    the [p]-th percentile in each (the remainder joins the last
    window), and returns the median of the per-window percentiles —
    a tail that one burst of interference in a long run cannot move.
    [None] when not even one window resolves. *)

val tail_rank_ok : n:int -> float -> bool
(** Whether [n] samples resolve the [p]-th percentile under the
    {!tail} rule — for percentiles read off a histogram. *)
