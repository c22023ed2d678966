(** Lightweight measurement accumulators for experiments. *)

(** The shared nearest-rank percentile core.  Both rank conventions in
    the tree ({!Summary.percentile}'s 1-based ceil rank and the storm
    suite's rounded index) are thin wrappers over {!nearest_rank}, so
    their sort-and-index behavior cannot drift apart. *)
module Percentile : sig
  val nearest_rank :
    compare:('a -> 'a -> int) -> 'a array -> rank_of:(int -> int) -> 'a option
  (** Sort a copy with [compare] and return the element at index
      [rank_of n] clamped into [\[0, n-1\]]; [None] when empty.  The
      entry points below pass [Float.compare] and [Int.compare], which
      order as polymorphic [compare] does, nan included. *)

  val exact : float array -> float -> float
  (** [p] in [0, 100]; rank = ceil(p/100 * n) clamped to [\[1, n\]],
      1-based.  0 when empty.  The {!Summary.percentile} semantics. *)

  val of_ints : int array -> float -> int
  (** [p] in [0, 1]; index = round(p * (n-1)).  0 when empty.  The
      storm suite's semantics. *)
end

(** Monotonic named counters. *)
module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Streaming summary of a series of float samples. *)
module Summary : sig
  type t

  val create : string -> t
  val name : t -> string
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val min : t -> float
  (** +inf when empty. *)

  val max : t -> float
  (** -inf when empty. *)

  val stddev : t -> float
  (** Population standard deviation; 0 when fewer than 2 samples. *)

  val percentile : float array -> float -> float
  (** [percentile samples p] is the exact nearest-rank [p]-th percentile
      (p in [0, 100]) of [samples]; sorts a copy, 0 when empty.  This is
      the oracle {!Histogram.percentile} estimates are compared against. *)

  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** Bucketed histogram with two binnings sharing one accumulator:

    - {!create}: the historical uniform-width buckets over [\[lo, hi)];
      samples [>= hi] land in the overflow bucket, [< lo] underflow.
    - {!create_log}: log-2 buckets — bucket 0 holds [\[0, 1)], bucket
      [i >= 1] holds [\[2^(i-1), 2^i)]; samples at or past the top edge
      overflow, negatives underflow.

    Both track exact count/sum/min/max alongside the buckets, so
    {!percentile} is a bucket-resolution estimate clamped to the
    observed range. *)
module Histogram : sig
  type t

  val create : ?buckets:int -> lo:float -> hi:float -> string -> t
  (** Fixed uniform-width binning (default 16 buckets); byte-identical
      [pp] output to the historical fixed-bucket histogram. *)

  val create_log : ?buckets:int -> string -> t
  (** Log-2 binning (default 48 buckets, covering values up to [2^47)). *)

  val add : t -> float -> unit
  val count : t -> int
  val bucket_counts : t -> int array
  val underflow : t -> int
  val overflow : t -> int

  val bucket_bounds : t -> int -> float * float
  (** [(lo, hi)] edges of bucket [i]; samples land in [\[lo, hi)]. *)

  val bucket_index : t -> float -> int
  (** Bucket [x] would land in: [-1] for underflow, the bucket count for
      overflow. *)

  val sum : t -> float
  val mean : t -> float

  val min : t -> float
  (** Exact observed minimum; 0 when empty. *)

  val max : t -> float
  (** Exact observed maximum; 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] (p in [0, 100]): nearest-rank estimate at bucket
      resolution — the upper edge of the ranked bucket, clamped to the
      exact observed [min]/[max] (so p0 and p100 are exact); 0 when
      empty. *)

  val pp : Format.formatter -> t -> unit
end
