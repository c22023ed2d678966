(** Pure-functional reference models of the example replacement
    policies.

    Each oracle consumes an access trace over pages [0 .. npages) of a
    region holding exactly [frames] private frames (the container's
    [minFrame] grant, which the simple policies never grow) and emits
    the eviction sequence the HiPEC executor must produce, in order.
    The differential test suite replays the same trace through the real
    interpreter and compares event-for-event.

    Model correspondence, verified against the executor:
    - a resident page's recency is updated on {e every} access (the
      kernel touches pages on TLB hits through its frame index), and
      simulated time strictly increases between accesses, so LRU/MRU
      victims are unambiguous;
    - FIFO evicts the active-queue head, which is insertion order;
    - the Table-2 second-chance policy flushes dirty victims with an
      explicit [Flush] before enqueueing them on the free queue, so its
      eviction records always carry [dirty = false]; the simple
      policies launder inside the free-queue transition and report the
      pre-flush dirty bit. *)

type access = { page : int; write : bool }
type eviction = { page : int; dirty : bool }
type result = { faults : int; evictions : eviction list }

val fifo : frames:int -> access array -> result
val lru : frames:int -> access array -> result
val mru : frames:int -> access array -> result

val second_chance :
  frames:int ->
  ?free_target:int ->
  ?inactive_target:int ->
  ?reserved_target:int ->
  access array ->
  result
(** The paper's default pageout policy (Table 2 / Figure 4: FIFO with
    second chance).  Target defaults match [Api.default_spec]:
    [free_target = max 4 (frames/16)], [inactive_target = max 8
    (frames/4)], [reserved_target = 2].  Raises [Failure] if the policy
    would dequeue from an empty free queue (a runtime error in the real
    executor). *)

val clock : frames:int -> access array -> result
(** [Policies.clock]: sweep the active-queue head, rotating referenced
    pages to the tail with a cleared bit until an unreferenced victim
    turns up.  The kernel sets the reference bit on every access and on
    fault resolution, which is what the oracle models.  Eviction
    records carry the pre-flush dirty bit (the program frees through
    the free-queue Enqueue, which records before laundering).  Raises
    [Failure] on an empty sweep (impossible for [frames >= 1]). *)

val default_adaptive_threshold : int
(** 1 — latch into LRU on the first observed reuse. *)

val default_adaptive_cap : int
(** 4 — saturation ceiling for the reuse score. *)

val adaptive :
  frames:int -> ?threshold:int -> ?cap:int -> access array -> result
(** [Policies.adaptive]: while un-latched, each fault sweeps the whole
    resident set, clearing every reference bit; a set bit on any page
    but the newest (whose bit is the fault-resolution install artifact)
    is a genuine hit since the previous fault and bumps a saturating
    score (ceiling [cap]).  The score never decays, so
    [score >= threshold] is a latch: FIFO eviction before it, LRU — an
    anomaly-immune stack algorithm — forever after, with the sweep
    skipped.  Defaults match [Policies.adaptive_operands]. *)

val of_policy_name :
  string -> (frames:int -> access array -> result) option
(** ["fifo" | "lru" | "mru" | "clock" | "second-chance" | "adaptive"]
    (second-chance and adaptive with default parameters). *)
