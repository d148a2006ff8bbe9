(** CXL-MapReduce (§6.3.2): a Phoenix-style MapReduce where input chunks,
    task messages and partial results are all shared CXLObjs.

    Executors are CXL-SHM clients in their own domains serving CXL-RPC;
    the master dispatches pass-by-reference map tasks (a task argument is
    the chunk {e reference}, never the data) and merges partial results.
    Both phases touch the same shared region — no copying — and executor
    failure is survivable by construction: the in-flight task message and
    its chunk are reaped by the recovery service.

    Against the paper: scalability with executors (Fig 9's 8-9× from 2→64)
    comes from genuine domain parallelism here; the Phoenix comparison is
    run by the benchmark harness with the same [Mr_job] jobs. *)

type session

val start : arena:Cxlshm.Shm.arena -> master:Cxlshm.Ctx.t -> executors:int -> session
(** Spawn executor clients (one domain each) serving the built-in job
    handlers. Each channel gets the largest sub-heap a directory slot can
    register ({!Cxlshm.Layout.queue_max_channel_segs} segments). A map
    phase issues its tasks round-robin; when a channel's sub-heap cannot
    hold the next call, the channel's oldest call is finished and merged
    first. A finished call's output stays pinned by its message until the
    channel's 8-slot ring lends that slot again, so a phase of any length
    runs provided the sub-heap holds nine calls' messages and outputs (the
    example's geometry, 3 segments of 8 pages with one-page outputs, holds
    about 22); otherwise [Out_of_shared_memory] escapes. *)

val stop : session -> unit
val executors : session -> int

(** {1 Shared chunk storage} *)

val store_chunk : Cxlshm.Ctx.t -> bytes -> Cxlshm.Cxl_ref.t
(** Write a byte chunk into the pool ([word 0] = length, bytes after). *)

val chunk_bytes : Cxlshm_rpc.Message.view -> bytes

(** {1 Jobs} *)

val task_handler : Cxlshm_rpc.Cxl_rpc.handler
(** The executor-side dispatcher (wordcount + kmeans map functions) — also
    usable by lockstep/virtual-parallel harnesses. *)

val wordcount : session -> chunks:Cxlshm.Cxl_ref.t list -> vocab:int -> (int * int) list
(** Distributed wordcount; returns (word-id, count) sorted by key. *)

val kmeans :
  session ->
  chunks:Cxlshm.Cxl_ref.t list ->
  k:int ->
  dims:int ->
  iters:int ->
  int array array
(** Distributed k-means over point chunks ({!Mr_job.encode_points}
    encoding); centroids live in one shared object updated in place by the
    master (single writer) and read zero-copy by every executor. *)
