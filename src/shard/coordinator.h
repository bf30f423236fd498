#ifndef SETM_SHARD_COORDINATOR_H_
#define SETM_SHARD_COORDINATOR_H_

#include <vector>

#include "core/types.h"
#include "shard/shard_backend.h"

namespace setm {
class WorkerPool;
namespace obs {
class TraceSpan;
}
}  // namespace setm

namespace setm::shard {

/// Knobs of one distributed run that are the coordinator's, not the query's.
struct CoordinatorOptions {
  /// Physical knobs forwarded to every shard (filter_r1 is taken from the
  /// MiningOptions, like the in-process executors do).
  ShardRunOptions run;
  /// Fan-out pool for the per-shard phases and the bucketed merge; null
  /// runs them serially on the calling thread. The pool is only ever entered from the coordinator —
  /// backends never re-enter it.
  WorkerPool* pool = nullptr;
  /// Optional parent span: the coordinator attaches one completed child per
  /// iteration with nested per-shard spans. Must belong to the calling
  /// thread (TraceSpan is single-writer).
  obs::TraceSpan* trace = nullptr;
};

/// The two-phase distributed count over `shards` (Section 5's partitioned
/// reading of Algorithm SETM, stretched across databases). It is the only
/// partitioned SETM loop: remote shards, file shards and SetmMiner with
/// num_threads > 1 (in-process trans_id slices) all run through it.
///
///   phase 1  every shard locally counts iteration k with min_count = 1;
///   merge    the coordinator sums partial counts and applies the global
///            minsupport — resolved from the summed per-shard transaction
///            counts, exact because transactions never span shards. Each
///            shard's counts are bucketed by key hash (one bucket per
///            shard), and one pool task per bucket sums and filters it;
///   phase 2  the surviving C_k is broadcast and every shard filters its
///            R'_k slice down to R_k.
///
/// Results are bit-identical to single-node SETM for any shard count: the
/// shards run the same pipeline bodies, the merge applies the same
/// threshold, and the final Normalize() makes merge order irrelevant.
///
/// Failure semantics: one shard failing fails the whole run — partial
/// results are never returned. Connection-level errors (IOError,
/// Unavailable) surface as Status::Unavailable naming the shard; other
/// codes keep their code with the shard name prefixed; Cancelled (from
/// options.observer) passes through untouched. Every exit path ends the
/// run on all shards best-effort.
Result<MiningResult> DistributedMine(const std::vector<ShardBackend*>& shards,
                                     const MiningOptions& options,
                                     const CoordinatorOptions& coord = {});

}  // namespace setm::shard

#endif  // SETM_SHARD_COORDINATOR_H_
