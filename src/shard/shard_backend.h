#ifndef SETM_SHARD_SHARD_BACKEND_H_
#define SETM_SHARD_SHARD_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/miner.h"
#include "core/types.h"

namespace setm::shard {

/// Physical knobs of one distributed run, forwarded to every shard.
struct ShardRunOptions {
  TableBacking storage = TableBacking::kMemory;
  CountMethod count_method = CountMethod::kSortMerge;
  bool filter_r1 = false;
};

/// What one shard reports after locally counting iteration k: its full
/// (minsupport-free) candidate counts plus the cardinalities the coordinator
/// needs for IterationStats. Support is a property of the whole database, so
/// local counts always use min_count = 1.
struct ShardLocalCounts {
  /// Transactions in this shard's SALES slice (filled for k == 1 only; the
  /// coordinator sums them to resolve the global minsupport).
  uint64_t transactions = 0;
  /// |R'_k| of this shard (for k == 1: |R_1|, the slice itself).
  uint64_t r_prime_rows = 0;
  /// Size/pages of the k == 1 relation (R_1 doubles as R'_1 and R_1 in the
  /// first iteration's stats). Zero for k >= 2 — those come from the filter.
  uint64_t r_bytes = 0;
  uint64_t r_pages = 0;
  /// Full local counts of every candidate this shard saw.
  std::vector<PatternCount> counts;
  /// Shard-side wall time of the local count (remote shards report their
  /// own clock, so the coordinator can separate compute from transport).
  double seconds = 0.0;
};

/// What one shard reports after filtering R'_k by the global C_k.
struct ShardFilterStats {
  uint64_t r_rows = 0;
  uint64_t r_bytes = 0;
  uint64_t r_pages = 0;
};

/// Per-shard health/occupancy, the dinomo-style membership view surfaced by
/// ShardedDatabase::Health and setm_shardctl stats.
struct ShardHealth {
  bool reachable = false;
  uint64_t transactions = 0;
  uint64_t sales_rows = 0;
  uint64_t sales_bytes = 0;
};

/// One shard's half of the two-phase distributed count. The coordinator
/// drives every backend through the same iteration protocol:
///
///   BeginRun(options)
///   CountIteration(1)        -> local R_1 + item counts + |D_shard|
///   [ApplyGlobalCk(1, C_1)]  -> only when options.filter_r1
///   for k = 2, 3, ...:
///     CountIteration(k)      -> local R'_k join + candidate counts
///     ApplyGlobalCk(k, C_k)  -> local R_k := R'_k filtered by global C_k
///   EndRun()
///
/// Implementations: LocalShardBackend runs the SETM pipeline bodies in
/// process over a SALES slice; RemoteShardBackend speaks LCOUNT/MERGE to a
/// setm_served instance. Both produce identical numbers by construction —
/// the server's handler *is* a LocalShardBackend.
///
/// Backends are single-threaded (one coordinator call at a time) but
/// distinct backends run concurrently on the coordinator's fan-out pool.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Shard name for error messages and metrics ("s0", "file:/a/b.db", ...).
  virtual const std::string& name() const = 0;

  /// Starts a fresh run; any previous run's state is released.
  virtual Status BeginRun(const ShardRunOptions& options) = 0;

  /// Phase 1 of iteration k: local join (k >= 2) or R_1 build (k == 1) plus
  /// full local candidate counts.
  virtual Result<ShardLocalCounts> CountIteration(size_t k) = 0;

  /// Phase 2 of iteration k: filters the local R'_k down to the rows whose
  /// pattern survived the global minsupport filter (`ck` lists the surviving
  /// itemsets, sorted). For k == 1 this is the filter_r1 ablation.
  virtual Result<ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) = 0;

  /// Releases run state (scratch relations, remote session). Idempotent.
  virtual Status EndRun() = 0;

  /// Liveness + occupancy probe, independent of any run.
  virtual Result<ShardHealth> Health() = 0;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_SHARD_BACKEND_H_
