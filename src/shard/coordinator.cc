#include "shard/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setm::shard {

namespace {

/// Process-wide coordinator counters (get-or-create once, cached forever).
struct ShardMetrics {
  obs::Counter* runs;
  obs::Counter* failures;
  obs::Counter* iterations;
};

ShardMetrics* Metrics() {
  static ShardMetrics* metrics = [] {
    auto* registry = obs::MetricsRegistry::Global();
    auto* m = new ShardMetrics();
    m->runs = registry->GetCounter("setm_shard_runs_total",
                                   "Distributed mining runs started");
    m->failures =
        registry->GetCounter("setm_shard_run_failures_total",
                             "Distributed mining runs that returned an error");
    m->iterations =
        registry->GetCounter("setm_shard_iterations_total",
                             "Distributed iterations (both phases) completed");
    return m;
  }();
  return metrics;
}

/// Maps a shard-side error to the coordinator's contract: connection-level
/// failures become Unavailable naming the shard, cancellation passes
/// through, everything else keeps its code with the shard named.
Status WrapShardError(const std::string& shard, const char* phase,
                      const Status& s) {
  if (s.ok() || s.IsCancelled()) return s;
  if (s.IsIOError() || s.IsUnavailable()) {
    return Status::Unavailable("shard '" + shard + "' unavailable during " +
                               phase + ": " + s.message());
  }
  return Status(s.code(),
                "shard '" + shard + "' " + phase + ": " + s.message());
}

/// FNV-1a over an itemset's items: keys the merge maps directly, so the
/// merge never re-serializes ItemsetKey strings.
struct ItemsHash {
  size_t operator()(const std::vector<ItemId>& items) const {
    uint64_t h = 14695981039346656037ull;
    for (ItemId item : items) {
      h = (h ^ static_cast<uint32_t>(item)) * 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Merge bucket of an itemset. Every shard buckets its partial counts by
/// this hash, so the merge splits into disjoint per-bucket tasks (bucket b
/// only ever sees itemsets hashing to b) that run on the pool instead of
/// serially on the calling thread. It takes the hash's high bits, which
/// depend on every item, and leaves the low bits to the maps.
size_t BucketOf(const std::vector<ItemId>& items, size_t num_buckets) {
  return static_cast<size_t>((uint64_t{ItemsHash{}(items)} >> 32) %
                             num_buckets);
}

/// Per-shard state owned by exactly one fan-out task per phase; afterwards
/// (past the phase barrier, TaskGroup::Wait) merge task b owns buckets[b]
/// of every shard, and the coordinator reads the rest.
struct ShardState {
  ShardBackend* backend = nullptr;
  ShardLocalCounts counts;   ///< last CountIteration result
  /// Its counts, moved out and split by BucketOf (one bucket per shard).
  std::vector<std::vector<PatternCount>> buckets;
  uint64_t left_rows = 0;    ///< |R_k| rows still alive on this shard
  double last_seconds = 0.0; ///< coordinator-observed latency of the count
  obs::Histogram* latency = nullptr;
};

/// Phase 1 of iteration k: every shard counts locally, in parallel, and
/// buckets its counts for the merge.
Status CountPhase(WorkerPool* pool, std::vector<ShardState>* states,
                  size_t k) {
  const size_t num_buckets = states->size();
  TaskGroup group(pool);
  for (ShardState& s : *states) {
    ShardState* state = &s;
    group.Submit([state, k, num_buckets] {
      WallTimer timer;
      auto counts_or = state->backend->CountIteration(k);
      state->last_seconds = timer.ElapsedSeconds();
      state->latency->ObserveDurationMicros(state->last_seconds);
      if (!counts_or.ok()) {
        return WrapShardError(state->backend->name(), "local count",
                              counts_or.status());
      }
      state->counts = std::move(counts_or).value();
      if (k == 1) state->left_rows = state->counts.r_prime_rows;
      state->buckets.assign(num_buckets, {});
      for (PatternCount& pc : state->counts.counts) {
        state->buckets[BucketOf(pc.items, num_buckets)].push_back(
            std::move(pc));
      }
      state->counts.counts.clear();
      state->counts.counts.shrink_to_fit();
      return Status::OK();
    });
  }
  return group.Wait();
}

/// Phase 2 of iteration k: broadcast the surviving C_k, filter in parallel.
Status FilterPhase(WorkerPool* pool, std::vector<ShardState>* states,
                   size_t k, const std::vector<std::vector<ItemId>>* ck,
                   ShardFilterStats* total) {
  std::vector<ShardFilterStats> per_shard(states->size());
  TaskGroup group(pool);
  for (size_t i = 0; i < states->size(); ++i) {
    ShardState* state = &(*states)[i];
    ShardFilterStats* out = &per_shard[i];
    group.Submit([state, k, ck, out] {
      auto stats_or = state->backend->ApplyGlobalCk(k, *ck);
      if (!stats_or.ok()) {
        return WrapShardError(state->backend->name(), "C_k filter",
                              stats_or.status());
      }
      *out = stats_or.value();
      state->left_rows = out->r_rows;
      return Status::OK();
    });
  }
  SETM_RETURN_IF_ERROR(group.Wait());
  for (const ShardFilterStats& s : per_shard) {
    total->r_rows += s.r_rows;
    total->r_bytes += s.r_bytes;
    total->r_pages += s.r_pages;
  }
  return Status::OK();
}

/// Sums bucket `bucket` of every shard's partial counts and keeps the
/// patterns that reach the global minsupport.
void MergeBucket(std::vector<ShardState>* states, size_t bucket,
                 int64_t minsup, std::vector<PatternCount>* out) {
  size_t largest = 0;
  for (const ShardState& s : *states) {
    largest = std::max(largest, s.buckets[bucket].size());
  }
  std::unordered_map<std::vector<ItemId>, int64_t, ItemsHash> merged;
  merged.reserve(largest);
  for (ShardState& s : *states) {
    for (PatternCount& pc : s.buckets[bucket]) {
      merged[std::move(pc.items)] += pc.count;
    }
    s.buckets[bucket].clear();
    s.buckets[bucket].shrink_to_fit();
  }
  for (const auto& [items, count] : merged) {
    if (count >= minsup) out->push_back(PatternCount{items, count});
  }
}

/// Sums every shard's partial counts and applies the global minsupport, one
/// pool task per merge bucket. Survivors land in `itemsets` and (in
/// canonical sorted order, so remote broadcast payloads are deterministic)
/// in `ck`.
Status MergeCounts(WorkerPool* pool, std::vector<ShardState>* states,
                   int64_t minsup, uint64_t* c_size,
                   FrequentItemsets* itemsets,
                   std::vector<std::vector<ItemId>>* ck) {
  std::vector<std::vector<PatternCount>> survivors(states->size());
  {
    TaskGroup group(pool);
    for (size_t b = 0; b < survivors.size(); ++b) {
      std::vector<PatternCount>* out = &survivors[b];
      group.Submit([states, b, minsup, out] {
        MergeBucket(states, b, minsup, out);
        return Status::OK();
      });
    }
    SETM_RETURN_IF_ERROR(group.Wait());
  }
  ck->clear();
  for (std::vector<PatternCount>& bucket : survivors) {
    for (PatternCount& pc : bucket) {
      ck->push_back(pc.items);
      itemsets->Add(std::move(pc.items), pc.count);
      ++*c_size;
    }
  }
  std::sort(ck->begin(), ck->end());
  return Status::OK();
}

/// Attaches one completed iteration span with nested per-shard children.
void RecordIterationTrace(obs::TraceSpan* trace, const IterationStats& stats,
                          const std::vector<ShardState>& states) {
  if (trace == nullptr) return;
  obs::TraceSpan* iter = trace->AddCompletedChild(
      "iteration k=" + std::to_string(stats.k), stats.seconds, 0);
  iter->AddCount("|R'|", stats.r_prime_rows);
  iter->AddCount("|R|", stats.r_rows);
  iter->AddCount("|C|", stats.c_size);
  for (const ShardState& s : states) {
    iter->AddCompletedChild("shard " + s.backend->name(), s.last_seconds, 0);
  }
}

/// Best-effort EndRun on every shard (idempotent by contract).
void EndAll(std::vector<ShardState>* states) {
  for (ShardState& s : *states) s.backend->EndRun();
}

}  // namespace

Result<MiningResult> DistributedMine(const std::vector<ShardBackend*>& shards,
                                     const MiningOptions& options,
                                     const CoordinatorOptions& coord) {
  if (shards.empty()) {
    return Status::InvalidArgument(
        "distributed mine needs at least one shard");
  }
  Metrics()->runs->Increment();
  WallTimer total_timer;
  MiningResult result;

  ShardRunOptions run = coord.run;
  run.filter_r1 = options.filter_r1;

  std::vector<ShardState> states(shards.size());
  auto* registry = obs::MetricsRegistry::Global();
  for (size_t i = 0; i < shards.size(); ++i) {
    states[i].backend = shards[i];
    states[i].latency = registry->GetHistogram(
        "setm_shard_s" + std::to_string(i) + "_lcount_micros",
        "Coordinator-observed local-count latency of shard slot " +
            std::to_string(i));
  }

  // Single-exit error path: never returns partial results, always releases
  // every shard's run state.
  auto fail = [&states](Status s) {
    if (!s.IsCancelled()) Metrics()->failures->Increment();
    EndAll(&states);
    return s;
  };

  {
    TaskGroup group(coord.pool);
    for (ShardState& s : states) {
      ShardState* state = &s;
      group.Submit([state, &run] {
        return WrapShardError(state->backend->name(), "begin",
                              state->backend->BeginRun(run));
      });
    }
    Status s = group.Wait();
    if (!s.ok()) return fail(s);
  }

  // --- Iteration 1: R_1 slices and the global C_1. ------------------------
  int64_t minsup = 0;
  {
    WallTimer iter_timer;
    Status s = CountPhase(coord.pool, &states, 1);
    if (!s.ok()) return fail(s);
    uint64_t num_transactions = 0;
    for (const ShardState& st : states) {
      num_transactions += st.counts.transactions;
    }
    result.itemsets.num_transactions = num_transactions;
    minsup = ResolveMinSupportCount(options, num_transactions);

    IterationStats stats;
    stats.k = 1;
    for (const ShardState& st : states) {
      stats.r_prime_rows += st.counts.r_prime_rows;
      stats.r_bytes += st.counts.r_bytes;
      stats.r_pages += st.counts.r_pages;
    }
    stats.r_rows = stats.r_prime_rows;
    std::vector<std::vector<ItemId>> c1;
    s = MergeCounts(coord.pool, &states, minsup, &stats.c_size,
                    &result.itemsets, &c1);
    if (!s.ok()) return fail(s);
    stats.seconds = iter_timer.ElapsedSeconds();
    RecordIterationTrace(coord.trace, stats, states);
    result.iterations.push_back(stats);
    Metrics()->iterations->Increment();
    s = NotifyIteration(options, stats);
    if (!s.ok()) return fail(s);

    if (options.filter_r1) {
      ShardFilterStats total;
      s = FilterPhase(coord.pool, &states, 1, &c1, &total);
      if (!s.ok()) return fail(s);
    }
  }

  // --- Main loop (Figure 4, distributed). ---------------------------------
  for (size_t k = 2;; ++k) {
    if (options.max_pattern_length != 0 && k > options.max_pattern_length) {
      break;
    }
    uint64_t left_rows = 0;
    for (const ShardState& st : states) left_rows += st.left_rows;
    if (left_rows == 0) break;
    WallTimer iter_timer;

    Status s = CountPhase(coord.pool, &states, k);
    if (!s.ok()) return fail(s);

    IterationStats stats;
    stats.k = k;
    for (const ShardState& st : states) {
      stats.r_prime_rows += st.counts.r_prime_rows;
    }
    std::vector<std::vector<ItemId>> ck;
    s = MergeCounts(coord.pool, &states, minsup, &stats.c_size,
                    &result.itemsets, &ck);
    if (!s.ok()) return fail(s);

    // Phase 2 always runs, C_k empty or not: every shard materializes its
    // (possibly empty) R_k, exactly like the in-process executors, so the
    // iteration stats and observer callbacks stay aligned.
    ShardFilterStats total;
    s = FilterPhase(coord.pool, &states, k, &ck, &total);
    if (!s.ok()) return fail(s);
    stats.r_rows = total.r_rows;
    stats.r_bytes = total.r_bytes;
    stats.r_pages = total.r_pages;
    stats.seconds = iter_timer.ElapsedSeconds();
    RecordIterationTrace(coord.trace, stats, states);
    result.iterations.push_back(stats);
    Metrics()->iterations->Increment();
    s = NotifyIteration(options, stats);
    if (!s.ok()) return fail(s);
    if (stats.r_rows == 0) break;
  }

  {
    TaskGroup group(coord.pool);
    for (ShardState& s : states) {
      ShardState* state = &s;
      group.Submit([state] {
        return WrapShardError(state->backend->name(), "end",
                              state->backend->EndRun());
      });
    }
    Status s = group.Wait();
    if (!s.ok()) return fail(s);
  }

  result.itemsets.Normalize();
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace setm::shard
