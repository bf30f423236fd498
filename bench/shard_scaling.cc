// S2 — scale-out: the two-phase distributed count coordinator over 1/2/4/8
// in-process shards (post-paper: Houtsma & Swami ran SETM on one database;
// this measures the partitioned-databases reading of their Section 5 once
// SALES is split at transaction boundaries across shard databases).
//
// Expected shape: speedup while per-shard counting dominates, flattening as
// the per-iteration barriers and the sorted C_k broadcast grow relative to
// per-shard work (the merge of partial counts itself is hash-bucketed
// across the pool) — the same coordinator loop threaded `setm` runs. Every configuration self-checks bit-identity
// against single-node SETM, and a deliberately failing shard must turn the
// whole run into Unavailable — never into wrong output.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"

namespace setm {
namespace {

using shard::LocalShardBackend;
using shard::ShardBackend;
using shard::ShardRow;

/// Row-balanced split at transaction boundaries (the shardctl split rule).
std::vector<std::vector<ShardRow>> SplitRows(const TransactionDb& txns,
                                             size_t num_shards) {
  size_t total_rows = 0;
  for (const Transaction& t : txns) total_rows += t.items.size();
  std::vector<std::vector<ShardRow>> slices(num_shards);
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t target = (total_rows + num_shards - 1) / num_shards;
    size_t rows = 0;
    while (begin < txns.size() && (rows < target || slices[shard].empty()) &&
           txns.size() - begin > num_shards - shard - 1) {
      for (ItemId item : txns[begin].items) {
        slices[shard].push_back({txns[begin].id, item});
      }
      rows += txns[begin].items.size();
      ++begin;
    }
  }
  return slices;
}

/// This run's observations only: the slot histograms are process-cumulative,
/// so each configuration subtracts its before-snapshot bucket-wise.
obs::HistogramSnapshot Diff(const obs::HistogramSnapshot& before,
                            const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.buckets.resize(after.buckets.size());
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    d.buckets[i] =
        after.buckets[i] - (i < before.buckets.size() ? before.buckets[i] : 0);
  }
  return d;
}

/// A shard whose disk fails on the second iteration's local count.
class DyingShard : public ShardBackend {
 public:
  explicit DyingShard(Database* db) : real_(db, "inner") {}
  const std::string& name() const override { return name_; }
  Status BeginRun(const shard::ShardRunOptions& options) override {
    return real_.BeginRun(options);
  }
  Result<shard::ShardLocalCounts> CountIteration(size_t k) override {
    if (k >= 2) return Status::IOError("injected disk failure");
    return real_.CountIteration(k);
  }
  Result<shard::ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override {
    return real_.ApplyGlobalCk(k, ck);
  }
  Status EndRun() override { return real_.EndRun(); }
  Result<shard::ShardHealth> Health() override {
    return shard::ShardHealth{};
  }
  void SetRows(std::vector<ShardRow> rows) { real_.SetRows(std::move(rows)); }

 private:
  std::string name_ = "dying-shard";
  LocalShardBackend real_;
};

int Run(bool smoke) {
  bench::Banner(
      "shard_scaling",
      "ROADMAP: scale-out — two-phase distributed count over shard databases",
      "speedup with shard count, flattening at the per-iteration "
      "barriers; "
      "bit-identical patterns at every shard count; a failing shard "
      "yields Unavailable, never wrong output");

  QuestOptions gen;
  gen.num_transactions = smoke ? 2000 : 40000;
  gen.avg_transaction_size = 10;
  gen.num_items = 300;
  gen.num_patterns = 50;
  gen.seed = 7;
  const TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.01;

  WallTimer base_timer;
  const MiningResult baseline = bench::RunAlgo("setm", txns, options);
  const double base_seconds = base_timer.ElapsedSeconds();
  std::printf("\nsingle-node setm: %.3fs, %zu patterns\n\n", base_seconds,
              baseline.itemsets.TotalPatterns());

  std::printf("%-8s %12s %10s %12s %8s\n", "shards", "time(s)", "speedup",
              "patterns", "match");
  auto* registry = obs::MetricsRegistry::Global();
  for (size_t num_shards : {1, 2, 4, 8}) {
    Database db;
    std::vector<std::unique_ptr<LocalShardBackend>> owned;
    std::vector<ShardBackend*> backends;
    auto slices = SplitRows(txns, num_shards);
    for (size_t i = 0; i < slices.size(); ++i) {
      auto backend = std::make_unique<LocalShardBackend>(
          &db, "s" + std::to_string(i), "s" + std::to_string(i) + "_");
      backend->SetRows(std::move(slices[i]));
      backends.push_back(backend.get());
      owned.push_back(std::move(backend));
    }

    std::vector<obs::Histogram*> lat(num_shards);
    std::vector<obs::HistogramSnapshot> before(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      lat[i] = registry->GetHistogram(
          "setm_shard_s" + std::to_string(i) + "_lcount_micros",
          "Coordinator-observed local-count latency of shard slot " +
              std::to_string(i));
      before[i] = lat[i]->Snapshot();
    }

    WorkerPool pool(num_shards);
    shard::CoordinatorOptions coord;
    coord.pool = &pool;
    WallTimer timer;
    auto result = shard::DistributedMine(backends, options, coord);
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "distributed mine failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const bool match = result.value().itemsets == baseline.itemsets;
    std::printf("%-8zu %12.3f %9.2fx %12zu %8s\n", num_shards, seconds,
                base_seconds / seconds,
                result.value().itemsets.TotalPatterns(),
                match ? "yes" : "NO");
    for (size_t i = 0; i < num_shards; ++i) {
      const obs::HistogramSnapshot h = Diff(before[i], lat[i]->Snapshot());
      std::printf("         shard s%zu local-count latency: p50 <= %lluus, "
                  "p99 <= %lluus (%llu counts)\n",
                  i,
                  static_cast<unsigned long long>(h.Quantile(0.5)),
                  static_cast<unsigned long long>(h.Quantile(0.99)),
                  static_cast<unsigned long long>(h.count));
    }
    if (!match) {
      std::fprintf(stderr, "shard count %zu changed the result!\n",
                   num_shards);
      return 1;
    }
  }

  // A failing shard must fail the whole run with Unavailable naming it —
  // the coordinator never silently drops a shard's transactions.
  {
    Database db;
    auto slices = SplitRows(txns, 3);
    LocalShardBackend s0(&db, "s0", "s0_");
    s0.SetRows(std::move(slices[0]));
    LocalShardBackend s1(&db, "s1", "s1_");
    s1.SetRows(std::move(slices[1]));
    DyingShard bad(&db);
    bad.SetRows(std::move(slices[2]));
    auto result =
        shard::DistributedMine({&s0, &s1, &bad}, options, {});
    if (result.ok() || !result.status().IsUnavailable() ||
        result.status().message().find("dying-shard") == std::string::npos) {
      std::fprintf(stderr,
                   "down-shard run should be Unavailable naming the shard, "
                   "got: %s\n",
                   result.ok() ? "OK" : result.status().ToString().c_str());
      return 1;
    }
    std::printf("\ndown-shard run: %s\n", result.status().ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace setm

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return setm::Run(smoke);
}
