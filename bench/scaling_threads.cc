// S1 — scaling: threaded SETM at 1/2/4/8 threads on a Quest-generated
// workload (post-paper: Houtsma & Swami ran SETM single-threaded; this
// measures how far the "mining = sort + merge-scan join" reduction
// parallelizes once SALES is cut into trans_id slices). One thread runs
// the serial loop; more run the slices as in-process shards under the
// shard coordinator.
//
// Expected shape: speedup while slices stay CPU-bound, flattening as the
// per-iteration barriers, the sorted C_k broadcast and the shared buffer
// pool grow relative to per-slice work — an Amdahl curve. The merge of
// partial C_k counts is hash-bucketed across the worker pool, not serial.
// After the table the bench prints the measured 4-thread speedup against
// the banner's expectation (informational, not a gate). Pattern counts
// must be identical at every thread count.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"

int main() {
  using namespace setm;
  bench::Banner(
      "scaling_threads",
      "ROADMAP: partition parallelism over the paper's two primitives",
      "speedup > 1.5x at 4 threads; identical patterns at all thread counts");

  QuestOptions gen;
  gen.num_transactions = 60000;
  gen.avg_transaction_size = 10;
  gen.num_items = 400;
  gen.num_patterns = 60;
  gen.seed = 7;
  const TransactionDb txns = QuestGenerator(gen).Generate();

  MiningOptions options;
  options.min_support = 0.01;

  std::printf("dataset: %s\n\n", QuestDatasetName(gen).c_str());
  std::printf("%-8s %12s %10s %12s %10s\n", "threads", "time(s)", "speedup",
              "patterns", "match");

  constexpr double kExpectedSpeedupAt4 = 1.5;
  double speedup_at_4 = 0.0;
  double base_seconds = 0.0;
  size_t base_patterns = 0;
  FrequentItemsets base_itemsets;
  for (size_t threads : {1, 2, 4, 8}) {
    Database db;
    SetmOptions setm_options;
    setm_options.num_threads = threads;
    SetmMiner miner(&db, setm_options);
    WallTimer timer;
    auto result = miner.Mine(txns, options);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const double seconds = timer.ElapsedSeconds();
    const size_t patterns = result.value().itemsets.TotalPatterns();
    bool match = true;
    if (threads == 1) {
      base_seconds = seconds;
      base_patterns = patterns;
      base_itemsets = result.value().itemsets;
    } else {
      match = result.value().itemsets == base_itemsets;
    }
    std::printf("%-8zu %12.3f %9.2fx %12zu %10s\n", threads, seconds,
                base_seconds / seconds, patterns, match ? "yes" : "NO");
    if (threads == 4) speedup_at_4 = base_seconds / seconds;
    if (!match || patterns != base_patterns) {
      std::fprintf(stderr, "thread count %zu changed the result!\n", threads);
      return 1;
    }
  }
  std::printf("\nspeedup at 4 threads: %.2fx (expected > %.1fx): %s\n",
              speedup_at_4, kExpectedSpeedupAt4,
              speedup_at_4 > kExpectedSpeedupAt4 ? "met" : "NOT met");
  return 0;
}
