// setm_perfbench — the repository's benchmark harness.
//
// Runs one named workload against libsetm's public API for a fixed number
// of seconds and prints every metric by name, with its unit and sample
// count, followed by one JSON line (the last line of stdout):
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from the harness's own code
// around the calls into each layer (a timing MiningObserver, a timing
// ShardBackend decorator, client-side timers around BlockingClient::Exec
// and MetricsRegistry snapshot deltas). Nothing inside the library is
// instrumented for the benchmark. perfbench/DESIGN.md records why each
// workload exists and which end-to-end metric each layer metric moves.
//
// usage: setm_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --workdir <dir> [--smoke]

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/miner_registry.h"
#include "core/rules.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "shard/coordinator.h"
#include "shard/remote_backend.h"
#include "shard/shard_backend.h"

namespace {

using namespace setm;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue. The names, units and order are the benchmark's public
// contract (BENCHMARK.json lists the same names; run.py checks they agree).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"mine_s", "s"},
    {"mine_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Deepest SETM iteration reported per k. T10 baskets over 400 items at
/// 1-3% support stop well before this.
constexpr size_t kMaxReportedK = 12;

std::vector<MetricDef> PerLayerDefs() {
  static const char* const kIterNames[kMaxReportedK] = {
      "core.iter_s.k1", "core.iter_s.k2",  "core.iter_s.k3",
      "core.iter_s.k4", "core.iter_s.k5",  "core.iter_s.k6",
      "core.iter_s.k7", "core.iter_s.k8",  "core.iter_s.k9",
      "core.iter_s.k10", "core.iter_s.k11", "core.iter_s.k12"};
  std::vector<MetricDef> defs;
  for (const char* name : kIterNames) defs.push_back({name, "s"});
  const MetricDef rest[] = {
      {"core.rprime_rows", "count"},
      {"core.r_rows", "count"},
      {"core.ck_rows", "count"},
      {"core.survival", "ratio"},
      {"core.plan.cache_filter", "count"},
      {"core.plan.delta_derive", "count"},
      {"core.plan.full_mine", "count"},
      {"core.plan.cache_hit_share", "ratio"},
      {"incremental.derive_share", "ratio"},
      {"exec.sort.rows", "count"},
      {"exec.sort.runs", "count"},
      {"exec.sort.spilled_runs", "count"},
      {"exec.sort.merge_passes", "count"},
      {"exec.workers.task_s", "s"},
      {"exec.workers.queue_wait_s", "s"},
      {"exec.workers.busy_share", "ratio"},
      {"storage.pool.hits", "count"},
      {"storage.pool.misses", "count"},
      {"storage.pool.hit_rate", "ratio"},
      {"storage.pool.evictions", "count"},
      {"storage.pool.dirty_writebacks", "count"},
      {"storage.io.page_reads", "count"},
      {"storage.io.page_writes", "count"},
      {"storage.io.random_share", "ratio"},
      {"page_accesses", "count"},
      {"persist.wal.bytes", "bytes"},
      {"persist.wal.commits", "count"},
      {"persist.wal.fsyncs", "count"},
      {"persist.wal.bytes_per_row", "ratio"},
      {"net.client_s.mine", "s"},
      {"net.client_s.rules", "s"},
      {"net.client_s.append", "s"},
      {"net.client_s.lcount", "s"},
      {"net.client_s.merge", "s"},
      {"net.server_s", "s"},
      {"net.wait_share", "ratio"},
      {"net.bytes_in", "bytes"},
      {"net.bytes_out", "bytes"},
      {"shard.count_s", "s"},
      {"shard.filter_s", "s"},
      {"shard.merge_s", "s"},
      {"shard.skew", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"gen.late_ms", "ms"},
  };
  for (const MetricDef& def : rest) defs.push_back(def);
  return defs;
}

// ---------------------------------------------------------------------------
// Statistics over raw samples. Quantiles come from the samples the harness
// keeps, never from the registry's log2 buckets.

/// Nearest-rank quantile of `samples` (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// Mean of `samples`; 0 for no samples. The gated per-mine figures are
/// means: on a host whose speed switches between two levels every few
/// seconds, a run's median jumps between the levels, while the mean moves
/// only with the share of time spent at each.
double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// A tail statistic: the highest percentile of a fixed ladder that still
/// has at least ten samples beyond it, and its value.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

Tail SupportedTail(const std::vector<double>& samples) {
  static const double kLadder[] = {99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  Tail tail;
  for (double p : kLadder) {
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0 || p == 50.0) {
      tail.percentile = p;
      tail.value = Quantile(samples, p / 100.0);
      return tail;
    }
  }
  return tail;
}

// ---------------------------------------------------------------------------
// Process probes.

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resets the kernel's RSS high-water mark, so that generation, loading and
/// the oracle do not set the timed phase's peak. Free heap pages left by
/// set-up are returned first; otherwise they would count as resident for
/// the whole timed phase. False when the reset is unsupported.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host-speed probe. The shared 4-vCPU VM the bounds were set on changes
// speed by up to 2x over tens of seconds: one 150 s run of the same
// paper-sortmerge mine, with identical page counts, read 0.69-0.94 s per
// mine for 100 s and then 0.46-0.80 s; with four threads, wall time also
// moved with how many cores neighbours left free. No run length averages
// that out, so the gated timings are reported in reference seconds: wall
// seconds scaled by kReferenceProbeS over the probe's mean wall time in the
// same run, CPU seconds by it over the probe's mean CPU time. The probe is
// fixed work in this file (a sort and a hash count of a fixed key array,
// per thread) that never calls into libsetm, so a change to the program
// cannot move it; only the host's speed does.

/// One probe copy's time on an idle core of the VM the bounds were set on,
/// so that reference seconds read close to wall seconds there.
constexpr double kReferenceProbeS = 0.040;

class HostProbe {
 public:
  /// `threads` copies of the probe run at once: as many as the workload
  /// keeps busy, so that losing a core to a neighbour shows in the probe.
  explicit HostProbe(size_t threads) : threads_(threads) {}

  /// Runs the probe once and records its wall time and its CPU time per
  /// copy. The copies are cut into chunks that `threads` workers take in
  /// turn, as a worker pool would, so that one core lent out late delays
  /// the probe by its share of the work, not by a whole copy.
  void Sample() {
    const size_t chunks = threads_ * kChunksPerCopy;
    std::atomic<size_t> next{0};
    std::vector<double> cpu(threads_);
    auto worker = [&](size_t i) {
      const double before = ThreadCpuSeconds();
      while (next.fetch_add(1) < chunks) Work();
      cpu[i] = ThreadCpuSeconds() - before;
    };
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (size_t i = 1; i < threads_; ++i) workers.emplace_back(worker, i);
    worker(0);
    for (std::thread& t : workers) t.join();
    wall_.push_back(SecondsSince(start));
    double cpu_sum = 0.0;
    for (double c : cpu) cpu_sum += c;
    cpu_.push_back(cpu_sum / static_cast<double>(threads_));
  }

  /// Means, like the per-mine figures they scale: both then weigh each
  /// stretch of the run alike.
  double MeanWallSeconds() const { return Mean(wall_); }
  double MeanCpuSeconds() const { return Mean(cpu_); }

  /// Factors from wall seconds, and from CPU seconds, to reference seconds.
  /// Wall time also moves with how many cores the host lends the process;
  /// CPU time only with how fast each one runs.
  double WallScale() const { return kReferenceProbeS / MeanWallSeconds(); }
  double CpuScale() const { return kReferenceProbeS / MeanCpuSeconds(); }

  size_t samples() const { return wall_.size(); }

  /// CPU seconds all samples so far spent, over every thread.
  double CpuSecondsSpent() const {
    return Mean(cpu_) * static_cast<double>(cpu_.size() * threads_);
  }

 private:
  static constexpr size_t kChunksPerCopy = 4;

  /// One chunk of the probe's work: a quarter of a copy.
  static void Work() {
    static const std::vector<uint32_t> keys = [] {
      std::vector<uint32_t> v(1 << 16);
      uint64_t x = 0x9e3779b97f4a7c15ull;
      for (uint32_t& key : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        key = static_cast<uint32_t>(x % 1000003);
      }
      return v;
    }();
    std::vector<uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<uint32_t, uint32_t> counts;
    for (size_t i = 0; i < keys.size(); i += 2) ++counts[keys[i] >> 3];
    volatile size_t sink = counts.size() + sorted[sorted.size() / 2];
    (void)sink;
  }

  static double ThreadCpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  }

  size_t threads_;
  std::vector<double> wall_;
  std::vector<double> cpu_;
};

// ---------------------------------------------------------------------------
// Registry deltas: the MetricsDelta idiom, extended to histogram sums and
// counts (exact totals; their buckets are never used for quantiles).

class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::Global()->Snapshot()) {}

  /// Freezes the "after" side, which Counter and HistSumSeconds read.
  void Stop() { after_ = obs::MetricsRegistry::Global()->Snapshot(); }

  double Counter(const std::string& name) const {
    const uint64_t now = after_.CounterValue(name);
    const uint64_t then = before_.CounterValue(name);
    return now >= then ? static_cast<double>(now - then) : 0.0;
  }

  /// Sum of a *_micros histogram's observations, in seconds.
  double HistSumSeconds(const std::string& name) const {
    const obs::HistogramSnapshot* now = after_.FindHistogram(name);
    if (now == nullptr) return 0.0;
    const obs::HistogramSnapshot* then = before_.FindHistogram(name);
    const uint64_t base = then == nullptr ? 0 : then->sum;
    return now->sum >= base ? static_cast<double>(now->sum - base) / 1e6 : 0.0;
  }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// ---------------------------------------------------------------------------
// Report: named metrics with units and sample counts, then the JSON line.

class Report {
 public:
  explicit Report(bool trace) {
    if (trace) {
      for (const MetricDef& def : PerLayerDefs()) Declare(def);
    } else {
      for (const MetricDef& def : kEndToEnd) Declare(def);
    }
  }

  /// Sets a declared metric of the active kind (others are ignored: an
  /// untraced run never carries per-layer values and vice versa).
  void Set(const std::string& name, double value, size_t samples,
           const std::string& note = "") {
    auto it = index_.find(name);
    if (it == index_.end()) return;
    Entry& entry = entries_[it->second];
    entry.value = value;
    entry.samples = samples;
    entry.note = note;
  }

  /// A reported figure that is not one of the JSON metrics.
  void Info(const std::string& name, double value, const char* unit,
            size_t samples, const std::string& note = "") {
    char line[200];
    std::snprintf(line, sizeof(line), "%-32s %16.6f %-6s n=%zu%s%s",
                  name.c_str(), value, unit, samples, note.empty() ? "" : "  ",
                  note.c_str());
    info_.push_back(line);
  }

  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void Print() const {
    for (const std::string& line : info_) std::printf("%s\n", line.c_str());
    for (const Entry& e : entries_) {
      std::printf("%-32s %16.6f %-6s n=%zu%s%s\n", e.def.name, e.value,
                  e.def.unit, e.samples, e.note.empty() ? "" : "  ",
                  e.note.c_str());
    }
    const double error_rate =
        attempted_ == 0 ? 1.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    std::printf("%-32s %16.6f %-6s n=%llu\n", "error_rate", error_rate,
                "ratio", static_cast<unsigned long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      json += (i == 0 ? "\"" : ", \"") + std::string(entries_[i].def.name) +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              entries_[i].def.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    MetricDef def;
    double value = 0.0;
    size_t samples = 0;
    std::string note;
  };

  void Declare(const MetricDef& def) {
    index_[def.name] = entries_.size();
    entries_.push_back({def, 0.0, 0, ""});
  }

  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
  std::vector<std::string> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  bool smoke = false;
};

/// Inputs of every workload: the first `transactions` baskets of a Quest T10
/// stream (N=400 items, |L|=60 patterns, as in bench/scaling_threads) from
/// a fixed generator seed, with the items relabelled by permutations drawn
/// from `--seed`.
///
/// A relabelling changes every item id, and with them every sort order,
/// hash bucket and page layout, but not the baskets' shape: the
/// frequent-itemset lattice is the same for every seed, and the rows a mine
/// produces move by about 0.1%. With only sixty planted patterns, the
/// generator seed alone moved the cost of a mine by nearly 2x, and drawing
/// 80% of a larger pool still moved it by +-5%; either would read as a
/// regression that is not there.
constexpr uint32_t kQuestItems = 400;

TransactionDb QuestBaskets(uint32_t transactions) {
  QuestOptions gen;
  gen.num_transactions = transactions;
  gen.avg_transaction_size = 10;
  gen.num_items = kQuestItems;
  gen.num_patterns = 60;
  gen.seed = 7;
  return QuestGenerator(gen).Generate();
}

/// A relabelling: item i becomes labelling[i].
using Labelling = std::vector<ItemId>;

Labelling DrawLabelling(Rng* rng) {
  Labelling labelling(kQuestItems);
  for (uint32_t i = 0; i < kQuestItems; ++i) {
    labelling[i] = static_cast<ItemId>(i);
  }
  rng->Shuffle(&labelling);
  return labelling;
}

std::vector<ItemId> Relabel(std::vector<ItemId> items,
                            const Labelling& labelling) {
  for (ItemId& item : items) item = labelling[static_cast<size_t>(item)];
  std::sort(items.begin(), items.end());
  return items;
}

TransactionDb Relabel(TransactionDb baskets, const Labelling& labelling) {
  for (Transaction& t : baskets) t.items = Relabel(t.items, labelling);
  return baskets;
}

/// The frequent itemsets of the relabelled baskets, from those of the
/// original ones: relabelling maps the lattice onto itself.
FrequentItemsets Relabel(const FrequentItemsets& itemsets,
                         const Labelling& labelling) {
  FrequentItemsets relabelled;
  relabelled.num_transactions = itemsets.num_transactions;
  for (size_t k = 1; k <= itemsets.MaxSize(); ++k) {
    for (const PatternCount& p : itemsets.OfSize(k)) {
      relabelled.Add(Relabel(p.items, labelling), p.count);
    }
  }
  relabelled.Normalize();
  return relabelled;
}

/// The baskets under the first labelling `seed` draws.
TransactionDb QuestSample(uint32_t transactions, uint64_t seed) {
  Rng rng(seed);
  return Relabel(QuestBaskets(transactions), DrawLabelling(&rng));
}

/// The correctness oracle: Apriori, an independent algorithm, mined once.
Result<FrequentItemsets> OracleItemsets(const TransactionDb& txns,
                                        double min_support) {
  Database db;
  auto miner = MinerRegistry::Create("apriori", &db);
  if (!miner.ok()) return miner.status();
  MiningRequest request;
  request.transactions = &txns;
  request.options.min_support = min_support;
  auto mined = miner.value()->Mine(request);
  if (!mined.ok()) return mined.status();
  FrequentItemsets itemsets = std::move(mined.value().itemsets);
  itemsets.Normalize();
  return itemsets;
}

// ---------------------------------------------------------------------------
// Trace sinks used from the harness side of each layer boundary.

/// Timing MiningObserver: records when each iteration completed, as seen
/// by the caller's thread, and the cardinalities the miner reported.
class TimingObserver : public MiningObserver {
 public:
  void Start() {
    last_ = Clock::now();
    iterations_.clear();
  }

  bool OnIteration(const IterationStats& stats) override {
    const Clock::time_point now = Clock::now();
    Iteration it;
    it.stats = stats;
    it.wall_s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    iterations_.push_back(it);
    return true;
  }

  struct Iteration {
    IterationStats stats;
    double wall_s = 0.0;
  };
  const std::vector<Iteration>& iterations() const { return iterations_; }

 private:
  Clock::time_point last_;
  std::vector<Iteration> iterations_;
};

/// Timing ShardBackend decorator: wraps any backend (remote or local) and
/// records the wall time of each phase call per iteration.
class TimedShard : public shard::ShardBackend {
 public:
  explicit TimedShard(shard::ShardBackend* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }

  Status BeginRun(const shard::ShardRunOptions& options) override {
    count_s_.clear();
    filter_s_.clear();
    return inner_->BeginRun(options);
  }

  Result<shard::ShardLocalCounts> CountIteration(size_t k) override {
    const Clock::time_point start = Clock::now();
    auto counts = inner_->CountIteration(k);
    Record(&count_s_, k, SecondsSince(start));
    return counts;
  }

  Result<shard::ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override {
    const Clock::time_point start = Clock::now();
    auto stats = inner_->ApplyGlobalCk(k, ck);
    Record(&filter_s_, k, SecondsSince(start));
    return stats;
  }

  Status EndRun() override { return inner_->EndRun(); }
  Result<shard::ShardHealth> Health() override { return inner_->Health(); }

  /// Seconds per iteration k (index k-1); 0 where the phase did not run.
  const std::vector<double>& count_s() const { return count_s_; }
  const std::vector<double>& filter_s() const { return filter_s_; }

 private:
  static void Record(std::vector<double>* per_k, size_t k, double seconds) {
    if (per_k->size() < k) per_k->resize(k, 0.0);
    (*per_k)[k - 1] += seconds;
  }

  shard::ShardBackend* inner_;
  std::vector<double> count_s_;
  std::vector<double> filter_s_;
};

/// Per-mine samples of every per-layer metric; medians are reported.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Publish(Report* report) const {
    for (const auto& [name, values] : samples_) {
      report->Set(name, Median(values), values.size());
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Registry-derived per-layer figures of one traced unit of work.
void AddRegistryLayers(const RegistryDelta& d, LayerSamples* layers) {
  layers->Add("exec.sort.rows", d.Counter("setm_sort_rows_total"));
  layers->Add("exec.sort.runs", d.Counter("setm_sort_runs_total"));
  layers->Add("exec.sort.spilled_runs",
              d.Counter("setm_sort_spilled_runs_total"));
  layers->Add("exec.sort.merge_passes",
              d.Counter("setm_sort_merge_passes_total"));
  layers->Add("exec.workers.task_s",
              d.HistSumSeconds("setm_worker_task_micros"));
  layers->Add("exec.workers.queue_wait_s",
              d.HistSumSeconds("setm_worker_queue_wait_micros"));
  const double hits = d.Counter("setm_pool_hits_total");
  const double misses = d.Counter("setm_pool_misses_total");
  layers->Add("storage.pool.hits", hits);
  layers->Add("storage.pool.misses", misses);
  layers->Add("storage.pool.hit_rate", Ratio(hits, hits + misses));
  layers->Add("storage.pool.evictions", d.Counter("setm_pool_evictions_total"));
  layers->Add("storage.pool.dirty_writebacks",
              d.Counter("setm_pool_dirty_writebacks_total"));
}

void AddIoLayers(const IoStats& io, LayerSamples* layers) {
  const double reads = static_cast<double>(io.page_reads.load());
  const double writes = static_cast<double>(io.page_writes.load());
  const double random =
      static_cast<double>(io.random_reads.load() + io.random_writes.load());
  layers->Add("storage.io.page_reads", reads);
  layers->Add("storage.io.page_writes", writes);
  layers->Add("storage.io.random_share", Ratio(random, reads + writes));
  layers->Add("page_accesses", reads + writes);
}

void AddCoreLayers(const TimingObserver& observer, LayerSamples* layers) {
  double rprime = 0.0;
  double r = 0.0;
  double ck = 0.0;
  std::vector<double> iter_s(kMaxReportedK, 0.0);
  for (const TimingObserver::Iteration& it : observer.iterations()) {
    rprime += static_cast<double>(it.stats.r_prime_rows);
    r += static_cast<double>(it.stats.r_rows);
    ck += static_cast<double>(it.stats.c_size);
    if (it.stats.k >= 1 && it.stats.k <= kMaxReportedK) {
      iter_s[it.stats.k - 1] = it.wall_s;
    }
  }
  for (size_t k = 1; k <= kMaxReportedK; ++k) {
    layers->Add("core.iter_s.k" + std::to_string(k), iter_s[k - 1]);
  }
  layers->Add("core.rprime_rows", rprime);
  layers->Add("core.r_rows", r);
  layers->Add("core.ck_rows", ck);
  layers->Add("core.survival", Ratio(r, rprime));
}

/// Probe samples taken before a batch workload's timed phase (it also
/// probes after every mine), and before and after served-mix's (which
/// also probes between its appends).
constexpr int kProbesBeforeTiming = 5;
constexpr int kProbesAroundServedPhase = 8;

/// Sets the gated timings in reference seconds and prints the raw figures
/// they come from. `mine_s` and `mine_cpu_s` are per-mine (or per-request)
/// means over `mines` and `cpus` samples.
void ReportTimings(const HostProbe& probe,
                   const std::vector<double>& setup_samples, double mine_s,
                   size_t mines, double mine_cpu_s, size_t cpus,
                   Report* report) {
  const double wall_scale = probe.WallScale();
  report->Set("setup_s", Median(setup_samples) * wall_scale,
              setup_samples.size(), "median, reference s");
  report->Set("mine_s", mine_s * wall_scale, mines, "mean, reference s");
  report->Set("mine_cpu_s", mine_cpu_s * probe.CpuScale(), cpus,
              "mean, reference s");
  report->Info("setup_wall_s", Median(setup_samples), "s",
               setup_samples.size(), "median");
  report->Info("mine_wall_s", mine_s, "s", mines, "mean");
  report->Info("mine_cpu_raw_s", mine_cpu_s, "s", cpus, "mean");
  const std::string reference = std::to_string(kReferenceProbeS);
  report->Info("host_probe_wall_s", probe.MeanWallSeconds(), "s",
               probe.samples(),
               "mean; reference s = wall s x " + reference + " / this");
  report->Info("host_probe_cpu_s", probe.MeanCpuSeconds(), "s",
               probe.samples(),
               "mean; reference s = CPU s x " + reference + " / this");
}

// ---------------------------------------------------------------------------
// Batch workloads: a closed loop of one caller issuing whole mines.

/// One prepared batch workload: `mine` runs one complete mine, traced when
/// `observer` is non-null, and returns its result plus the page ledger of
/// the run (the miner's own IoStats, or the shards' summed ledgers).
struct BatchPlan {
  /// The answer for each input; mine n of a run mines input n % size().
  std::vector<FrequentItemsets> oracles;
  size_t threads = 1;
  std::function<Result<MiningResult>(size_t input, TimingObserver* observer,
                                     LayerSamples* layers, IoStats* io)>
      mine;
};

/// The inputs of a batch workload: `count` relabellings of the same
/// baskets, drawn in turn from `seed`, and the answer for each.
struct BatchInputs {
  std::vector<std::shared_ptr<const TransactionDb>> txns;
  std::vector<FrequentItemsets> oracles;
};

/// The oracle is Apriori, an independent algorithm, mined once on the
/// baskets before relabelling and then relabelled for each input.
Result<BatchInputs> DrawBatchInputs(uint32_t transactions, uint64_t seed,
                                    size_t count, double min_support) {
  const TransactionDb baskets = QuestBaskets(transactions);
  auto oracle = OracleItemsets(baskets, min_support);
  if (!oracle.ok()) return oracle.status();
  BatchInputs inputs;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const Labelling labelling = DrawLabelling(&rng);
    inputs.txns.push_back(
        std::make_shared<const TransactionDb>(Relabel(baskets, labelling)));
    inputs.oracles.push_back(Relabel(oracle.value(), labelling));
  }
  return inputs;
}

using BatchSetup = std::function<Result<BatchPlan>(const Args&)>;

int RunBatch(const Args& args, const BatchSetup& setup, Report* report) {
  // Set-up runs three times and reports the median, so that work moved
  // into set-up shows and one slow start does not set the figure. Only the
  // last set-up is kept for the timed phase.
  constexpr int kSetups = 3;
  std::vector<double> setup_samples;
  BatchPlan plan;
  for (int i = 0; i < kSetups; ++i) {
    plan = BatchPlan{};  // release the previous set-up first
    const Clock::time_point start = Clock::now();
    auto plan_or = setup(args);
    if (!plan_or.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   plan_or.status().ToString().c_str());
      return 1;
    }
    plan = std::move(plan_or).value();
    // Warm-up: one untimed mine, counted in set-up and checked like any
    // other (the first mine in a process runs measurably slower).
    IoStats io;
    auto warm = plan.mine(0, nullptr, nullptr, &io);
    if (!warm.ok()) {
      std::fprintf(stderr, "warm-up mine failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
    warm.value().itemsets.Normalize();
    report->Attempt(warm.value().itemsets == plan.oracles[0]);
    setup_samples.push_back(SecondsSince(start));
  }

  // The probe runs outside every timed interval: a few samples before the
  // timed phase and one after each mine, so that it follows the host
  // through the whole run.
  HostProbe probe(plan.threads);
  for (int i = 0; i < kProbesBeforeTiming; ++i) probe.Sample();
  const bool rss_reset = ResetPeakRss();
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> pages;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  LayerSamples layers;
  TimingObserver observer;
  const Clock::time_point phase_start = Clock::now();
  for (size_t n = 0; n == 0 || SecondsSince(phase_start) < args.seconds; ++n) {
    // The traced run alternates untraced and traced rounds over all
    // inputs, so that the tracing overhead is measured under the same
    // conditions and on the same inputs.
    const size_t input = n % plan.oracles.size();
    const bool traced = args.trace && (n / plan.oracles.size()) % 2 == 1;
    std::optional<RegistryDelta> delta;
    IoStats io;
    if (traced) {
      delta.emplace();
      observer.Start();
    }
    const double cpu_before = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    auto result = plan.mine(input, traced ? &observer : nullptr,
                            traced ? &layers : nullptr, &io);
    const double seconds = SecondsSince(start);
    const double cpu_seconds = ProcessCpuSeconds() - cpu_before;
    if (!result.ok()) {
      std::fprintf(stderr, "mine failed: %s\n",
                   result.status().ToString().c_str());
      report->Attempt(false);
      continue;
    }
    result.value().itemsets.Normalize();
    const bool correct = result.value().itemsets == plan.oracles[input];
    if (!correct) std::fprintf(stderr, "mine %zu diverged from oracle\n", n);
    report->Attempt(correct);
    wall.push_back(seconds);
    cpu.push_back(cpu_seconds);
    pages.push_back(static_cast<double>(io.TotalAccesses()));
    if (args.trace) (traced ? traced_wall : untraced_wall).push_back(seconds);
    if (traced) {
      delta->Stop();
      AddCoreLayers(observer, &layers);
      AddRegistryLayers(*delta, &layers);
      AddIoLayers(io, &layers);
      const double task_s = delta->HistSumSeconds("setm_worker_task_micros");
      layers.Add("exec.workers.busy_share",
                 Ratio(task_s, static_cast<double>(plan.threads) * seconds));
    }
    probe.Sample();
  }
  const double peak_rss = PeakRssMb();
  plan = BatchPlan{};

  ReportTimings(probe, setup_samples, Mean(wall), wall.size(), Mean(cpu),
                cpu.size(), report);
  report->Set("peak_rss_mb", peak_rss, 1,
              rss_reset ? "timed phase" : "whole process (no clear_refs)");
  const Tail tail = SupportedTail(wall);
  report->Info("mine_p50_s", Median(wall), "s", wall.size());
  report->Info("mine_tail_s", tail.value, "s", wall.size(),
               "p" + std::to_string(static_cast<int>(tail.percentile)));
  report->Info("page_accesses", Median(pages), "count", pages.size());
  if (args.trace) {
    layers.Add("obs.trace_overhead",
               Ratio(Mean(traced_wall), Mean(untraced_wall)) - 1.0);
    layers.Publish(report);
  }
  return 0;
}

/// paper-sortmerge: the paper's own pipeline, serial sort-merge over paged
/// relations, with the buffer pool and sort budget scaled so that SALES
/// stands to them as D10K does to the library's 1 MiB defaults.
Result<BatchPlan> SetupPaperSortMerge(const Args& args) {
  const uint32_t transactions = args.smoke ? 200 : 1000;
  const double scale = static_cast<double>(transactions) / 10000.0;
  constexpr double kSupport = 0.01;
  // One labelling: a run's page counts then repeat exactly for its seed.
  auto inputs = DrawBatchInputs(transactions, args.seed, 1, kSupport);
  if (!inputs.ok()) return inputs.status();
  const std::shared_ptr<const TransactionDb> txns = inputs.value().txns[0];

  DatabaseOptions db_options;
  db_options.pool_frames =
      std::max<size_t>(8, static_cast<size_t>(256 * scale));
  db_options.sort_memory_bytes =
      std::max<size_t>(4096, static_cast<size_t>((1 << 20) * scale));

  BatchPlan plan;
  plan.oracles = std::move(inputs.value().oracles);
  plan.mine = [txns, db_options](size_t, TimingObserver* observer,
                                 LayerSamples*,
                                 IoStats* io) -> Result<MiningResult> {
    // A fresh database per mine: every mine starts from the same cold pool,
    // which is what makes its page counts repeat exactly.
    Database db(db_options);
    SetmOptions knobs;
    knobs.storage = TableBacking::kHeap;
    knobs.count_method = CountMethod::kSortMerge;
    knobs.num_threads = 1;
    auto miner = MinerRegistry::Create("setm", &db, knobs);
    if (!miner.ok()) return miner.status();
    MiningRequest request;
    request.transactions = txns.get();
    request.options.min_support = kSupport;
    request.options.observer = observer;
    auto result = miner.value()->Mine(request);
    if (result.ok()) *io = result.value().io;
    return result;
  };
  return plan;
}

/// |D| of parallel-hash and sharded-remote, which mine the same data. At
/// D2K the ~80 LCOUNT/MERGE round trips of a sharded mine were a large
/// enough share of it that thread wake-up delays on a busy host spread its
/// wall time wider than its CPU time; at D4K counting dominates.
constexpr uint32_t kPartitionedTransactions = 4000;

/// Labellings a run of parallel-hash or sharded-remote rotates through.
/// Hash counting's cost can depend on the item ids: over ten seeds with
/// one labelling per run, both workloads read 12-15% more CPU per mine on
/// the same two seeds. Rotating through several per run averages that out.
constexpr size_t kPartitionedLabellings = 4;

/// parallel-hash: the `--threads 4` path users get — setm through the
/// registry, partition-parallel hash counting over in-memory relations.
Result<BatchPlan> SetupParallelHash(const Args& args) {
  const uint32_t transactions = args.smoke ? 400 : kPartitionedTransactions;
  constexpr double kSupport = 0.01;
  auto inputs = DrawBatchInputs(transactions, args.seed,
                                kPartitionedLabellings, kSupport);
  if (!inputs.ok()) return inputs.status();

  BatchPlan plan;
  plan.oracles = std::move(inputs.value().oracles);
  plan.threads = 4;
  plan.mine = [txns = std::move(inputs.value().txns)](
                  size_t input, TimingObserver* observer, LayerSamples*,
                  IoStats* io) -> Result<MiningResult> {
    Database db;
    SetmOptions knobs;
    knobs.storage = TableBacking::kMemory;
    knobs.count_method = CountMethod::kHash;
    knobs.num_threads = 4;
    auto miner = MinerRegistry::Create("setm", &db, knobs);
    if (!miner.ok()) return miner.status();
    MiningRequest request;
    request.transactions = txns[input].get();
    request.options.min_support = kSupport;
    request.options.observer = observer;
    auto result = miner.value()->Mine(request);
    if (result.ok()) *io = result.value().io;
    return result;
  };
  return plan;
}

/// Splits `txns` into `n` slices of about equal row counts, cutting only at
/// transaction boundaries.
std::vector<TransactionDb> SplitAtTransactions(const TransactionDb& txns,
                                               size_t n) {
  size_t total_rows = 0;
  for (const Transaction& t : txns) total_rows += t.items.size();
  std::vector<TransactionDb> slices(n);
  size_t rows = 0;
  for (const Transaction& t : txns) {
    const size_t slice =
        std::min(n - 1, rows * n / std::max<size_t>(1, total_rows));
    slices[slice].push_back(t);
    rows += t.items.size();
  }
  return slices;
}

/// sharded-remote: four in-process setm_served instances, one database per
/// slice, driven by DistributedMine over RemoteShardBackends (LCOUNT/MERGE).
Result<BatchPlan> SetupShardedRemote(const Args& args) {
  constexpr size_t kShards = 4;
  const uint32_t transactions = args.smoke ? 400 : kPartitionedTransactions;
  constexpr double kSupport = 0.01;
  auto inputs = DrawBatchInputs(transactions, args.seed,
                                kPartitionedLabellings, kSupport);
  if (!inputs.ok()) return inputs.status();

  // Every server holds its slice of each input as table sales<input>. A
  // mine connects one backend per shard to that input's table, so there
  // are never more than kShards connections.
  struct Cluster {
    std::vector<std::unique_ptr<Database>> dbs;
    std::vector<std::unique_ptr<net::MiningServer>> servers;
    std::unique_ptr<WorkerPool> fanout;
    ~Cluster() {
      for (auto& server : servers) (void)server->Stop();
    }
  };
  auto cluster = std::make_shared<Cluster>();
  for (size_t i = 0; i < kShards; ++i) {
    cluster->dbs.push_back(std::make_unique<Database>());
  }
  for (size_t input = 0; input < inputs.value().txns.size(); ++input) {
    const std::vector<TransactionDb> slices =
        SplitAtTransactions(*inputs.value().txns[input], kShards);
    for (size_t i = 0; i < kShards; ++i) {
      auto table = LoadSalesTable(cluster->dbs[i].get(),
                                  "sales" + std::to_string(input), slices[i],
                                  TableBacking::kMemory);
      if (!table.ok()) return table.status();
    }
  }
  for (size_t i = 0; i < kShards; ++i) {
    net::ServerOptions options;
    options.port = 0;
    auto server = net::MiningServer::Create(cluster->dbs[i].get(), options);
    if (!server.ok()) return server.status();
    SETM_RETURN_IF_ERROR(server.value()->Start());
    cluster->servers.push_back(std::move(server).value());
  }
  cluster->fanout = std::make_unique<WorkerPool>(kShards);

  BatchPlan plan;
  plan.oracles = std::move(inputs.value().oracles);
  plan.threads = kShards;
  plan.mine = [cluster](size_t input, TimingObserver* observer,
                        LayerSamples* layers,
                        IoStats* io) -> Result<MiningResult> {
    std::vector<std::unique_ptr<shard::RemoteShardBackend>> remotes;
    for (size_t i = 0; i < cluster->servers.size(); ++i) {
      remotes.push_back(std::make_unique<shard::RemoteShardBackend>(
          "127.0.0.1", cluster->servers[i]->port(),
          "sales" + std::to_string(input), "s" + std::to_string(i)));
    }
    std::vector<IoStats> before;
    for (auto& db : cluster->dbs) before.push_back(*db->io_stats());
    shard::CoordinatorOptions coord;
    coord.run.storage = TableBacking::kMemory;
    coord.run.count_method = CountMethod::kHash;
    coord.pool = cluster->fanout.get();
    MiningOptions options;
    options.min_support = kSupport;
    options.observer = observer;

    std::vector<std::unique_ptr<TimedShard>> timed;
    std::vector<shard::ShardBackend*> backends;
    for (auto& remote : remotes) {
      if (observer != nullptr) {
        timed.push_back(std::make_unique<TimedShard>(remote.get()));
        backends.push_back(timed.back().get());
      } else {
        backends.push_back(remote.get());
      }
    }
    std::optional<RegistryDelta> delta;
    if (observer != nullptr) delta.emplace();
    auto result = shard::DistributedMine(backends, options, coord);
    for (size_t i = 0; i < cluster->dbs.size(); ++i) {
      *io += Diff(*cluster->dbs[i]->io_stats(), before[i]);
    }
    if (!result.ok() || observer == nullptr || layers == nullptr) {
      return result;
    }
    delta->Stop();
    // Per iteration, the slowest shard sets each phase's time; the rest of
    // the iteration's wall time is the coordinator's merge and broadcast.
    double count_s = 0.0;
    double filter_s = 0.0;
    double merge_s = 0.0;
    double sum_max_count = 0.0;
    double sum_mean_count = 0.0;
    double client_lcount = 0.0;
    double client_merge = 0.0;
    for (const TimingObserver::Iteration& it : observer->iterations()) {
      const size_t k = it.stats.k;
      double max_count = 0.0;
      double max_filter = 0.0;
      double sum_count = 0.0;
      for (const auto& shard : timed) {
        const double c =
            k <= shard->count_s().size() ? shard->count_s()[k - 1] : 0.0;
        const double f =
            k <= shard->filter_s().size() ? shard->filter_s()[k - 1] : 0.0;
        max_count = std::max(max_count, c);
        max_filter = std::max(max_filter, f);
        sum_count += c;
        client_lcount += c;
        client_merge += f;
      }
      count_s += max_count;
      filter_s += max_filter;
      merge_s += std::max(0.0, it.wall_s - max_count - max_filter);
      sum_max_count += max_count;
      sum_mean_count += sum_count / static_cast<double>(timed.size());
    }
    layers->Add("shard.count_s", count_s);
    layers->Add("shard.filter_s", filter_s);
    layers->Add("shard.merge_s", merge_s);
    layers->Add("shard.skew", Ratio(sum_max_count, sum_mean_count));
    const double server_s = delta->HistSumSeconds("setm_srv_request_micros");
    layers->Add("net.client_s.lcount", client_lcount);
    layers->Add("net.client_s.merge", client_merge);
    layers->Add("net.server_s", server_s);
    layers->Add("net.wait_share", Ratio(client_lcount + client_merge - server_s,
                                        client_lcount + client_merge));
    layers->Add("net.bytes_in", delta->Counter("setm_srv_bytes_read_total"));
    layers->Add("net.bytes_out",
                delta->Counter("setm_srv_bytes_written_total"));
    return result;
  };
  return plan;
}

// ---------------------------------------------------------------------------
// served-mix: an open loop of readers plus one writer against one resident
// server over a durable, file-backed database.

struct ServedShape {
  uint32_t initial_transactions;
  size_t readers;
  double reads_per_second_per_reader;
  size_t append_batch;
  double append_interval_s;
};

/// 3 x 17 reads/s gives over 1000 reads in a run of 20 s or more, so p99
/// has ten samples beyond it. Batches of 50 move the 2% threshold by exactly
/// one count per append; a batch that leaves the threshold in place makes
/// the delta mine run at count 1 and costs about 35x more, which would turn
/// the open loop into an unbounded backlog.
ServedShape ServedMixShape(bool smoke) {
  if (smoke) return {300, 2, 10.0, 50, 0.5};
  return {2000, 3, 17.0, 50, 1.0};
}

/// The support ladder readers cycle through; appends use its lowest rung.
struct Rung {
  const char* spec;
  double fraction;
};
constexpr Rung kLadder[] = {{"2%", 0.02}, {"3%", 0.03}, {"5%", 0.05}};
constexpr const char* kRulesCommand = "RULES 60";
constexpr double kRulesConfidence = 0.60;

std::string AppendRowLine(const Transaction& t) {
  std::string line = std::to_string(t.id);
  for (ItemId item : t.items) line += " " + std::to_string(item);
  return line;
}

/// One request's outcome, timed from when it was due.
struct Sample {
  const char* verb = "";  ///< "mine", "rules" or "append"
  double latency_s = 0.0;
  double late_s = 0.0;
  double client_s = 0.0;  ///< send-to-reply time (no schedule lag)
  bool ok = false;
  bool traced = false;
};

class ServedMix {
 public:
  explicit ServedMix(const Args& args)
      : args_(args), shape_(ServedMixShape(args.smoke)) {}

  ~ServedMix() { Teardown(); }

  Status Setup() {
    Teardown();
    const size_t max_appends =
        static_cast<size_t>(
            std::ceil(args_.seconds / shape_.append_interval_s)) + 2;
    all_ = QuestSample(
        shape_.initial_transactions +
            static_cast<uint32_t>(max_appends * shape_.append_batch),
        args_.seed);
    loaded_ = shape_.initial_transactions;

    std::error_code ec;
    std::filesystem::create_directories(args_.workdir, ec);
    db_path_ = args_.workdir + "/served.db";
    RemoveDbFiles();
    DatabaseOptions db_options;
    db_options.file_path = db_path_;
    auto db = Database::Open(db_options);
    if (!db.ok()) return db.status();
    db_ = std::move(db).value();
    const TransactionDb initial(all_.begin(), all_.begin() + loaded_);
    auto table =
        LoadSalesTable(db_.get(), "sales", initial, TableBacking::kHeap);
    if (!table.ok()) return table.status();
    SETM_RETURN_IF_ERROR(db_->Commit());

    net::ServerOptions options;
    options.port = 0;
    auto server = net::MiningServer::Create(db_.get(), options);
    if (!server.ok()) return server.status();
    server_ = std::move(server).value();
    SETM_RETURN_IF_ERROR(server_->Start());

    // Cold mine at the lowest rung, then one warm-up round of every request
    // kind (including one append), all untimed and all checked for OK.
    auto client = Connect();
    if (!client.ok()) return client.status();
    for (const Rung& rung : kLadder) {
      SETM_RETURN_IF_ERROR(
          ExpectOk(client.value().get(),
                   std::string("MINE sales SUPPORT ") + rung.spec));
      SETM_RETURN_IF_ERROR(ExpectOk(client.value().get(), kRulesCommand));
    }
    auto appended = Append(client.value().get());
    if (!appended.ok()) return appended;
    return Status::OK();
  }

  /// The timed phase. Fills the report; failures count as failed attempts.
  /// The host probe runs before and after it, and on the writer's thread
  /// halfway between appends; its CPU time is not charged to the requests.
  void Run(const std::vector<double>& setup_samples, Report* report) {
    HostProbe probe(1);
    for (int i = 0; i < kProbesAroundServedPhase; ++i) probe.Sample();
    const bool rss_reset = ResetPeakRss();
    RegistryDelta delta;
    const IoStats io_before = *db_->io_stats();
    const WalStats wal_before = db_->wal_stats();
    const size_t appended_rows_before = appended_rows_;
    const double cpu_before = ProcessCpuSeconds();
    const double probe_cpu_before = probe.CpuSecondsSpent();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);

    std::vector<std::vector<Sample>> reads(shape_.readers);
    std::vector<Sample> appends;
    std::vector<std::thread> threads;
    for (size_t r = 0; r < shape_.readers; ++r) {
      threads.emplace_back([&, r]() { ReaderLoop(r, t0, &reads[r]); });
    }
    threads.emplace_back([&]() { WriterLoop(t0, &appends, &probe); });
    for (std::thread& t : threads) t.join();
    const double phase_s = SecondsSince(t0);
    const double cpu_s = ProcessCpuSeconds() - cpu_before -
                         (probe.CpuSecondsSpent() - probe_cpu_before);
    const double peak_rss = PeakRssMb();
    delta.Stop();
    for (int i = 0; i < kProbesAroundServedPhase; ++i) probe.Sample();
    const IoStats io = Diff(*db_->io_stats(), io_before);
    const WalStats wal_now = db_->wal_stats();

    std::vector<double> read_ms;
    std::vector<double> late_ms;
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
    std::map<std::string, double> client_s;
    size_t requests = 0;
    for (const std::vector<Sample>& reader : reads) {
      for (const Sample& s : reader) {
        report->Attempt(s.ok);
        ++requests;
        read_ms.push_back(s.latency_s * 1000.0);
        late_ms.push_back(s.late_s * 1000.0);
        client_s[s.verb] += s.client_s;
        (s.traced ? traced_ms : untraced_ms).push_back(s.latency_s * 1000.0);
      }
    }
    std::vector<double> append_s;
    for (const Sample& s : appends) {
      report->Attempt(s.ok);
      ++requests;
      append_s.push_back(s.latency_s);
      late_ms.push_back(s.late_s * 1000.0);
      client_s["append"] += s.client_s;
    }

    // Served-mix's mining operation is the APPEND: its reply is the
    // incrementally refreshed answer.
    ReportTimings(probe, setup_samples, Mean(append_s), append_s.size(),
                  Ratio(cpu_s, static_cast<double>(requests)), requests,
                  report);
    report->Set("peak_rss_mb", peak_rss, 1,
                rss_reset ? "timed phase" : "whole process (no clear_refs)");
    const Tail read_tail = SupportedTail(read_ms);
    const Tail append_tail = SupportedTail(append_s);
    report->Info("read_p50_ms", Median(read_ms), "ms", read_ms.size());
    report->Info("read_p99_ms", Quantile(read_ms, 0.99), "ms", read_ms.size());
    report->Info("read_tail_ms", read_tail.value, "ms", read_ms.size(),
                 "p" + std::to_string(static_cast<int>(read_tail.percentile)));
    report->Info("append_p50_ms", Median(append_s) * 1000.0, "ms",
                 append_s.size());
    report->Info("append_tail_ms", append_tail.value * 1000.0, "ms",
                 append_s.size(),
                 "p" + std::to_string(
                           static_cast<int>(append_tail.percentile)));
    report->Info("page_accesses",
                 Ratio(static_cast<double>(io.TotalAccesses()),
                       static_cast<double>(requests)),
                 "count", requests, "per request");
    report->Info("timed_phase_s", phase_s, "s", requests, "requests");

    if (!args_.trace) return;
    // Per-layer figures of served-mix are totals over the timed phase.
    LayerSamples layers;
    const double cache_filter = delta.Counter("setm_plan_cache_filter_total");
    const double delta_derive = delta.Counter("setm_plan_delta_derive_total");
    const double full_mine = delta.Counter("setm_plan_full_mine_total");
    const double plans = delta.Counter("setm_plan_requests_total");
    layers.Add("core.plan.cache_filter", cache_filter);
    layers.Add("core.plan.delta_derive", delta_derive);
    layers.Add("core.plan.full_mine", full_mine);
    layers.Add("core.plan.cache_hit_share", Ratio(cache_filter, plans));
    layers.Add("incremental.derive_share",
               Ratio(delta_derive, static_cast<double>(appends.size())));
    AddRegistryLayers(delta, &layers);
    AddIoLayers(io, &layers);
    const double wal_bytes =
        static_cast<double>(wal_now.bytes_appended - wal_before.bytes_appended);
    layers.Add("persist.wal.bytes", wal_bytes);
    layers.Add("persist.wal.commits",
               static_cast<double>(wal_now.commit_records -
                                   wal_before.commit_records));
    layers.Add("persist.wal.fsyncs",
               static_cast<double>(wal_now.fsyncs - wal_before.fsyncs));
    // A SALES row is two 4-byte integers, the paper's unit of user data.
    const double sales_bytes =
        8.0 * static_cast<double>(appended_rows_ - appended_rows_before);
    layers.Add("persist.wal.bytes_per_row", Ratio(wal_bytes, sales_bytes));
    const double server_s = delta.HistSumSeconds("setm_srv_request_micros");
    double client_total = 0.0;
    for (const char* verb : {"mine", "rules", "append"}) {
      layers.Add(std::string("net.client_s.") + verb, client_s[verb]);
      client_total += client_s[verb];
    }
    layers.Add("net.server_s", server_s);
    layers.Add("net.wait_share", Ratio(client_total - server_s, client_total));
    layers.Add("net.bytes_in", delta.Counter("setm_srv_bytes_read_total"));
    layers.Add("net.bytes_out", delta.Counter("setm_srv_bytes_written_total"));
    layers.Add("obs.trace_overhead",
               Ratio(Median(traced_ms), Median(untraced_ms)) - 1.0);
    layers.Add("gen.late_ms", Quantile(late_ms, 0.99));
    layers.Publish(report);
  }

  /// After the timed phase: every rung's answer must be byte-identical to
  /// a direct mine of the final rows, and RULES to the rules of that mine.
  void Verify(Report* report) {
    const TransactionDb final_rows(all_.begin(), all_.begin() + loaded_);
    auto client = Connect();
    if (!client.ok()) {
      std::fprintf(stderr, "verify connect: %s\n",
                   client.status().ToString().c_str());
      report->Attempt(false);
      return;
    }
    for (const Rung& rung : kLadder) {
      Database oracle_db;
      SetmOptions knobs;
      knobs.count_method = CountMethod::kHash;
      auto miner = MinerRegistry::Create("setm", &oracle_db, knobs);
      MiningRequest request;
      request.transactions = &final_rows;
      request.options.min_support = rung.fraction;
      auto direct = miner.ok() ? miner.value()->Mine(request)
                               : Result<MiningResult>(miner.status());
      if (!direct.ok()) {
        std::fprintf(stderr, "direct mine at %s: %s\n", rung.spec,
                     direct.status().ToString().c_str());
        report->Attempt(false);
        continue;
      }
      FrequentItemsets itemsets = std::move(direct.value().itemsets);
      itemsets.Normalize();
      auto mined =
          client.value()->Exec(std::string("MINE sales SUPPORT ") + rung.spec);
      const bool mine_ok =
          mined.ok() && mined.value().ok &&
          mined.value().payload == net::RenderItemsets(itemsets);
      if (!mine_ok) std::fprintf(stderr, "final MINE %s diverged\n", rung.spec);
      report->Attempt(mine_ok);
      MiningOptions rule_options;
      rule_options.min_confidence = kRulesConfidence;
      auto rules = GenerateRules(itemsets, rule_options);
      auto served = client.value()->Exec(kRulesCommand);
      const bool rules_ok =
          rules.ok() && served.ok() && served.value().ok &&
          served.value().payload == FormatRulesCsv(rules.value());
      if (!rules_ok) {
        std::fprintf(stderr, "final RULES at %s diverged\n", rung.spec);
      }
      report->Attempt(rules_ok);
    }
  }

  void Teardown() {
    if (server_ != nullptr) {
      (void)server_->Stop();
      server_.reset();
    }
    if (db_ != nullptr) {
      (void)db_->Close();
      db_.reset();
    }
    if (!db_path_.empty()) RemoveDbFiles();
  }

 private:
  Result<std::unique_ptr<net::BlockingClient>> Connect() {
    return net::BlockingClient::Connect("127.0.0.1", server_->port(), 60000);
  }

  static Status ExpectOk(net::BlockingClient* client, const std::string& line) {
    auto response = client->Exec(line);
    if (!response.ok()) return response.status();
    if (!response.value().ok) {
      return Status::Internal(line + ": ERR " + response.value().code + " " +
                              response.value().info);
    }
    return Status::OK();
  }

  /// Sends the next batch of transactions, whose ids continue strictly
  /// above everything loaded so far. Only this class's single writer calls
  /// it, so the ids never race.
  Status Append(net::BlockingClient* client) {
    if (loaded_ + shape_.append_batch > all_.size()) {
      return Status::ResourceExhausted("append pool exhausted");
    }
    SETM_RETURN_IF_ERROR(client->SendLine(std::string("APPEND sales SUPPORT ") +
                                          kLadder[0].spec));
    size_t rows = 0;
    for (size_t i = loaded_; i < loaded_ + shape_.append_batch; ++i) {
      SETM_RETURN_IF_ERROR(client->SendLine(AppendRowLine(all_[i])));
      rows += all_[i].items.size();
    }
    auto response = client->Exec(".");
    if (!response.ok()) return response.status();
    if (!response.value().ok) {
      return Status::Internal("APPEND: ERR " + response.value().code + " " +
                              response.value().info);
    }
    loaded_ += shape_.append_batch;
    appended_rows_ += rows;
    return Status::OK();
  }

  /// Schedule time `due_s` seconds after `t0`, as a clock point.
  static Clock::time_point At(Clock::time_point t0, double due_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
  }

  void ReaderLoop(size_t reader, Clock::time_point t0,
                  std::vector<Sample>* out) {
    auto client = Connect();
    const double interval = 1.0 / shape_.reads_per_second_per_reader;
    // Readers are phase-shifted so their requests interleave evenly.
    const double offset = interval * static_cast<double>(reader) /
                          static_cast<double>(shape_.readers);
    for (size_t i = 0;; ++i) {
      const double due_s = offset + interval * static_cast<double>(i);
      if (due_s >= args_.seconds) break;
      const Clock::time_point due = At(t0, due_s);
      std::this_thread::sleep_until(due);
      // A round is MINE at each rung, then RULES on the last answer. Three
      // MINEs per RULES keep the median inside the MINE latencies; a 1:1
      // mix would put it on the boundary between two clusters.
      const size_t step = i % (std::size(kLadder) + 1);
      const bool is_rules = step == std::size(kLadder);
      const std::string line =
          is_rules ? std::string(kRulesCommand)
                   : std::string("MINE sales SUPPORT ") + kLadder[step].spec;
      Sample s;
      s.verb = is_rules ? "rules" : "mine";
      // In the traced run every other round also snapshots the registry
      // around each request, which is what tracing one costs.
      s.traced = args_.trace && (i / (std::size(kLadder) + 1)) % 2 == 1;
      const Clock::time_point sent = Clock::now();
      s.late_s = std::chrono::duration<double>(sent - due).count();
      if (client.ok()) {
        std::optional<RegistryDelta> span;
        if (s.traced) span.emplace();
        auto response = client.value()->Exec(line);
        if (span) span->Stop();
        s.ok = response.ok() && response.value().ok;
        if (!response.ok()) {
          std::fprintf(stderr, "reader %zu [%s]: %s\n", reader, line.c_str(),
                       response.status().ToString().c_str());
        } else if (!s.ok) {
          std::fprintf(stderr, "reader %zu [%s]: ERR %s %s\n", reader,
                       line.c_str(), response.value().code.c_str(),
                       response.value().info.c_str());
        }
      }
      s.client_s = SecondsSince(sent);
      s.latency_s = SecondsSince(due);
      out->push_back(s);
    }
    if (client.ok()) (void)client.value()->Exec("QUIT");
  }

  void WriterLoop(Clock::time_point t0, std::vector<Sample>* out,
                  HostProbe* probe) {
    auto client = Connect();
    for (size_t j = 0;; ++j) {
      const double due_s =
          shape_.append_interval_s * (static_cast<double>(j) + 0.5);
      if (due_s >= args_.seconds) break;
      const Clock::time_point due = At(t0, due_s);
      std::this_thread::sleep_until(due);
      Sample s;
      s.verb = "append";
      const Clock::time_point sent = Clock::now();
      s.late_s = std::chrono::duration<double>(sent - due).count();
      if (client.ok()) {
        Status appended = Append(client.value().get());
        s.ok = appended.ok();
        if (!s.ok) {
          std::fprintf(stderr, "writer: %s\n", appended.ToString().c_str());
        }
      }
      s.client_s = SecondsSince(sent);
      s.latency_s = SecondsSince(due);
      out->push_back(s);
      const double probe_s = due_s + shape_.append_interval_s / 2.0;
      if (probe_s < args_.seconds) {
        std::this_thread::sleep_until(At(t0, probe_s));
        probe->Sample();
      }
    }
    if (client.ok()) (void)client.value()->Exec("QUIT");
  }

  void RemoveDbFiles() {
    std::error_code ec;
    std::filesystem::remove(db_path_, ec);
    std::filesystem::remove(db_path_ + ".wal", ec);
  }

  Args args_;
  ServedShape shape_;
  TransactionDb all_;
  size_t loaded_ = 0;         ///< transactions of all_ stored in SALES
  size_t appended_rows_ = 0;  ///< SALES rows appended over the wire
  std::string db_path_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<net::MiningServer> server_;
};

int RunServedMix(const Args& args, Report* report) {
  constexpr int kSetups = 3;
  std::vector<double> setup_samples;
  ServedMix mix(args);
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    Status s = mix.Setup();
    report->Attempt(s.ok());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_samples.push_back(SecondsSince(start));
  }
  mix.Run(setup_samples, report);
  mix.Verify(report);
  mix.Teardown();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--workdir") {
      args->workdir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper-sortmerge|parallel-hash|"
                 "served-mix|sharded-remote> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  // A peer closing mid-reply must surface as an error, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  Report report(args.trace);
  int rc = 0;
  if (args.workload == "paper-sortmerge") {
    rc = RunBatch(args, SetupPaperSortMerge, &report);
  } else if (args.workload == "parallel-hash") {
    rc = RunBatch(args, SetupParallelHash, &report);
  } else if (args.workload == "sharded-remote") {
    rc = RunBatch(args, SetupShardedRemote, &report);
  } else if (args.workload == "served-mix") {
    rc = RunServedMix(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}
