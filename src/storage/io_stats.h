#ifndef SETM_STORAGE_IO_STATS_H_
#define SETM_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace setm {

/// Counters for page-level I/O, split into sequential and random accesses.
///
/// The paper analyzes its two mining strategies in page accesses and converts
/// them to time with a simple disk model: a random page access costs ~20 ms,
/// a sequential one ~10 ms (Sections 3.2 and 4.3). Every storage backend
/// accumulates into one of these structs so experiments can report measured
/// page counts and model-derived times next to wall-clock time.
///
/// Counters are atomic so one ledger can be shared by backends driven from
/// concurrent worker threads (a threaded mine's slices) without losing
/// increments; the struct itself still behaves as a copyable value (copies
/// are relaxed snapshots, exact once the workers have been joined).
struct IoStats {
  std::atomic<uint64_t> page_reads{0};   ///< total pages read from the backend
  std::atomic<uint64_t> page_writes{0};  ///< total pages written to the backend
  /// Reads at last accessed page + 1 (or same).
  std::atomic<uint64_t> sequential_reads{0};
  std::atomic<uint64_t> random_reads{0};  ///< all other reads
  std::atomic<uint64_t> sequential_writes{0};
  std::atomic<uint64_t> random_writes{0};
  std::atomic<uint64_t> pages_allocated{0};  ///< fresh pages handed out

  IoStats() = default;
  IoStats(const IoStats& other) { *this = other; }
  IoStats& operator=(const IoStats& other) {
    page_reads.store(other.page_reads.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    page_writes.store(other.page_writes.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    sequential_reads.store(
        other.sequential_reads.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    random_reads.store(other.random_reads.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    sequential_writes.store(
        other.sequential_writes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    random_writes.store(other.random_writes.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    pages_allocated.store(
        other.pages_allocated.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// Total page accesses (reads + writes), the unit of the paper's formulas.
  uint64_t TotalAccesses() const { return page_reads + page_writes; }

  /// Time in seconds under the paper's disk model.
  /// Defaults: 20 ms per random access, 10 ms per sequential access.
  double ModelSeconds(double random_ms = 20.0, double sequential_ms = 10.0) const {
    const double rand_ops =
        static_cast<double>(random_reads + random_writes);
    const double seq_ops =
        static_cast<double>(sequential_reads + sequential_writes);
    return (rand_ops * random_ms + seq_ops * sequential_ms) / 1000.0;
  }

  /// Resets all counters to zero.
  void Reset() { *this = IoStats{}; }

  /// Element-wise accumulation.
  IoStats& operator+=(const IoStats& other) {
    page_reads += other.page_reads.load(std::memory_order_relaxed);
    page_writes += other.page_writes.load(std::memory_order_relaxed);
    sequential_reads +=
        other.sequential_reads.load(std::memory_order_relaxed);
    random_reads += other.random_reads.load(std::memory_order_relaxed);
    sequential_writes +=
        other.sequential_writes.load(std::memory_order_relaxed);
    random_writes += other.random_writes.load(std::memory_order_relaxed);
    pages_allocated += other.pages_allocated.load(std::memory_order_relaxed);
    return *this;
  }

  /// One-line human-readable rendering for bench output.
  std::string ToString() const;
};

/// Element-wise difference of two ledger snapshots (`after - before`) —
/// the page traffic attributable to one operation. Shared by every miner.
IoStats Diff(const IoStats& after, const IoStats& before);

}  // namespace setm

#endif  // SETM_STORAGE_IO_STATS_H_
