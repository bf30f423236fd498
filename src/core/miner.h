#ifndef SETM_CORE_MINER_H_
#define SETM_CORE_MINER_H_

#include <optional>
#include <string>

#include "core/types.h"
#include "relational/catalog.h"

namespace setm {

/// How the support counts C_k are produced from R'_k.
enum class CountMethod {
  /// The paper's pipeline: sort R'_k on its item columns, then one
  /// streaming group-count scan (Figure 4's "sort R'_k on item_1..item_k;
  /// C_k := generate counts").
  kSortMerge,
  /// Hash aggregation, the post-1995 alternative; skips the sort entirely.
  /// Results are identical (the ablation `ablation_count_method` compares
  /// the physical behaviour).
  kHash,
};

/// Physical knobs of a mining run. Historically SETM-specific, now the
/// uniform knob set the MinerRegistry hands every algorithm; miners without
/// a given physical dimension ignore the corresponding knob (MinerInfo in
/// miner_registry.h records which knobs an algorithm honors), except that
/// num_threads > 1 is rejected with InvalidArgument by miners that cannot
/// run partition-parallel — a thread count is an explicit request, never a
/// default.
struct SetmOptions {
  /// Where SALES/R_k relations live. kHeap stores them in paged tables so
  /// every scan, spill and materialization is visible in the IoStats ledger
  /// (the configuration the paper's Section 4.3 analysis describes);
  /// kMemory mirrors the paper's Section 6 implementation, which "ran in
  /// main memory" for the timing experiments.
  TableBacking storage = TableBacking::kMemory;
  /// Physical strategy for the C_k aggregation. The serial loop counts the
  /// materialized R'_k through a sort+stream or hash aggregation; with
  /// num_threads > 1 every trans_id slice applies the same choice to its
  /// local counts (kSortMerge sorts the slice's R'_k before counting,
  /// reproducing the sort-based I/O profile per slice). The cross-slice
  /// merge is always hash-bucketed (partial counts must combine before the
  /// global minsupport filter), so only the slice-local aggregation differs
  /// between the methods; results are identical either way.
  CountMethod count_method = CountMethod::kSortMerge;
  /// Degree of partition parallelism. 1 runs the serial loop; > 1 cuts
  /// SALES at transaction boundaries into that many trans_id slices (fewer
  /// when there are fewer transactions) and runs them as in-process shards
  /// under the shard coordinator (shard/coordinator.h) on a worker pool:
  /// local candidate counts per slice, a hash-bucketed parallel merge, then
  /// the global minsupport filter. Itemsets and rules are identical to the
  /// serial loop for any thread count; errors follow the coordinator's
  /// contract (naming the slice, IOError read as Unavailable).
  size_t num_threads = 1;
};

/// One mining question, bundled: the data source, the logical options
/// (support/confidence thresholds, observer) and optional physical-knob
/// overrides. Exactly one source must be set.
///
///     MiningRequest request;
///     request.transactions = &txns;       // or request.table = sales;
///     request.options.min_support = 0.01;
///     request.options.observer = &progress;   // optional, cancellable
///     auto result = miner->Mine(request);
struct MiningRequest {
  /// In-memory source: a validated transaction database.
  const TransactionDb* transactions = nullptr;
  /// Relational source: a table with schema (trans_id INT32, item INT32).
  /// Rows need not be sorted. Algorithms without a native table pipeline
  /// extract the transactions through one scan (TransactionsFromTable);
  /// setm-sql additionally requires the table to be catalog-resident, since
  /// its statements name it by table name.
  const Table* table = nullptr;
  /// The logical question: thresholds, pattern cap, ablations — plus the
  /// optional per-iteration MiningObserver (options.observer) for progress
  /// callbacks and cooperative cancellation.
  MiningOptions options;
  /// Physical knobs for this run. When unset, the knobs the miner was
  /// created with (MinerRegistry::Create's `knobs` argument) apply.
  std::optional<SetmOptions> physical;
};

/// The polymorphic mining interface: one canonical entry point for every
/// algorithm in the library. Instances are created through MinerRegistry
/// (miner_registry.h) and are single-threaded — one Mine call at a time —
/// but independent instances may run concurrently on separate Databases.
class Miner {
 public:
  virtual ~Miner() = default;

  /// The registry name this miner was created under, e.g. "setm".
  virtual const std::string& name() const = 0;

  /// Runs the algorithm over the request's source. Returns the frequent
  /// itemsets with per-iteration stats and the I/O delta, or:
  ///   InvalidArgument — malformed request (no source / both sources / a
  ///                     physical knob the algorithm cannot honor);
  ///   Cancelled       — the request's observer vetoed continuing.
  virtual Result<MiningResult> Mine(const MiningRequest& request) = 0;
};

/// Checks that exactly one source is set. Shared by every Miner
/// implementation so the error text stays uniform.
Status ValidateMiningRequest(const MiningRequest& request);

/// Extracts the transaction database from a SALES-shaped relation
/// (trans_id INT32, item INT32): one scan, grouped by trans_id, items
/// sorted per transaction, transactions ordered by id. Duplicate
/// (trans_id, item) rows are InvalidArgument — row-oriented miners would
/// count them, so silently merging here would break cross-algorithm
/// equivalence. This is how algorithms without a native table pipeline
/// (apriori, ais, brute-force, nested-loop) serve MiningRequest::table.
Result<TransactionDb> TransactionsFromTable(const Table& sales);

}  // namespace setm

#endif  // SETM_CORE_MINER_H_
