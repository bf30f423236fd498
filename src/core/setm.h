#ifndef SETM_CORE_SETM_H_
#define SETM_CORE_SETM_H_

#include <memory>

#include "core/miner.h"
#include "core/types.h"
#include "relational/database.h"

namespace setm {

// CountMethod and SetmOptions — the physical knobs of a SETM run, now the
// uniform knob set of the whole mining API — live in core/miner.h and are
// re-exported here for the many existing call sites.

/// Algorithm SETM (Figure 4 of the paper), implemented directly on the
/// engine's two primitives: external sort and merge-scan join.
///
/// Per iteration k:
///   1. R'_k := merge-scan join of R_{k-1} (sorted on trans_id, items) with
///      R_1 (sorted on trans_id, item) on trans_id, keeping extensions with
///      q.item > p.item_{k-1} — lexicographic candidate patterns;
///   2. sort R'_k on (item_1 .. item_k) and stream-count groups, keeping
///      those with count >= minsupport: the count relation C_k;
///   3. R_k := R'_k filtered to patterns present in C_k ("simple table
///      look-ups on relation C_k"), sorted back on (trans_id, items).
/// The loop ends when R_k (equivalently C_k) is empty.
///
/// With SetmOptions::num_threads > 1 the same loop runs partitioned: SALES
/// is cut at transaction boundaries into row-balanced trans_id slices, each
/// slice becomes an in-process shard (shard/local_backend.h), and
/// shard::DistributedMine (shard/coordinator.h) drives the two-phase count
/// over them on a worker pool. Itemsets and per-iteration cardinalities are
/// identical to the serial loop; errors follow the coordinator's contract
/// (the message names the slice "s<i>", an IOError reads as Unavailable).
///
///     Database db;
///     SetmMiner miner(&db);
///     MiningResult result = miner.Mine(transactions, options).value();
class SetmMiner {
 public:
  explicit SetmMiner(Database* db, SetmOptions setm_options = {})
      : db_(db), setm_options_(setm_options) {}

  /// Mines a transaction database. Loads it into a SALES-shaped relation
  /// first (items within a transaction must be sorted and unique).
  Result<MiningResult> Mine(const TransactionDb& transactions,
                            const MiningOptions& options);

  /// Mines an existing relation with schema (trans_id INT32, item INT32);
  /// rows need not be sorted.
  Result<MiningResult> MineTable(const Table& sales,
                                 const MiningOptions& options);

  /// The canonical SALES schema: (trans_id INT32, item INT32).
  static Schema SalesSchema();

  /// Schema of R_k: (trans_id, item_1, .., item_k), all INT32.
  static Schema RkSchema(size_t k);

  /// Sort-key columns (trans_id, item_1 .. item_k) of an R_k row — the
  /// order every R_k is maintained in, by the serial loop and every shard.
  static std::vector<size_t> TidItemColumns(size_t k);

 private:
  Database* db_;
  SetmOptions setm_options_;
};

/// Creates a catalog table `name` with the SALES schema and loads the
/// transaction database into it. Convenience shared by the SQL mining path,
/// the examples and the benchmarks.
Result<Table*> LoadSalesTable(Database* db, const std::string& name,
                              const TransactionDb& transactions,
                              TableBacking backing);

}  // namespace setm

#endif  // SETM_CORE_SETM_H_
