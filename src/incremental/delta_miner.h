#ifndef SETM_INCREMENTAL_DELTA_MINER_H_
#define SETM_INCREMENTAL_DELTA_MINER_H_

#include "core/setm.h"
#include "core/types.h"
#include "incremental/itemset_store.h"
#include "relational/database.h"

namespace setm {

/// Knobs of the incremental maintenance path.
struct DeltaOptions {
  /// Physical options for the delta mine and the full-remine fallback
  /// (storage backing, thread count, count method). num_threads > 1 mines
  /// the delta partition as trans_id slices under the shard coordinator.
  SetmOptions setm;
  /// When the appended batch exceeds this fraction of the *combined*
  /// transaction count, incremental maintenance stops paying off (the
  /// borderline candidate set approaches the full candidate space) and the
  /// miner falls back to a full remine of the combined table.
  double full_remine_fraction = 0.25;
};

/// What one incremental update reports, beyond the mining result itself.
struct DeltaMineResult {
  /// The combined-database result: itemsets are bit-identical to a full
  /// remine of old + delta at the same MiningOptions. `iterations` holds
  /// the delta mine's per-iteration stats on the incremental path (the full
  /// remine's on the fallback path); `io` covers the whole update.
  MiningResult result;
  /// True when the update fell back to a full remine (batch too large, or
  /// the stored run's options were incompatible with the request).
  bool full_remine = false;
  /// Non-empty transactions in the appended batch.
  uint64_t delta_transactions = 0;
  /// Itemsets frequent in the delta but absent from the store — the ones
  /// whose global frequency was undecidable from stored supports alone and
  /// had to be re-counted against the old partition.
  uint64_t borderline_candidates = 0;
};

/// Incremental SETM maintenance in the FUP style (Cheung et al.), built on
/// one inequality: an itemset absent from a store mined at threshold s_old
/// had old-partition count <= s_old - 1. With s the threshold for the
/// combined database, such an itemset can only be globally frequent when
/// its delta count is >= s - s_old + 1. So the update
///
///   1. mines *only* the delta partition (reusing SetmMiner, threaded when
///      num_threads > 1) at that reduced threshold;
///   2. combines stored supports with exact delta counts for every stored
///      itemset — decidable without touching old data;
///   3. re-counts only the "borderline" itemsets (delta-frequent, not
///      stored) against the old partition, in one scan;
///   4. falls back to a full remine when the batch exceeds
///      DeltaOptions::full_remine_fraction of the combined database.
///
/// The result is exact, not approximate: incremental_test sweeps seeds,
/// backings and batch sizes asserting bit-identical itemsets vs remining.
///
///     ItemsetStore store(&db, "fi", backing);
///     // ... full mine + store.Save(...) once, then per batch:
///     DeltaMiner miner(&db, delta_options);
///     auto r = miner.AppendAndUpdate(&store, sales, batch, options);
class DeltaMiner {
 public:
  explicit DeltaMiner(Database* db, DeltaOptions options = {})
      : db_(db), options_(options) {}

  /// Appends `delta` to the SALES relation `sales`, brings `store` up to
  /// date, and returns the combined result. Requirements: `store` holds a
  /// run whose source rows are exactly the current contents of `sales`;
  /// every delta transaction id is unique and > the stored watermark (the
  /// watermark is what separates the partitions, so a violation is an
  /// InvalidArgument, not a silent wrong answer). `options` must ask the
  /// same question as the stored run (same support spec and max pattern
  /// length) — a different question forces the full-remine path.
  ///
  /// Failure contract: the batch is appended only after the chosen path's
  /// mining succeeded, so on most errors SALES is untouched and the call
  /// may simply be retried. If the append itself (or the final store Save)
  /// fails, the batch may sit partially in SALES while the store still
  /// describes the old run — recover by remining the table
  /// (SetmMiner::MineTable + ItemsetStore::Save), not by retrying the
  /// batch, which would double-insert its rows.
  Result<DeltaMineResult> AppendAndUpdate(ItemsetStore* store, Table* sales,
                                          const TransactionDb& delta,
                                          const MiningOptions& options);

 private:
  Database* db_;
  DeltaOptions options_;
};

}  // namespace setm

#endif  // SETM_INCREMENTAL_DELTA_MINER_H_
