#ifndef SETM_SHARD_LOCAL_BACKEND_H_
#define SETM_SHARD_LOCAL_BACKEND_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/setm.h"
#include "shard/shard_backend.h"

namespace setm::shard {

/// One SALES row of a shard's slice.
struct ShardRow {
  TransactionId tid = 0;
  ItemId item = 0;
};

/// Appends the (trans_id, item) pairs of a SALES-shaped table to `rows`;
/// InvalidArgument unless the table has exactly two columns.
Status ExtractRows(const Table& sales, std::vector<ShardRow>* rows);

/// The in-process shard: runs the SETM pipeline bodies (the same
/// JoinIntoRkPrime / FilterRkPrimeIntoRk / CountInto the serial loop uses)
/// over one SALES slice, reporting full local counts with min_count = 1.
/// This class is the execution path of every partitioned SETM mine
/// (SetmMiner with num_threads > 1) and the server-side implementation of
/// LCOUNT/MERGE, so in-process and remote shards cannot drift apart.
///
/// The slice comes from one of two sources, chosen before BeginRun:
///   - SetRows(rows): a fixed in-memory slice (SetmMiner's num_threads > 1
///     path and tests use this).
///   - BindTable(name): re-extracted from `db`'s catalog at every BeginRun,
///     so a long-lived backend sees rows appended between runs (the server
///     and file-shard members use this).
///
/// Scratch relations are named "<prefix>r1", "<prefix>r2p", ... — standalone
/// tables that never enter the catalog; kHeap scratch uses unlogged pages.
class LocalShardBackend : public ShardBackend {
 public:
  /// `db` is borrowed and must outlive the backend.
  LocalShardBackend(Database* db, std::string name,
                    std::string scratch_prefix = "");

  /// Fixes the slice directly. Rows need not be sorted.
  void SetRows(std::vector<ShardRow> rows);

  /// Binds the slice to a catalog table, re-read at every BeginRun.
  void BindTable(std::string table_name);

  const std::string& name() const override { return name_; }
  Status BeginRun(const ShardRunOptions& options) override;
  Result<ShardLocalCounts> CountIteration(size_t k) override;
  Result<ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override;
  Status EndRun() override;
  Result<ShardHealth> Health() override;

 private:
  void AddCount(const std::vector<ItemId>& items, int64_t count);

  Database* db_;
  std::string name_;
  std::string prefix_;
  std::string table_name_;
  bool bound_to_table_ = false;
  bool running_ = false;

  std::vector<ShardRow> rows_;      ///< pristine slice when SetRows-sourced
  std::vector<ShardRow> run_rows_;  ///< this run's slice, consumed by k=1
  ShardRunOptions run_;

  std::unique_ptr<Table> r1_;        ///< R_1 slice (filtered when asked)
  std::unique_ptr<Table> r_prev_;    ///< R_{k-1}; null means use r1
  std::unique_ptr<Table> rk_prime_;  ///< R'_k awaiting the global filter
  std::unordered_map<std::string, PatternCount> counts_;
};

}  // namespace setm::shard

#endif  // SETM_SHARD_LOCAL_BACKEND_H_
