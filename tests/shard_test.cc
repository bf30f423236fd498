// The scale-out subsystem: shard manifest codec, LocalShardBackend slices,
// the two-phase distributed count coordinator, ShardedDatabase over file
// shards and RemoteShardBackend over live setm_served sessions. The core
// contract under test is bit-identity: any shard count, either scratch
// backing and either transport must reproduce single-node SETM exactly —
// itemsets, per-iteration cardinalities, everything but wall-clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/miner_registry.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "exec/worker_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "persist/shard_manifest.h"
#include "shard/coordinator.h"
#include "shard/local_backend.h"
#include "shard/remote_backend.h"
#include "shard/sharded_db.h"

namespace setm {
namespace {

using net::MiningServer;
using net::ServerOptions;
using shard::CoordinatorOptions;
using shard::DistributedMine;
using shard::LocalShardBackend;
using shard::RemoteShardBackend;
using shard::ShardBackend;
using shard::ShardedDatabase;
using shard::ShardRow;
using shard::ShardRunOptions;

TransactionDb QuestDb(uint64_t seed, uint32_t num_transactions = 200) {
  QuestOptions gen;
  gen.seed = seed;
  gen.num_transactions = num_transactions;
  gen.avg_transaction_size = 5;
  gen.num_items = 20;
  gen.num_patterns = 12;
  return QuestGenerator(gen).Generate();
}

/// Row-balanced split at transaction boundaries — the shardctl split rule.
std::vector<TransactionDb> SplitTxns(const TransactionDb& txns,
                                     size_t num_shards) {
  size_t total_rows = 0;
  for (const Transaction& t : txns) total_rows += t.items.size();
  std::vector<TransactionDb> slices(num_shards);
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t target = (total_rows + num_shards - 1) / num_shards;
    size_t rows = 0;
    while (begin < txns.size() && (rows < target || slices[shard].empty()) &&
           txns.size() - begin > num_shards - shard - 1) {
      rows += txns[begin].items.size();
      slices[shard].push_back(txns[begin]);
      ++begin;
    }
  }
  return slices;
}

std::vector<ShardRow> RowsOf(const TransactionDb& txns) {
  std::vector<ShardRow> rows;
  for (const Transaction& t : txns) {
    for (ItemId item : t.items) rows.push_back({t.id, item});
  }
  return rows;
}

Result<MiningResult> SingleNode(const TransactionDb& txns,
                                const MiningOptions& options,
                                const SetmOptions& knobs = {}) {
  Database db;
  auto miner = MinerRegistry::Create("setm", &db, knobs);
  if (!miner.ok()) return miner.status();
  MiningRequest request;
  request.transactions = &txns;
  request.options = options;
  return miner.value()->Mine(request);
}

/// Passes every call through to a LocalShardBackend and records whether
/// each broadcast C_k arrived sorted — the coordinator's promise that keeps
/// LCOUNT/MERGE payloads deterministic whatever order the merge ran in.
class CkOrderProbe : public ShardBackend {
 public:
  CkOrderProbe(Database* db, const std::string& name)
      : inner_(db, name, name + "_") {}

  const std::string& name() const override { return inner_.name(); }
  Status BeginRun(const ShardRunOptions& options) override {
    return inner_.BeginRun(options);
  }
  Result<shard::ShardLocalCounts> CountIteration(size_t k) override {
    return inner_.CountIteration(k);
  }
  Result<shard::ShardFilterStats> ApplyGlobalCk(
      size_t k, const std::vector<std::vector<ItemId>>& ck) override {
    ++broadcasts_;
    unsorted_ += std::is_sorted(ck.begin(), ck.end()) ? 0 : 1;
    return inner_.ApplyGlobalCk(k, ck);
  }
  Status EndRun() override { return inner_.EndRun(); }
  Result<shard::ShardHealth> Health() override { return inner_.Health(); }

  void SetRows(std::vector<ShardRow> rows) { inner_.SetRows(std::move(rows)); }
  size_t broadcasts() const { return broadcasts_; }
  size_t unsorted() const { return unsorted_; }

 private:
  LocalShardBackend inner_;
  size_t broadcasts_ = 0;
  size_t unsorted_ = 0;
};

/// Runs the coordinator over SetRows-sourced local backends, one per slice,
/// and checks that every C_k broadcast to them was sorted.
Result<MiningResult> MineSlices(Database* db,
                                const std::vector<TransactionDb>& slices,
                                const MiningOptions& options,
                                const ShardRunOptions& run,
                                WorkerPool* pool = nullptr) {
  std::vector<std::unique_ptr<CkOrderProbe>> owned;
  std::vector<ShardBackend*> backends;
  for (size_t i = 0; i < slices.size(); ++i) {
    auto backend = std::make_unique<CkOrderProbe>(db, "s" + std::to_string(i));
    backend->SetRows(RowsOf(slices[i]));
    backends.push_back(backend.get());
    owned.push_back(std::move(backend));
  }
  CoordinatorOptions coord;
  coord.run = run;
  coord.pool = pool;
  auto result = DistributedMine(backends, options, coord);
  for (const auto& probe : owned) {
    EXPECT_EQ(probe->unsorted(), 0u)
        << probe->name() << ": " << probe->unsorted() << " of "
        << probe->broadcasts() << " C_k broadcasts unsorted";
  }
  return result;
}

/// Everything but wall-clock and page counts must match: pages round up per
/// shard (partial last pages), so only the single-node run's sums are exact.
void ExpectSameIterations(const MiningResult& got, const MiningResult& want) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (size_t i = 0; i < want.iterations.size(); ++i) {
    const IterationStats& e = want.iterations[i];
    const IterationStats& r = got.iterations[i];
    EXPECT_EQ(r.k, e.k);
    EXPECT_EQ(r.r_prime_rows, e.r_prime_rows) << "k=" << e.k;
    EXPECT_EQ(r.r_rows, e.r_rows) << "k=" << e.k;
    EXPECT_EQ(r.r_bytes, e.r_bytes) << "k=" << e.k;
    EXPECT_EQ(r.c_size, e.c_size) << "k=" << e.k;
  }
}

// --------------------------------------------------------------------------
// Coordinator identity over in-process slices.
// --------------------------------------------------------------------------

/// Width of the coordinator's fan-out pool relative to the shard count.
/// The merge runs one task per shard bucket, so every width but the last
/// has more buckets than workers.
enum class PoolWidth { kNone, kOneWorker, kFewerThanShards, kOnePerShard };

class DistributedIdentityTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, size_t, TableBacking, PoolWidth>> {};

TEST_P(DistributedIdentityTest, BitIdenticalToSingleNode) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t num_shards = std::get<1>(GetParam());
  const TableBacking backing = std::get<2>(GetParam());
  const PoolWidth width = std::get<3>(GetParam());

  TransactionDb txns = QuestDb(seed);
  MiningOptions options;
  options.min_support = 0.04;

  SetmOptions knobs;
  knobs.storage = backing;
  auto expected = SingleNode(txns, options, knobs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Database db;
  std::unique_ptr<WorkerPool> pool;
  if (width == PoolWidth::kOneWorker) pool = std::make_unique<WorkerPool>(1);
  if (width == PoolWidth::kFewerThanShards) {
    pool = std::make_unique<WorkerPool>(num_shards - 1);
  }
  if (width == PoolWidth::kOnePerShard) {
    pool = std::make_unique<WorkerPool>(num_shards);
  }
  ShardRunOptions run;
  run.storage = backing;
  auto result = MineSlices(&db, SplitTxns(txns, num_shards), options, run,
                           pool.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets)
      << num_shards << " shards diverge: "
      << result.value().itemsets.TotalPatterns() << " vs "
      << expected.value().itemsets.TotalPatterns() << " patterns";
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedIdentityTest,
    testing::Combine(testing::Values(uint64_t{7}, uint64_t{21}),
                     testing::Values(size_t{2}, size_t{3}, size_t{5}),
                     testing::Values(TableBacking::kMemory,
                                     TableBacking::kHeap),
                     testing::Values(PoolWidth::kNone, PoolWidth::kOneWorker,
                                     PoolWidth::kFewerThanShards,
                                     PoolWidth::kOnePerShard)));

TEST(DistributedMineTest, HashCountingAndFilterR1MatchSingleNode) {
  TransactionDb txns = QuestDb(33);
  MiningOptions options;
  options.min_support = 0.05;
  options.filter_r1 = true;  // exercises the k == 1 ApplyGlobalCk path

  SetmOptions knobs;
  knobs.count_method = CountMethod::kHash;
  auto expected = SingleNode(txns, options, knobs);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Database db;
  ShardRunOptions run;
  run.count_method = CountMethod::kHash;
  auto result = MineSlices(&db, SplitTxns(txns, 3), options, run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  ExpectSameIterations(result.value(), expected.value());
}

TEST(DistributedMineTest, EmptyShardContributesNothing) {
  TransactionDb txns = QuestDb(5, 120);
  MiningOptions options;
  options.min_support = 0.05;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  std::vector<TransactionDb> slices = SplitTxns(txns, 2);
  slices.insert(slices.begin() + 1, TransactionDb{});  // middle shard empty

  Database db;
  auto result = MineSlices(&db, slices, options, ShardRunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());
}

TEST(DistributedMineTest, SkewedShardsStayExact) {
  TransactionDb txns = QuestDb(9, 150);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  // 90/10 split: one giant shard, one with a handful of transactions.
  std::vector<TransactionDb> slices(2);
  const size_t cut = txns.size() * 9 / 10;
  slices[0].assign(txns.begin(), txns.begin() + cut);
  slices[1].assign(txns.begin() + cut, txns.end());

  Database db;
  auto result = MineSlices(&db, slices, options, ShardRunOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  ExpectSameIterations(result.value(), expected.value());
}

TEST(DistributedMineTest, NoShardsIsInvalidArgument) {
  auto result = DistributedMine({}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Failure semantics: a down shard fails the run, named, with no partial
// result; cancellation passes through unprefixed.
// --------------------------------------------------------------------------

/// A shard whose disk "goes away" at a chosen point in the protocol.
class FailingBackend : public ShardBackend {
 public:
  enum class FailAt { kBegin, kCount };

  FailingBackend(std::string name, FailAt fail_at, size_t fail_k)
      : name_(std::move(name)), fail_at_(fail_at), fail_k_(fail_k) {}

  const std::string& name() const override { return name_; }

  Status BeginRun(const ShardRunOptions& options) override {
    if (fail_at_ == FailAt::kBegin) {
      return Status::IOError("shard file torn away");
    }
    return real_.BeginRun(options);
  }

  Result<shard::ShardLocalCounts> CountIteration(size_t k) override {
    if (fail_at_ == FailAt::kCount && k >= fail_k_) {
      return Status::IOError("read failed mid-count");
    }
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
  Database* db() { return &db_; }

 private:
  std::string name_;
  FailAt fail_at_;
  size_t fail_k_;
  Database db_;
  LocalShardBackend real_{&db_, "inner"};
};

TEST(DistributedMineTest, DownShardIsUnavailableNamingTheShard) {
  TransactionDb txns = QuestDb(3, 100);
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);

  for (FailingBackend::FailAt fail_at :
       {FailingBackend::FailAt::kBegin, FailingBackend::FailAt::kCount}) {
    Database db;
    LocalShardBackend healthy0(&db, "s0", "s0_");
    healthy0.SetRows(RowsOf(slices[0]));
    LocalShardBackend healthy1(&db, "s1", "s1_");
    healthy1.SetRows(RowsOf(slices[1]));
    FailingBackend bad("flaky-shard", fail_at, 2);
    bad.SetRows(RowsOf(slices[2]));

    MiningOptions options;
    options.min_support = 0.04;
    auto result = DistributedMine({&healthy0, &healthy1, &bad}, options,
                                  CoordinatorOptions{});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsUnavailable())
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("shard 'flaky-shard'"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(DistributedMineTest, NonTransportErrorKeepsItsCode) {
  // Unknown table on a bound backend is NotFound, not a transport failure:
  // the coordinator must keep the code, naming the shard.
  Database db;
  LocalShardBackend backend(&db, "s0", "s0_");
  backend.BindTable("nosuch");
  auto result =
      DistributedMine({&backend}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard 's0'"), std::string::npos);
}

/// Counts iterations and vetoes at a chosen k.
class CancelAt : public MiningObserver {
 public:
  explicit CancelAt(size_t k) : cancel_k_(k) {}
  bool OnIteration(const IterationStats& stats) override {
    max_k_seen_ = stats.k;
    return stats.k < cancel_k_;
  }
  size_t max_k_seen() const { return max_k_seen_; }

 private:
  size_t cancel_k_;
  size_t max_k_seen_ = 0;
};

TEST(DistributedMineTest, CancellationStopsWithinOneIteration) {
  TransactionDb txns = QuestDb(17);
  Database db;
  CancelAt observer(2);
  MiningOptions options;
  options.min_support = 0.02;
  options.observer = &observer;
  auto result =
      MineSlices(&db, SplitTxns(txns, 3), options, ShardRunOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // Unprefixed: cancellation is the caller's veto, not a shard failure.
  EXPECT_EQ(result.status().message().find("shard '"), std::string::npos);
  EXPECT_EQ(observer.max_k_seen(), 2u);  // nothing ran past the veto
}

// --------------------------------------------------------------------------
// ShardedDatabase over file shards.
// --------------------------------------------------------------------------

struct TempDir {
  TempDir() {
    path = testing::TempDir() + "shard_test_XXXXXX";
    EXPECT_NE(mkdtemp(path.data()), nullptr);
  }
  ~TempDir() {
    // Tests create a bounded, known set of files; remove then rmdir.
    for (const std::string& f : files) ::remove(f.c_str());
    ::remove(path.c_str());
  }
  std::string File(const std::string& name) {
    files.push_back(path + "/" + name);
    files.push_back(path + "/" + name + ".wal");
    return path + "/" + name;
  }
  std::string path;
  std::vector<std::string> files;
};

TEST(ShardedDatabaseTest, FileShardsMatchSingleNode) {
  TransactionDb txns = QuestDb(41);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  TempDir dir;
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);
  ShardManifest manifest;
  for (size_t i = 0; i < slices.size(); ++i) {
    ShardMember member;
    member.id = static_cast<uint32_t>(i);
    member.kind = ShardMember::Kind::kFile;
    member.path = dir.File("s" + std::to_string(i) + ".db");
    {
      DatabaseOptions db_options;
      db_options.file_path = member.path;
      auto db_or = Database::Open(std::move(db_options));
      ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
      auto sales = LoadSalesTable(db_or.value().get(), "sales", slices[i],
                                  TableBacking::kHeap);
      ASSERT_TRUE(sales.ok()) << sales.status().ToString();
      ASSERT_TRUE(db_or.value()->Close().ok());
    }
    manifest.members.push_back(std::move(member));
  }

  auto sharded_or = ShardedDatabase::Open(manifest);
  ASSERT_TRUE(sharded_or.ok()) << sharded_or.status().ToString();
  ShardedDatabase& sharded = *sharded_or.value();

  auto result = sharded.Mine(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().itemsets == expected.value().itemsets);
  EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
  ExpectSameIterations(result.value(), expected.value());

  // A second run on the same handle must be identical too (scratch cleanup).
  auto again = sharded.Mine(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().itemsets == expected.value().itemsets);

  for (const auto& member : sharded.Health()) {
    EXPECT_TRUE(member.health.reachable) << member.name;
    EXPECT_GT(member.health.transactions, 0u) << member.name;
  }
  EXPECT_TRUE(sharded.Close().ok());
}

TEST(ShardedDatabaseTest, MissingShardFileFailsOpenNamingTheShard) {
  TempDir dir;
  ShardManifest manifest;
  ShardMember member;
  member.id = 4;
  member.path = dir.path + "/enoent/nope.db";
  manifest.members.push_back(member);
  auto sharded_or = ShardedDatabase::Open(manifest);
  ASSERT_FALSE(sharded_or.ok());
  EXPECT_NE(sharded_or.status().message().find("shard 's4'"),
            std::string::npos)
      << sharded_or.status().ToString();
}

// --------------------------------------------------------------------------
// RemoteShardBackend against live server sessions.
// --------------------------------------------------------------------------

TEST(RemoteShardTest, SocketShardsMatchSingleNode) {
  TransactionDb txns = QuestDb(55);
  MiningOptions options;
  options.min_support = 0.04;
  auto expected = SingleNode(txns, options);
  ASSERT_TRUE(expected.ok());

  // One server database hosting all three slices as separate tables; each
  // backend gets its own connection, hence its own server-side shard run.
  Database db;
  std::vector<TransactionDb> slices = SplitTxns(txns, 3);
  for (size_t i = 0; i < slices.size(); ++i) {
    auto sales = LoadSalesTable(&db, "shard" + std::to_string(i), slices[i],
                                TableBacking::kMemory);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  }
  ServerOptions server_options;
  server_options.port = 0;
  server_options.store_prefix = "";
  auto server_or = MiningServer::Create(&db, std::move(server_options));
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  ASSERT_TRUE(server_or.value()->Start().ok());
  MiningServer& server = *server_or.value();

  for (CountMethod method : {CountMethod::kSortMerge, CountMethod::kHash}) {
    std::vector<std::unique_ptr<RemoteShardBackend>> owned;
    std::vector<ShardBackend*> backends;
    for (size_t i = 0; i < slices.size(); ++i) {
      owned.push_back(std::make_unique<RemoteShardBackend>(
          "127.0.0.1", server.port(), "shard" + std::to_string(i)));
      backends.push_back(owned.back().get());
    }
    WorkerPool pool(backends.size());
    CoordinatorOptions coord;
    coord.run.count_method = method;
    coord.pool = &pool;
    auto result = DistributedMine(backends, options, coord);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().itemsets == expected.value().itemsets)
        << "method=" << (method == CountMethod::kHash ? "hash" : "sortmerge");
    EXPECT_EQ(result.value().itemsets.num_transactions, txns.size());
    ExpectSameIterations(result.value(), expected.value());
  }
  EXPECT_TRUE(server.Stop().ok());
}

TEST(RemoteShardTest, DeadEndpointIsUnavailableBeforeAnyCounting) {
  // Bind an ephemeral port, then shut the server down: the port is known
  // dead, so the eager connect in BeginRun must fail the whole run.
  Database db;
  auto sales =
      LoadSalesTable(&db, "sales", QuestDb(2, 20), TableBacking::kMemory);
  ASSERT_TRUE(sales.ok());
  ServerOptions server_options;
  server_options.port = 0;
  server_options.store_prefix = "";
  auto server_or = MiningServer::Create(&db, std::move(server_options));
  ASSERT_TRUE(server_or.ok());
  ASSERT_TRUE(server_or.value()->Start().ok());
  const uint16_t dead_port = server_or.value()->port();
  ASSERT_TRUE(server_or.value()->Stop().ok());

  RemoteShardBackend backend("127.0.0.1", dead_port, "sales", "s-gone");
  auto result =
      DistributedMine({&backend}, MiningOptions{}, CoordinatorOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("shard 's-gone'"),
            std::string::npos)
      << result.status().ToString();
}

// --------------------------------------------------------------------------
// Shard manifest codec.
// --------------------------------------------------------------------------

TEST(ShardManifestTest, SerializeParseRoundTrip) {
  ShardManifest manifest;
  manifest.epoch = 7;
  ShardMember file;
  file.id = 0;
  file.kind = ShardMember::Kind::kFile;
  file.path = "/data/s0.db";
  file.table = "sales";
  file.has_range = true;
  file.tid_min = 0;
  file.tid_max = 333;
  ShardMember remote;
  remote.id = 2;
  remote.kind = ShardMember::Kind::kRemote;
  remote.host = "10.0.0.8";
  remote.port = 7001;
  remote.table = "tx";
  manifest.members = {file, remote};

  auto parsed_or = ShardManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  const ShardManifest& parsed = parsed_or.value();
  EXPECT_EQ(parsed.epoch, 7u);
  ASSERT_EQ(parsed.members.size(), 2u);
  EXPECT_EQ(parsed.members[0].id, 0u);
  EXPECT_EQ(parsed.members[0].kind, ShardMember::Kind::kFile);
  EXPECT_EQ(parsed.members[0].path, "/data/s0.db");
  EXPECT_TRUE(parsed.members[0].has_range);
  EXPECT_EQ(parsed.members[0].tid_min, 0);
  EXPECT_EQ(parsed.members[0].tid_max, 333);
  EXPECT_EQ(parsed.members[1].kind, ShardMember::Kind::kRemote);
  EXPECT_EQ(parsed.members[1].host, "10.0.0.8");
  EXPECT_EQ(parsed.members[1].port, 7001);
  EXPECT_EQ(parsed.members[1].table, "tx");
}

TEST(ShardManifestTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                               // no header
      "setm-shards v2\nepoch 1\nshards 0\n",            // unknown version
      "setm-shards v1\nepoch 0\nshards 0\n",            // epoch must be >= 1
      "setm-shards v1\nepoch 1\nshards 2\n"
      "shard 0 file /a.db\nshard 0 file /b.db\n",       // duplicate id
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 tape /a\n",                              // unknown kind
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 remote nocolonhere\n",                   // endpoint sans port
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 remote h:99999\n",                       // port out of range
      "setm-shards v1\nepoch 1\nshards 1\n"
      "shard 0 file /a.db tids 5\n",                    // half a range
  };
  for (const char* text : bad) {
    auto parsed = ShardManifest::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument())
          << parsed.status().ToString();
    }
  }
}

TEST(ShardManifestTest, DeclaredCountMismatchIsCorruption) {
  auto parsed = ShardManifest::Parse(
      "setm-shards v1\nepoch 1\nshards 2\nshard 0 file /a.db\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();
}

TEST(ShardManifestTest, SaveLoadAndMissingFile) {
  TempDir dir;
  ShardManifest manifest;
  manifest.epoch = 3;
  ShardMember member;
  member.id = 1;
  member.path = "/data/only.db";
  manifest.members.push_back(member);

  const std::string path = dir.path + "/shards.manifest";
  dir.files.push_back(path);
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = ShardManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 3u);
  ASSERT_EQ(loaded.value().members.size(), 1u);
  EXPECT_EQ(loaded.value().members[0].path, "/data/only.db");

  auto missing = ShardManifest::Load(dir.path + "/does-not-exist");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIOError()) << missing.status().ToString();
}

// --------------------------------------------------------------------------
// Registry wiring: the equivalence suite sweeps these automatically; here we
// only pin the metadata that drives that sweep.
// --------------------------------------------------------------------------

TEST(ShardRegistryTest, ShardedMinerAndParallelAprioriAreRegistered) {
  bool saw_sharded = false;
  bool saw_parallel_apriori = false;
  for (const MinerInfo& info : MinerRegistry::List()) {
    if (info.name == "setm-sharded") {
      saw_sharded = true;
      EXPECT_TRUE(info.honors_storage);
      EXPECT_TRUE(info.honors_count_method);
      EXPECT_TRUE(info.honors_threads);
    }
    if (info.name == "apriori-parallel") {
      saw_parallel_apriori = true;
      EXPECT_TRUE(info.honors_threads);
    }
  }
  EXPECT_TRUE(saw_sharded);
  EXPECT_TRUE(saw_parallel_apriori);
}

}  // namespace
}  // namespace setm
