// setm_shardctl — operator CLI for multi-shard databases.
//
//   setm_shardctl split --input FILE.csv --shards N --out DIR
//                 [--table NAME] [--manifest FILE]
//   setm_shardctl mine  --manifest FILE [--minsup PCT] [--minconf PCT]
//                 [--method sortmerge|hash] [--rules single|subsets]
//                 [--max-k N] [--format text|csv] [--stats]
//   setm_shardctl stats --manifest FILE
//
// `split` partitions a (trans_id,item) CSV into N ordinary database files —
// each a normal format-v3 file with its own WAL, openable by setm_mine or
// served by setm_served — balanced by row count but never splitting a
// transaction across shards, and writes the shard manifest
// (persist/shard_manifest.h) recording members, tid ranges and the epoch.
//
// `mine` opens every member listed in the manifest (local files in-process,
// remote members over LCOUNT/MERGE) and runs the two-phase distributed
// count. The answer is bit-identical to single-node SETM over the union of
// the shards; with --format csv the rules are byte-identical to
// `setm_mine --format csv` on the unsplit CSV.
//
// `stats` probes every member (remote members answer a PING) and prints one
// health line per shard.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/rules.h"
#include "core/setm.h"
#include "datagen/transaction_io.h"
#include "net/protocol.h"
#include "persist/shard_manifest.h"
#include "shard/sharded_db.h"

namespace {

using namespace setm;

volatile std::sig_atomic_t g_interrupted = 0;

void HandleInterrupt(int) { g_interrupted = 1; }

class InterruptObserver : public MiningObserver {
 public:
  bool OnIteration(const IterationStats&) override {
    return g_interrupted == 0;
  }
};

struct Args {
  std::string command;
  std::string input;
  std::string out_dir;
  std::string manifest;
  std::string table = "sales";
  std::string method = "sortmerge";
  std::string rules = "single";
  std::string format = "text";
  size_t shards = 0;
  size_t max_k = 0;
  double minsup_pct = 1.0;
  double minconf_pct = 50.0;
  bool stats = false;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s split --input FILE.csv --shards N --out DIR\n"
      "               [--table NAME] [--manifest FILE]\n"
      "       %s mine  --manifest FILE [--minsup PCT] [--minconf PCT]\n"
      "               [--method sortmerge|hash] [--rules single|subsets]\n"
      "               [--max-k N] [--format text|csv] [--stats]\n"
      "       %s stats --manifest FILE\n",
      argv0, argv0, argv0);
}

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--input") == 0) {
      if ((v = need_value("--input")) == nullptr) return false;
      out->input = v;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if ((v = need_value("--shards")) == nullptr) return false;
      long n = std::atol(v);
      if (n < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return false;
      }
      out->shards = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if ((v = need_value("--out")) == nullptr) return false;
      out->out_dir = v;
    } else if (std::strcmp(argv[i], "--manifest") == 0) {
      if ((v = need_value("--manifest")) == nullptr) return false;
      out->manifest = v;
    } else if (std::strcmp(argv[i], "--table") == 0) {
      if ((v = need_value("--table")) == nullptr) return false;
      out->table = v;
    } else if (std::strcmp(argv[i], "--method") == 0) {
      if ((v = need_value("--method")) == nullptr) return false;
      out->method = v;
      if (out->method != "sortmerge" && out->method != "hash") {
        std::fprintf(stderr, "--method must be sortmerge or hash\n");
        return false;
      }
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      if ((v = need_value("--rules")) == nullptr) return false;
      out->rules = v;
    } else if (std::strcmp(argv[i], "--format") == 0) {
      if ((v = need_value("--format")) == nullptr) return false;
      out->format = v;
    } else if (std::strcmp(argv[i], "--max-k") == 0) {
      if ((v = need_value("--max-k")) == nullptr) return false;
      out->max_k = static_cast<size_t>(std::atol(v));
    } else if (std::strcmp(argv[i], "--minsup") == 0) {
      if ((v = need_value("--minsup")) == nullptr) return false;
      out->minsup_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--minconf") == 0) {
      if ((v = need_value("--minconf")) == nullptr) return false;
      out->minconf_pct = std::atof(v);
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      out->stats = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  if (out->command == "split") {
    if (out->input.empty() || out->shards == 0 || out->out_dir.empty()) {
      std::fprintf(stderr, "split requires --input, --shards and --out\n");
      return false;
    }
    if (out->manifest.empty()) {
      out->manifest = out->out_dir + "/shards.manifest";
    }
    return true;
  }
  if (out->command == "mine" || out->command == "stats") {
    if (out->manifest.empty()) {
      std::fprintf(stderr, "%s requires --manifest\n", out->command.c_str());
      return false;
    }
    return true;
  }
  std::fprintf(stderr, "unknown command '%s'\n", out->command.c_str());
  return false;
}

int RunSplit(const Args& args) {
  auto txns_or = LoadTransactionsCsv(args.input);
  if (!txns_or.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", args.input.c_str(),
                 txns_or.status().ToString().c_str());
    return 1;
  }
  const TransactionDb& txns = txns_or.value();
  if (txns.empty()) {
    std::fprintf(stderr, "%s holds no transactions\n", args.input.c_str());
    return 1;
  }
  ::mkdir(args.out_dir.c_str(), 0775);

  size_t total_rows = 0;
  for (const Transaction& txn : txns) total_rows += txn.items.size();

  // Balanced by row count, cut only at transaction boundaries — the same
  // invariant threaded in-process mines rely on: support is
  // exact because a transaction's rows never straddle shards.
  const size_t num_shards = std::min(args.shards, txns.size());
  if (num_shards < args.shards) {
    std::fprintf(stderr,
                 "only %zu transactions; creating %zu shards instead of %zu\n",
                 txns.size(), num_shards, args.shards);
  }
  const size_t target = (total_rows + num_shards - 1) / num_shards;

  ShardManifest manifest;
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    TransactionDb slice;
    size_t rows = 0;
    // Leave one transaction for each remaining shard.
    while (begin < txns.size() &&
           (rows < target || slice.empty()) &&
           txns.size() - begin > num_shards - shard - 1) {
      rows += txns[begin].items.size();
      slice.push_back(txns[begin]);
      ++begin;
    }

    const std::string path =
        args.out_dir + "/shard" + std::to_string(shard) + ".db";
    ::unlink(path.c_str());
    ::unlink((path + ".wal").c_str());
    DatabaseOptions db_options;
    db_options.file_path = path;
    auto db_or = Database::Open(std::move(db_options));
    if (!db_or.ok()) {
      std::fprintf(stderr, "cannot create %s: %s\n", path.c_str(),
                   db_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Database> db = std::move(db_or).value();
    auto loaded = LoadSalesTable(db.get(), args.table, slice,
                                 TableBacking::kHeap);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    Status closed = db->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "closing %s failed: %s\n", path.c_str(),
                   closed.ToString().c_str());
      return 1;
    }

    ShardMember member;
    member.id = static_cast<uint32_t>(shard);
    member.kind = ShardMember::Kind::kFile;
    member.path = path;
    member.table = args.table;
    if (!slice.empty()) {
      member.has_range = true;
      member.tid_min = slice.front().id;
      member.tid_max = slice.back().id;
    }
    manifest.members.push_back(member);
    std::printf("shard %zu: %s  %zu transactions, %zu rows\n", shard,
                path.c_str(), slice.size(), rows);
  }

  Status saved = manifest.Save(args.manifest);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", args.manifest.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("manifest: %s  (%zu shards, %zu transactions, %zu rows)\n",
              args.manifest.c_str(), num_shards, txns.size(), total_rows);
  return 0;
}

Result<std::unique_ptr<shard::ShardedDatabase>> OpenFromManifest(
    const Args& args) {
  auto manifest_or = ShardManifest::Load(args.manifest);
  if (!manifest_or.ok()) return manifest_or.status();
  shard::ShardedDatabaseOptions options;
  options.run.count_method = args.method == "hash" ? CountMethod::kHash
                                                   : CountMethod::kSortMerge;
  return shard::ShardedDatabase::Open(std::move(manifest_or).value(),
                                      std::move(options));
}

int RunMine(const Args& args) {
  auto db_or = OpenFromManifest(args);
  if (!db_or.ok()) {
    std::fprintf(stderr, "cannot open sharded database: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<shard::ShardedDatabase> db = std::move(db_or).value();

  MiningOptions options;
  options.min_support = args.minsup_pct / 100.0;
  options.min_confidence = args.minconf_pct / 100.0;
  options.max_pattern_length = args.max_k;
  InterruptObserver observer;
  options.observer = &observer;

  auto result_or = db->Mine(options);
  if (!result_or.ok()) {
    std::fprintf(stderr, "distributed mine failed: %s\n",
                 result_or.status().ToString().c_str());
    return result_or.status().IsCancelled() && g_interrupted != 0 ? 130 : 1;
  }
  const MiningResult& result = result_or.value();

  const RuleMode mode = args.rules == "subsets" ? RuleMode::kAnySubset
                                                : RuleMode::kSingleConsequent;
  auto rules_or = GenerateRules(result.itemsets, options, mode);
  if (!rules_or.ok()) {
    std::fprintf(stderr, "rule generation failed: %s\n",
                 rules_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<AssociationRule>& rules = rules_or.value();

  if (args.format == "csv") {
    // The same renderer setm_mine and the server's RULES verb use: the
    // distributed answer diffs byte-for-byte against the single-node one.
    const std::string csv = FormatRulesCsv(rules);
    std::fwrite(csv.data(), 1, csv.size(), stdout);
  } else {
    std::printf("%llu transactions, %zu frequent patterns, %zu rules "
                "(%zu shards, minsup %.2f%%, minconf %.0f%%)\n",
                static_cast<unsigned long long>(
                    result.itemsets.num_transactions),
                result.itemsets.TotalPatterns(), rules.size(),
                db->backends().size(), args.minsup_pct, args.minconf_pct);
    for (const AssociationRule& r : rules) {
      std::printf("%s  (lift %.2f)\n", FormatRule(r).c_str(), r.lift);
    }
  }

  if (args.stats) {
    std::fprintf(stderr, "\niterations:\n");
    for (const IterationStats& it : result.iterations) {
      std::fprintf(stderr,
                   "  k=%zu |R'|=%llu |R|=%llu |C|=%llu  %.3f ms\n", it.k,
                   static_cast<unsigned long long>(it.r_prime_rows),
                   static_cast<unsigned long long>(it.r_rows),
                   static_cast<unsigned long long>(it.c_size),
                   it.seconds * 1000.0);
    }
    std::fprintf(stderr, "total: %.3f s\n", result.total_seconds);
  }

  Status closed = db->Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "closing sharded database failed: %s\n",
                 closed.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunStats(const Args& args) {
  auto db_or = OpenFromManifest(args);
  if (!db_or.ok()) {
    std::fprintf(stderr, "cannot open sharded database: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<shard::ShardedDatabase> db = std::move(db_or).value();
  std::printf("epoch %llu, %zu shards\n",
              static_cast<unsigned long long>(db->manifest().epoch),
              db->manifest().members.size());
  bool all_reachable = true;
  for (const shard::ShardMemberHealth& member : db->Health()) {
    all_reachable = all_reachable && member.health.reachable;
    std::printf("shard %u %s reachable=%s transactions=%llu rows=%llu "
                "bytes=%llu\n",
                member.id, member.name.c_str(),
                member.health.reachable ? "yes" : "no",
                static_cast<unsigned long long>(member.health.transactions),
                static_cast<unsigned long long>(member.health.sales_rows),
                static_cast<unsigned long long>(member.health.sales_bytes));
  }
  return all_reachable ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleInterrupt;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  if (args.command == "split") return RunSplit(args);
  if (args.command == "mine") return RunMine(args);
  return RunStats(args);
}
