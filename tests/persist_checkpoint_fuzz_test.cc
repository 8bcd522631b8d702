// Checkpoint-equivalence fuzz (same harness idioms as store_scan_fuzz_test.cc:
// balanced transfers + fresh-key inserts + full-window scan-sum invariants, randomized
// per seed). A database runs the workload with mid-run coordinator checkpoints, is shut
// down without any shutdown snapshot (the recovered state must come from mid-run
// checkpoint + segment replay), and a reopened database must reproduce the exact serial
// final state — every record value and the ordered-index scan view. Every engine with
// a write path takes the same barrier-time checkpoints, so each runs the fuzz.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "tests/persist_test_util.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::FreshDir;
using testing::IntAt;
using testing::RemoveDirRecursive;

constexpr std::uint64_t kTable = 5;
constexpr std::uint64_t kInitialKeys = 32;
constexpr std::int64_t kInitialValue = 1000;
constexpr int kTxns = 1200;

PartitionConfig TableConfig() {
  PartitionConfig cfg;
  cfg.shift = 4;  // dense ids: spread them over real stripes
  cfg.partitions = 16;
  return cfg;
}

Options MakeOptions(const std::string& dir, Protocol protocol) {
  Options o;
  o.protocol = protocol;
  o.num_workers = 4;
  o.phase_us = 1000;
  o.store_capacity = 1 << 12;
  o.wal_dir = dir.c_str();
  o.wal_flush_us = 500;
  // Several checkpoints land mid-run (first one immediately, then on this cadence).
  o.checkpoint_interval_us = 5000;
  return o;
}

void Populate(Database& db) {
  db.store().ConfigureTable(kTable, TableConfig());
  for (std::uint64_t i = 0; i < kInitialKeys; ++i) {
    db.store().LoadInt(Key::Table(kTable, i), kInitialValue);
  }
}

// Scans the whole table transactionally; returns (key -> value) in scan order.
std::vector<std::pair<std::uint64_t, std::int64_t>> ScanAll(Database& db) {
  std::vector<std::pair<std::uint64_t, std::int64_t>> out;
  const TxnResult res = db.Execute([&](Txn& txn) {
    out.clear();
    txn.Scan(kTable, 0, ~std::uint64_t{0} >> 1, 0,
             [&](const Key& k, const ReadResult& v) {
               out.emplace_back(k.lo, v.i);
               return true;
             });
  });
  DOPPEL_CHECK(res.committed);
  return out;
}

void RunSeed(Protocol protocol, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << ProtocolName(protocol) << " seed=" << seed);
  const std::string dir = FreshDir(
      ("ckptfuzz_" + std::string(ProtocolName(protocol)) + "_" + std::to_string(seed))
          .c_str());
  // Serial shadow model: transactions are submitted one at a time (Execute waits), so
  // the commit order equals the submission order and the model is exact.
  std::map<std::uint64_t, std::int64_t> model;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < kInitialKeys; ++i) {
    model[i] = kInitialValue;
    ids.push_back(i);
  }
  std::uint64_t next_id = 1 << 10;
  std::uint64_t checkpoints = 0;
  {
    Options o = MakeOptions(dir, protocol);
    Database db(o);
    Populate(db);
    db.Start();
    Rng rng(seed);
    for (int t = 0; t < kTxns; ++t) {
      const std::uint64_t pick = rng.NextBounded(100);
      if (pick < 60) {
        // Balanced transfer between two existing keys (sum invariant preserved).
        const std::uint64_t a = ids[rng.NextBounded(ids.size())];
        std::uint64_t b = ids[rng.NextBounded(ids.size())];
        if (a == b) {
          continue;
        }
        const std::int64_t x = static_cast<std::int64_t>(rng.NextBounded(10));
        ASSERT_TRUE(db.Execute([&](Txn& txn) {
                        txn.Add(Key::Table(kTable, a), -x);
                        txn.Add(Key::Table(kTable, b), x);
                      })
                        .committed);
        model[a] -= x;
        model[b] += x;
      } else if (pick < 85) {
        // Insert a fresh row (phantom source for concurrent scans; exercises index
        // rebuild on recovery).
        const std::uint64_t id = next_id++;
        const std::int64_t v = static_cast<std::int64_t>(rng.NextBounded(50));
        ASSERT_TRUE(
            db.Execute([&](Txn& txn) { txn.PutInt(Key::Table(kTable, id), v); })
                .committed);
        model[id] = v;
        ids.push_back(id);
      } else {
        // Scan-sum check against the shadow model mid-run.
        std::int64_t want = 0;
        for (const auto& [id, v] : model) {
          want += v;
        }
        const auto scanned = ScanAll(db);
        std::int64_t got = 0;
        for (const auto& [id, v] : scanned) {
          got += v;
        }
        ASSERT_EQ(got, want) << "live scan-sum diverged at txn " << t;
        ASSERT_EQ(scanned.size(), model.size());
      }
    }
    db.wal()->Flush();
    checkpoints = db.wal()->checkpoints_taken();
    db.Stop();  // flushes the tail; takes no shutdown checkpoint
  }
  ASSERT_GE(checkpoints, 1u) << "workload never hit a mid-run checkpoint";

  // Crash-and-recover equivalence: reopen and compare against the no-crash state.
  Options o2 = MakeOptions(dir, protocol);
  Database db2(o2);
  Populate(db2);  // same pre-population as the original run
  db2.Start();
  EXPECT_TRUE(db2.recovery().had_checkpoint);
  for (const auto& [id, v] : model) {
    ASSERT_EQ(IntAt(db2.store(), Key::Table(kTable, id)), v) << "key " << id;
  }
  const auto scanned = ScanAll(db2);
  ASSERT_EQ(scanned.size(), model.size());
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& [id, v] : scanned) {
    ASSERT_TRUE(first || id > prev) << "scan out of key order at " << id;
    first = false;
    prev = id;
    const auto it = model.find(id);
    ASSERT_TRUE(it != model.end()) << "scan surfaced unknown key " << id;
    ASSERT_EQ(v, it->second) << "key " << id;
  }
  db2.Stop();
  RemoveDirRecursive(dir);
}

class CheckpointFuzz : public ::testing::TestWithParam<Protocol> {};

TEST_P(CheckpointFuzz, RecoveryMatchesNoCrashRun) {
  const char* env = std::getenv("DOPPEL_FUZZ_SEED");
  if (env != nullptr) {
    RunSeed(GetParam(), std::strtoull(env, nullptr, 10));
    return;
  }
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    RunSeed(GetParam(), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, CheckpointFuzz,
                         ::testing::Values(Protocol::kDoppel, Protocol::kOcc,
                                           Protocol::kTwoPL),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(ProtocolName(info.param));
                         });

}  // namespace
}  // namespace doppel
