// Kill-the-process durability: a child process runs a logged workload, confirms a
// durability point after each explicit group-commit flush, then dies abruptly
// (_exit: no Stop, no destructors, no final flush — the in-memory buffer tail is
// lost, exactly like a crash). The parent reopens a Database on the same persistence
// directory and asserts that recovery (checkpoint + parallel segment replay)
// reproduces every confirmed-flushed transaction, with ordered-index scans consistent
// and TID clocks seeded for the next generation.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/workload/incr.h"
#include "tests/persist_test_util.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::FreshDir;
using testing::IntAt;
using testing::ReadFileBytes;
using testing::RemoveDirRecursive;
using testing::WriteFileBytes;

constexpr std::uint64_t kCounters = 8;    // INCR-style counters, table 0
constexpr std::uint64_t kRowTable = 9;    // ordered rows, scanned after recovery
constexpr std::uint64_t kChurnTable = 10; // insert+delete churn: one live row at a time
constexpr int kFlushRounds = 10;
constexpr int kTxnsPerRound = 40;
constexpr int kUnflushedTail = 37;  // committed after the last confirmed flush

PartitionConfig RowTableConfig() {
  PartitionConfig cfg;
  cfg.shift = 6;  // rows are dense small ids; default bit-40 would collapse to stripe 0
  cfg.partitions = 16;
  return cfg;
}

Options MakeOptions(const std::string& dir, Protocol proto) {
  Options o;
  o.protocol = proto;
  o.num_workers = 2;
  o.phase_us = 2000;
  o.store_capacity = 1 << 12;
  o.wal_dir = dir.c_str();
  // Long flusher interval: durability points come (almost) only from the child's
  // explicit Flush calls, so the unflushed tail genuinely can be lost.
  o.wal_flush_us = 500000;
  return o;
}

void Populate(Database& db) {
  PopulateIncr(db.store(), kCounters);
  db.store().ConfigureTable(kRowTable, RowTableConfig());
  db.store().ConfigureTable(kChurnTable, RowTableConfig());
}

// Child body. Uses DOPPEL_CHECK (abort -> parent sees a signal) instead of gtest
// asserts, which do not work across fork.
void CrashingChild(const std::string& dir, const std::string& progress_path,
                   Protocol proto) {
  Options o = MakeOptions(dir, proto);
  Database db(o);
  Populate(db);
  db.Start();
  std::uint64_t flushed = 0;
  for (int round = 0; round < kFlushRounds; ++round) {
    for (int i = 0; i < kTxnsPerRound; ++i) {
      const std::uint64_t id =
          static_cast<std::uint64_t>(round) * kTxnsPerRound + static_cast<std::uint64_t>(i);
      const TxnResult res = db.Execute([id](Txn& txn) {
        txn.Add(IncrKey(id % kCounters), 1);
        txn.PutInt(Key::Table(kRowTable, id), static_cast<std::int64_t>(id));
        // Delete churn: each transaction inserts its own churn row and deletes its
        // predecessor's, so at every commit boundary exactly one churn row is live.
        txn.PutInt(Key::Table(kChurnTable, id), static_cast<std::int64_t>(id));
        if (id > 0) {
          txn.Delete(Key::Table(kChurnTable, id - 1));
        }
      });
      DOPPEL_CHECK(res.committed);
    }
    db.wal()->Flush();
    flushed += kTxnsPerRound;
    // Confirm the durability point: progress file updated only after the flush, via
    // atomic rename so the parent never reads a torn count.
    WriteFileBytes(progress_path + ".tmp", std::to_string(flushed));
    DOPPEL_CHECK(std::rename((progress_path + ".tmp").c_str(),
                             progress_path.c_str()) == 0);
  }
  // Post-flush tail: committed but never explicitly flushed. May or may not survive
  // (the background flusher could fire); recovery must contain [0, flushed) exactly
  // and at most this much more.
  for (int i = 0; i < kUnflushedTail; ++i) {
    const TxnResult res = db.Execute([i](Txn& txn) {
      txn.Add(IncrKey(static_cast<std::uint64_t>(i) % kCounters), 1);
    });
    DOPPEL_CHECK(res.committed);
  }
  ::_exit(0);  // crash: threads die mid-flight, nothing else reaches disk
}

class KillProcessDurability : public ::testing::TestWithParam<Protocol> {};

INSTANTIATE_TEST_SUITE_P(Protocols, KillProcessDurability,
                         ::testing::Values(Protocol::kOcc, Protocol::kDoppel),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return ProtocolName(info.param);
                         });

TEST_P(KillProcessDurability, RecoversEveryConfirmedFlush) {
  const std::string dir = FreshDir(ProtocolName(GetParam()));
  const std::string progress_path = dir + ".progress";
  std::remove(progress_path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CrashingChild(dir, progress_path, GetParam());  // never returns
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child crashed before its planned _exit";

  const std::uint64_t confirmed = std::strtoull(
      ReadFileBytes(progress_path).c_str(), nullptr, 10);
  ASSERT_EQ(confirmed, static_cast<std::uint64_t>(kFlushRounds * kTxnsPerRound));

  // Reopen. Start() recovers: checkpoint (if the coordinator took one) plus
  // segment replay, rebuilt ordered index, seeded TID clocks.
  Options o = MakeOptions(dir, GetParam());
  Database db(o);
  Populate(db);
  db.Start();

  // Every confirmed-flushed transaction must be present in the recovered state.
  std::int64_t counter_sum = 0;
  for (std::uint64_t i = 0; i < kCounters; ++i) {
    counter_sum += IntAt(db.store(), IncrKey(i));
  }
  EXPECT_GE(counter_sum, static_cast<std::int64_t>(confirmed));
  EXPECT_LE(counter_sum, static_cast<std::int64_t>(confirmed) + kUnflushedTail);
  for (std::uint64_t id = 0; id < confirmed; ++id) {
    EXPECT_EQ(IntAt(db.store(), Key::Table(kRowTable, id)),
              static_cast<std::int64_t>(id))
        << "flushed row " << id << " lost";
  }

  // Ordered-index consistency: a transactional scan sees every recovered row, in key
  // order, with matching values.
  std::vector<std::uint64_t> scanned;
  bool ordered = true;
  bool values_match = true;
  const TxnResult scan_res = db.Execute([&](Txn& txn) {
    scanned.clear();
    ordered = values_match = true;
    txn.Scan(kRowTable, 0, ~std::uint64_t{0} >> 1, 0,
             [&](const Key& k, const ReadResult& v) {
               if (!scanned.empty() && scanned.back() >= k.lo) {
                 ordered = false;
               }
               if (v.i != static_cast<std::int64_t>(k.lo)) {
                 values_match = false;
               }
               scanned.push_back(k.lo);
               return true;
             });
  });
  EXPECT_TRUE(scan_res.committed);
  EXPECT_GE(scanned.size(), static_cast<std::size_t>(confirmed));
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(values_match);

  // Delete churn: every confirmed transaction deleted its predecessor's churn row
  // (and the unflushed tail wrote none), so of the confirmed prefix only the newest
  // row survives recovery. Deleted keys must be invisible to point reads and to the
  // rebuilt ordered index alike.
  EXPECT_EQ(IntAt(db.store(), Key::Table(kChurnTable, confirmed - 1)),
            static_cast<std::int64_t>(confirmed - 1));
  for (std::uint64_t id = 0; id + 1 < confirmed; ++id) {
    const Record* r = db.store().Find(Key::Table(kChurnTable, id));
    EXPECT_TRUE(r == nullptr || !r->ReadValue().present)
        << "deleted churn row " << id << " resurrected by recovery";
  }
  std::size_t churn_rows = 0;
  EXPECT_TRUE(db.Execute([&](Txn& txn) {
                  churn_rows =
                      txn.Scan(kChurnTable, 0, ~std::uint64_t{0} >> 1, 0,
                               [](const Key&, const ReadResult&) { return true; });
                }).committed);
  EXPECT_EQ(churn_rows, 1u);
  if (!db.recovery().had_checkpoint) {
    // Full log replay recreated every churn row before deleting it again; the
    // end-of-recovery sweep must have freed the deleted ones instead of leaking them.
    EXPECT_GE(db.recovery().reclaimed_records, confirmed - 1);
  }

  // The reopened generation stays writable and its TIDs sort after recovery.
  const std::uint64_t max_recovered = db.recovery().max_tid;
  ASSERT_GT(max_recovered, 0u);
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Add(IncrKey(0), 1); }).committed);
  EXPECT_GT(Record::TidOf(db.store().Find(IncrKey(0))->LoadTidWord()), max_recovered);
  db.Stop();

  std::remove(progress_path.c_str());
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace doppel
