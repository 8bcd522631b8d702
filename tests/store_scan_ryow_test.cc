// Read-your-own-writes for Txn::Scan, per engine: a transaction's own not-yet-committed
// inserts (writes to records absent from the index) must appear in its scan results, in
// key order, interleaved with committed rows — the gap documented after PR 2.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "src/core/doppel_engine.h"
#include "src/txn/atomic_engine.h"
#include "src/txn/occ_engine.h"
#include "src/txn/twopl_engine.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::EngineHarness;
using testing::IntAt;

constexpr std::uint64_t kTable = 4;

class ScanRyowTest : public ::testing::Test {
 protected:
  void UseOcc() {
    h_.engine = std::make_unique<OccEngine>(h_.store);
    h_.MakeWorkers(2);
  }
  void UseTwoPL() {
    TwoPLEngine::Limits limits;
    limits.shared_spin = 1 << 10;
    limits.exclusive_spin = 1 << 10;
    limits.upgrade_spin = 1 << 10;
    h_.engine = std::make_unique<TwoPLEngine>(h_.store, limits);
    h_.MakeWorkers(2);
  }
  void UseDoppel() {
    // No coordinator: the worker stays in the joined phase, where Doppel scans are OCC
    // scans — this covers the DoppelEngine::Scan entry point.
    h_.engine = std::make_unique<DoppelEngine>(h_.store, opts_);
    h_.MakeWorkers(2);
    static_cast<DoppelEngine&>(*h_.engine).RegisterWorkers(h_.workers);
  }
  void UseAtomic() {
    h_.engine = std::make_unique<AtomicEngine>(h_.store);
    h_.MakeWorkers(2);
  }

  // Committed rows 10/20/30 with values 1/2/3.
  void PopulateRows() {
    h_.store.LoadInt(Key::Table(kTable, 10), 1);
    h_.store.LoadInt(Key::Table(kTable, 20), 2);
    h_.store.LoadInt(Key::Table(kTable, 30), 3);
  }

  // The shared scenario: buffered inserts before, between, and after the committed keys
  // must merge into one ascending stream, observable before AND after commit.
  void RunMergedInsertScenario() {
    PopulateRows();
    std::vector<std::uint64_t> keys;
    std::vector<std::int64_t> vals;
    h_.MustCommit(*h_.workers[0], [&](Txn& t) {
      keys.clear();
      vals.clear();
      t.PutInt(Key::Table(kTable, 5), 50);
      t.PutInt(Key::Table(kTable, 25), 250);
      t.PutInt(Key::Table(kTable, 35), 350);
      const std::size_t n =
          t.Scan(kTable, 0, 100, 0, [&](const Key& k, const ReadResult& v) {
            keys.push_back(k.lo);
            vals.push_back(v.i);
            return true;
          });
      EXPECT_EQ(n, 6u);
    });
    ASSERT_EQ(keys, (std::vector<std::uint64_t>{5, 10, 20, 25, 30, 35}));
    EXPECT_EQ(vals, (std::vector<std::int64_t>{50, 1, 2, 250, 3, 350}));
    // After commit, a fresh transaction (other worker) sees the same six rows.
    h_.MustCommit(*h_.workers[1], [&](Txn& t) {
      EXPECT_EQ(t.Scan(kTable, 0, 100, 0,
                       [](const Key&, const ReadResult&) { return true; }),
                6u);
    });
    EXPECT_EQ(IntAt(h_.store, Key::Table(kTable, 25)), 250);
  }

  Options opts_;
  EngineHarness h_;
};

TEST_F(ScanRyowTest, OccMergesOwnInserts) {
  UseOcc();
  RunMergedInsertScenario();
}

TEST_F(ScanRyowTest, TwoPLMergesOwnInserts) {
  UseTwoPL();
  RunMergedInsertScenario();
}

TEST_F(ScanRyowTest, DoppelMergesOwnInserts) {
  UseDoppel();
  RunMergedInsertScenario();
}

TEST_F(ScanRyowTest, AtomicSeesOwnInserts) {
  // The Atomic engine applies writes immediately, so visibility is via the index itself;
  // the merge path must not double-count.
  UseAtomic();
  RunMergedInsertScenario();
}

TEST_F(ScanRyowTest, LimitCountsMergedStream) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(kTable, 5), 50);
    t.PutInt(Key::Table(kTable, 25), 250);
    std::vector<std::uint64_t> keys;
    EXPECT_EQ(t.Scan(kTable, 0, 100, 3, [&](const Key& k, const ReadResult&) {
      keys.push_back(k.lo);
      return true;
    }), 3u);
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{5, 10, 20}));
  });
}

TEST_F(ScanRyowTest, EarlyStopEndsMergedStream) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(kTable, 5), 50);
    std::size_t calls = 0;
    EXPECT_EQ(t.Scan(kTable, 0, 100, 0, [&](const Key&, const ReadResult&) {
      return ++calls < 2;  // stop after the second row (own 5, committed 10)
    }), 2u);
    EXPECT_EQ(calls, 2u);
  });
}

TEST_F(ScanRyowTest, OwnUpdateOfPresentRowNotDuplicated) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(kTable, 20), 999);  // update, not insert
    t.PutInt(Key::Table(kTable, 15), 150);  // insert
    std::vector<std::uint64_t> keys;
    std::int64_t at20 = 0;
    t.Scan(kTable, 0, 100, 0, [&](const Key& k, const ReadResult& v) {
      keys.push_back(k.lo);
      if (k.lo == 20) {
        at20 = v.i;
      }
      return true;
    });
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{10, 15, 20, 30}));
    EXPECT_EQ(at20, 999);
  });
}

TEST_F(ScanRyowTest, SplittableOpsToAbsentRecordsAreVisible) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.Add(Key::Table(kTable, 17), 7);  // absent: Add treats the record as 0
    std::int64_t at17 = -1;
    const std::size_t n = t.Scan(kTable, 15, 19, 0, [&](const Key& k, const ReadResult& v) {
      EXPECT_EQ(k.lo, 17u);
      at17 = v.i;
      return true;
    });
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(at17, 7);
  });
}

TEST_F(ScanRyowTest, OwnInsertsOutsideWindowStayInvisible) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(kTable, 200), 1);          // outside [0, 100]
    t.PutInt(Key::Table(kTable + 1, 50), 1);       // other table
    EXPECT_EQ(t.Scan(kTable, 0, 100, 0,
                     [](const Key&, const ReadResult&) { return true; }),
              3u);
  });
}

TEST_F(ScanRyowTest, MergeSpansPartitionBoundaries) {
  UseOcc();
  h_.store.ConfigureTable(kTable, PartitionConfig{4, 8, false});  // stripes of 16 keys
  h_.store.LoadInt(Key::Table(kTable, 10), 1);
  h_.store.LoadInt(Key::Table(kTable, 40), 4);
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(kTable, 20), 200);  // stripe 1, between the committed rows
    t.PutInt(Key::Table(kTable, 50), 500);  // stripe 3, after them
    std::vector<std::uint64_t> keys;
    t.Scan(kTable, 0, 60, 0, [&](const Key& k, const ReadResult&) {
      keys.push_back(k.lo);
      return true;
    });
    EXPECT_EQ(keys, (std::vector<std::uint64_t>{10, 20, 40, 50}));
  });
}

}  // namespace
}  // namespace doppel
