// OrderedIndex unit tests (partition mapping, version stamping, idempotent insert) and
// engine-level Txn::Scan behavior: ordering, limits, bounds, overlay of the scanning
// transaction's own writes, and deterministic phantom detection under OCC and 2PL.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/store/ordered_index.h"
#include "src/txn/occ_engine.h"
#include "src/txn/twopl_engine.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::EngineHarness;

TEST(OrderedIndex, DefaultPartitionMappingIsMonotonicAndClamped) {
  OrderedIndex idx;
  const OrderedIndex::TableIndex& t = idx.GetOrCreateTable(1);
  EXPECT_EQ(t.PartitionOf(0), 0u);
  EXPECT_EQ(t.PartitionOf((1ULL << 40) - 1), 0u);
  EXPECT_EQ(t.PartitionOf(1ULL << 40), 1u);
  EXPECT_EQ(t.PartitionOf(63ULL << 40), 63u);
  EXPECT_EQ(t.PartitionOf(64ULL << 40), 63u);  // clamped to the last stripe
  EXPECT_EQ(t.PartitionOf(~0ULL), 63u);
}

TEST(OrderedIndex, PerTablePartitionConfig) {
  OrderedIndex idx;
  // 1-key-per-partition extreme: shift 0 with a small stripe count.
  const OrderedIndex::TableIndex& fine = idx.ConfigureTable(1, {0, 8, false});
  EXPECT_EQ(fine.PartitionOf(0), 0u);
  EXPECT_EQ(fine.PartitionOf(7), 7u);
  EXPECT_EQ(fine.PartitionOf(8), 7u);  // clamped
  EXPECT_EQ(fine.partitions.size(), 8u);
  // Degenerate single partition: everything maps to stripe 0.
  const OrderedIndex::TableIndex& one = idx.ConfigureTable(2, {40, 1, false});
  EXPECT_EQ(one.PartitionOf(0), 0u);
  EXPECT_EQ(one.PartitionOf(~0ULL), 0u);
  EXPECT_EQ(one.partitions.size(), 1u);
  // Unconfigured tables keep the default layout.
  const OrderedIndex::TableIndex& dflt = idx.GetOrCreateTable(3);
  EXPECT_EQ(dflt.partitions.size(), OrderedIndex::kDefaultPartitions);
  EXPECT_EQ(dflt.shift.load(), OrderedIndex::kDefaultShift);
}

TEST(OrderedIndex, ConfiguredShiftSpreadsDenseKeysAcrossStripes) {
  Store store(1 << 12);
  store.ConfigureTable(9, {4, 16, false});  // stripes of 16 keys each
  for (std::uint64_t i = 0; i < 64; ++i) {
    store.LoadInt(Key::Table(9, i), 1);
  }
  const OrderedIndex::TableIndex* t = store.index().FindTable(9);
  ASSERT_NE(t, nullptr);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(t->partitions[p].entries.size(), 16u) << p;
    EXPECT_EQ(t->partitions[p].inserts.load(), 16u) << p;
  }
  EXPECT_EQ(store.index().StatsFor(9).max_key, 63u);
}

TEST(OrderedIndex, NarrowTableRebinsEntriesAndBumpsVersions) {
  Store store(1 << 12);
  store.ConfigureTable(5, {40, 16, true});
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.LoadInt(Key::Table(5, i * 3), static_cast<std::int64_t>(i));
  }
  OrderedIndex::TableIndex* t = store.index().FindTable(5);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->partitions[0].entries.size(), 100u);  // everything below 2^40: one stripe
  const std::uint64_t v0 = t->partitions[0].version.load();

  // Narrowing to shift 5 spreads [0, 297] over ~10 stripes and bumps every version.
  EXPECT_TRUE(store.index().NarrowTable(*t, 5));
  EXPECT_EQ(t->shift.load(), 5u);
  EXPECT_EQ(store.index().size(5), 100u);
  EXPECT_GT(t->partitions[0].version.load(), v0);
  EXPECT_LT(t->partitions[0].entries.size(), 100u);
  std::size_t nonempty = 0;
  for (const IndexPartition& p : t->partitions) {
    nonempty += p.entries.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 5u);
  // Every entry is findable where the new mapping says it lives.
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t lo = i * 3;
    const IndexPartition& p = t->partitions[t->PartitionOf(lo)];
    EXPECT_EQ(p.entries.count(lo), 1u) << lo;
  }
  // Widening (or an equal shift) is refused.
  EXPECT_FALSE(store.index().NarrowTable(*t, 5));
  EXPECT_FALSE(store.index().NarrowTable(*t, 6));
  EXPECT_EQ(store.index().StatsFor(5).rebins, 1u);
}

TEST(OrderedIndex, InsertIsIdempotentAndVersionStamped) {
  Store store(1 << 10);
  store.LoadInt(Key::Table(7, 5), 50);  // LoadInt indexes the record
  Record* r = store.Find(Key::Table(7, 5));
  ASSERT_NE(r, nullptr);
  OrderedIndex& idx = store.index();
  IndexPartition& part = idx.PartitionFor(Key::Table(7, 5));
  const std::uint64_t v1 = part.version.load();
  EXPECT_EQ(idx.size(7), 1u);

  idx.Insert(Key::Table(7, 5), r);  // re-insert: no-op, no version bump
  EXPECT_EQ(idx.size(7), 1u);
  EXPECT_EQ(part.version.load(), v1);

  store.LoadInt(Key::Table(7, 9), 90);
  EXPECT_EQ(idx.size(7), 2u);
  EXPECT_EQ(part.version.load(), v1 + 1);
}

TEST(OrderedIndex, SnapshotRangeRespectsBoundsAndCap) {
  Store store(1 << 10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    store.LoadInt(Key::Table(3, i * 2), static_cast<std::int64_t>(i));  // even keys
  }
  IndexPartition& part = store.index().PartitionFor(Key::Table(3, 0));
  std::vector<std::pair<std::uint64_t, Record*>> out;
  OrderedIndex::SnapshotRange(part, 3, 11, 0, &out);
  ASSERT_EQ(out.size(), 4u);  // 4, 6, 8, 10
  EXPECT_EQ(out.front().first, 4u);
  EXPECT_EQ(out.back().first, 10u);

  out.clear();
  OrderedIndex::SnapshotRange(part, 0, ~0ULL >> 24, 3, &out);
  EXPECT_EQ(out.size(), 3u);  // capped
}

TEST(OrderedIndex, TableDirectoryHandlesManyTables) {
  Store store(1 << 12);
  for (std::uint64_t t = 0; t < 100; ++t) {
    store.LoadInt(Key::Table(static_cast<std::uint32_t>(t), t), 1);
  }
  for (std::uint64_t t = 0; t < 100; ++t) {
    ASSERT_NE(store.index().FindTable(t), nullptr) << t;
    EXPECT_EQ(store.index().size(t), 1u);
  }
  EXPECT_EQ(store.index().FindTable(100), nullptr);
}

// ---- Txn::Scan through the engines ----

class ScanEngineTest : public ::testing::Test {
 protected:
  void UseOcc() {
    h_.engine = std::make_unique<OccEngine>(h_.store);
    h_.MakeWorkers(2);
  }
  void UseTwoPL() {
    // Short spins so intentional lock conflicts resolve in microseconds, not seconds.
    TwoPLEngine::Limits limits;
    limits.shared_spin = 1 << 10;
    limits.exclusive_spin = 1 << 10;
    limits.upgrade_spin = 1 << 10;
    h_.engine = std::make_unique<TwoPLEngine>(h_.store, limits);
    h_.MakeWorkers(2);
  }

  // Ten int rows in table 1, keys 10..19, value = key * 10.
  void PopulateRows() {
    for (std::uint64_t i = 10; i < 20; ++i) {
      h_.store.LoadInt(Key::Table(1, i), static_cast<std::int64_t>(i) * 10);
    }
  }

  EngineHarness h_;
};

TEST_F(ScanEngineTest, ScanVisitsRangeInAscendingOrder) {
  UseOcc();
  PopulateRows();
  std::vector<std::uint64_t> seen;
  std::int64_t sum = 0;
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    seen.clear();
    sum = 0;
    const std::size_t n = t.Scan(1, 12, 17, 0, [&](const Key& k, const ReadResult& v) {
      seen.push_back(k.lo);
      sum += v.i;
      return true;
    });
    EXPECT_EQ(n, 6u);
  });
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 12 + i);
  }
  EXPECT_EQ(sum, (12 + 13 + 14 + 15 + 16 + 17) * 10);
}

TEST_F(ScanEngineTest, ScanHonorsLimitAndEarlyStop) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    std::size_t calls = 0;
    EXPECT_EQ(t.Scan(1, 0, ~0ULL, 3, [&](const Key&, const ReadResult&) {
      calls++;
      return true;
    }), 3u);
    EXPECT_EQ(calls, 3u);

    calls = 0;
    EXPECT_EQ(t.Scan(1, 0, ~0ULL, 0, [&](const Key&, const ReadResult&) {
      return ++calls < 2;  // early stop after the second row
    }), 2u);

    EXPECT_EQ(t.Scan(1, 500, 600, 0, [&](const Key&, const ReadResult&) { return true; }),
              0u);  // empty range
    EXPECT_EQ(t.Scan(99, 0, ~0ULL, 0, [&](const Key&, const ReadResult&) { return true; }),
              0u);  // never-written table
  });
}

TEST_F(ScanEngineTest, ScanObservesOwnBufferedWrites) {
  UseOcc();
  PopulateRows();
  h_.MustCommit(*h_.workers[0], [&](Txn& t) {
    t.PutInt(Key::Table(1, 15), 7777);  // buffered, not yet committed
    std::int64_t at15 = 0;
    t.Scan(1, 15, 15, 0, [&](const Key&, const ReadResult& v) {
      at15 = v.i;
      return true;
    });
    EXPECT_EQ(at15, 7777);
  });
}

// The Silo phantom case, deterministically interleaved: T1 scans [10, 30], then T2
// commits an insert of key 25 into the scanned range, then T1 tries to commit. T1's
// scan-set validation must fail (the index partition version changed).
TEST_F(ScanEngineTest, OccPhantomInsertAbortsScanner) {
  UseOcc();
  PopulateRows();
  Worker& w1 = *h_.workers[0];
  Worker& w2 = *h_.workers[1];

  Txn& t1 = w1.txn;
  t1.Reset(h_.engine.get(), &w1);
  std::size_t n = t1.Scan(1, 10, 30, 0, [](const Key&, const ReadResult&) { return true; });
  EXPECT_EQ(n, 10u);

  // T2: phantom insert into the scanned range, committed while T1 is still open.
  h_.MustCommit(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 25), 1); });

  EXPECT_EQ(h_.engine->Commit(w1, t1), TxnStatus::kConflict);
  EXPECT_TRUE(t1.scan_conflict);

  // Retried, T1 sees the new row and commits.
  h_.MustCommit(w1, [&](Txn& t) {
    EXPECT_EQ(t.Scan(1, 10, 30, 0, [](const Key&, const ReadResult&) { return true; }),
              11u);
  });
}

// An insert into a different partition stripe of the same table must NOT abort the
// scanner (version stamping is per partition, not per table).
TEST_F(ScanEngineTest, OccInsertOutsideScannedStripeDoesNotAbort) {
  UseOcc();
  PopulateRows();  // partition 0 (keys < 2^40)
  Worker& w1 = *h_.workers[0];
  Worker& w2 = *h_.workers[1];

  Txn& t1 = w1.txn;
  t1.Reset(h_.engine.get(), &w1);
  (void)t1.Scan(1, 10, 30, 0, [](const Key&, const ReadResult&) { return true; });

  // Same table, key in partition 2: outside every partition the scan traversed.
  h_.MustCommit(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 2ULL << 40), 1); });

  EXPECT_EQ(h_.engine->Commit(w1, t1), TxnStatus::kCommitted);
}

// A read-modify-write on a scanned record (no insert) is caught by ordinary read-set
// validation: the scan added the record to the read set.
TEST_F(ScanEngineTest, OccUpdateOfScannedRecordAbortsScanner) {
  UseOcc();
  PopulateRows();
  Worker& w1 = *h_.workers[0];
  Worker& w2 = *h_.workers[1];

  Txn& t1 = w1.txn;
  t1.Reset(h_.engine.get(), &w1);
  (void)t1.Scan(1, 10, 19, 0, [](const Key&, const ReadResult&) { return true; });

  h_.MustCommit(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 15), 0); });

  EXPECT_EQ(h_.engine->Commit(w1, t1), TxnStatus::kConflict);
  EXPECT_FALSE(t1.scan_conflict);  // record-level, not partition-level
}

// 2PL: a scanner holds the partition's shared lock until commit, so a concurrent insert
// into the scanned stripe times out and dooms its attempt (a conflict) instead of
// committing.
TEST_F(ScanEngineTest, TwoPLScanBlocksPhantomInsert) {
  UseTwoPL();
  PopulateRows();
  Worker& w1 = *h_.workers[0];
  Worker& w2 = *h_.workers[1];

  Txn& t1 = w1.txn;
  t1.Reset(h_.engine.get(), &w1);
  EXPECT_EQ(t1.Scan(1, 10, 30, 0, [](const Key&, const ReadResult&) { return true; }),
            10u);

  // While t1 is open, an insert into the stripe must fail its partition lock.
  EXPECT_EQ(h_.TryOnce(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 25), 1); }),
            TxnStatus::kConflict);
  // An insert into a different stripe of the same table is unaffected.
  EXPECT_EQ(h_.TryOnce(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 2ULL << 40), 1); }),
            TxnStatus::kCommitted);

  EXPECT_EQ(h_.engine->Commit(w1, t1), TxnStatus::kCommitted);

  // With the scanner gone, the insert succeeds and a new scan sees it.
  h_.MustCommit(w2, [&](Txn& t) { t.PutInt(Key::Table(1, 25), 1); });
  h_.MustCommit(w1, [&](Txn& t) {
    EXPECT_EQ(t.Scan(1, 10, 30, 0, [](const Key&, const ReadResult&) { return true; }),
              11u);
  });
}

}  // namespace
}  // namespace doppel
