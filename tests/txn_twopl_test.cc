// Tests for the 2PL engine: lock acquisition/upgrade, timeout-based deadlock recovery,
// and exactness under concurrency.
#include <gtest/gtest.h>

#include <optional>

#include "src/common/barrier.h"
#include "src/txn/twopl_engine.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::EngineHarness;
using testing::IntAt;

class TwoPLTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(TwoPLEngine::Limits{}); }
  void Recreate(TwoPLEngine::Limits limits) {
    h_.engine = std::make_unique<TwoPLEngine>(h_.store, limits);
    h_.MakeWorkers(2);
  }
  EngineHarness h_;
  Worker& w0() { return *h_.workers[0]; }
  Worker& w1() { return *h_.workers[1]; }
};

TEST_F(TwoPLTest, BasicReadWrite) {
  ASSERT_EQ(h_.TryOnce(w0(), [](Txn& t) { t.PutInt(Key::FromU64(1), 5); }),
            TxnStatus::kCommitted);
  std::int64_t v = 0;
  ASSERT_EQ(h_.TryOnce(w1(), [&](Txn& t) { v = t.GetInt(Key::FromU64(1)).value_or(-1); }),
            TxnStatus::kCommitted);
  EXPECT_EQ(v, 5);
}

TEST_F(TwoPLTest, LocksReleasedAfterCommit) {
  h_.store.LoadInt(Key::FromU64(1), 0);
  ASSERT_EQ(h_.TryOnce(w0(), [](Txn& t) { t.Add(Key::FromU64(1), 1); }),
            TxnStatus::kCommitted);
  Record* r = h_.store.Find(Key::FromU64(1));
  EXPECT_FALSE(r->rw.has_writer());
  EXPECT_EQ(r->rw.reader_count(), 0u);
}

TEST_F(TwoPLTest, LocksReleasedAfterUserAbort) {
  h_.store.LoadInt(Key::FromU64(1), 7);
  EXPECT_EQ(h_.TryOnce(w0(),
                       [](Txn& t) {
                         t.Add(Key::FromU64(1), 1);
                         (void)t.GetInt(Key::FromU64(1));
                         t.UserAbort();
                       }),
            TxnStatus::kUserAbort);
  Record* r = h_.store.Find(Key::FromU64(1));
  EXPECT_FALSE(r->rw.has_writer());
  EXPECT_EQ(r->rw.reader_count(), 0u);
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 7);
}

TEST_F(TwoPLTest, ReadThenWriteUpgrades) {
  h_.store.LoadInt(Key::FromU64(1), 10);
  std::int64_t read = 0;
  ASSERT_EQ(h_.TryOnce(w0(),
                       [&](Txn& t) {
                         read = t.GetInt(Key::FromU64(1)).value_or(0);
                         t.PutInt(Key::FromU64(1), read * 2);
                       }),
            TxnStatus::kCommitted);
  EXPECT_EQ(read, 10);
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 20);
}

TEST_F(TwoPLTest, ConflictTimeoutWhenLockHeld) {
  Recreate(TwoPLEngine::Limits{.shared_spin = 200, .exclusive_spin = 200,
                               .upgrade_spin = 200});
  h_.store.LoadInt(Key::FromU64(1), 0);
  Record* r = h_.store.Find(Key::FromU64(1));
  r->rw.lock();  // simulate another transaction holding the write lock
  EXPECT_EQ(h_.TryOnce(w0(), [](Txn& t) { (void)t.GetInt(Key::FromU64(1)); }),
            TxnStatus::kConflict);
  EXPECT_EQ(h_.TryOnce(w0(), [](Txn& t) { t.Add(Key::FromU64(1), 1); }),
            TxnStatus::kConflict);
  r->rw.unlock();
  EXPECT_EQ(h_.TryOnce(w0(), [](Txn& t) { t.Add(Key::FromU64(1), 1); }),
            TxnStatus::kCommitted);
}

TEST_F(TwoPLTest, AccessesAfterLockTimeoutTakeNoLocks) {
  // A lock timeout dooms the attempt instead of unwinding it; the body keeps running,
  // but nothing it does afterwards may take a lock or buffer a write.
  Recreate(TwoPLEngine::Limits{.shared_spin = 200, .exclusive_spin = 200,
                               .upgrade_spin = 200});
  h_.store.LoadInt(Key::FromU64(1), 0);
  h_.store.LoadInt(Key::FromU64(2), 0);
  Record* held = h_.store.Find(Key::FromU64(1));
  Record* other = h_.store.Find(Key::FromU64(2));
  held->rw.lock();  // simulate another transaction holding the write lock

  std::size_t locks_at_timeout = 99;
  std::size_t locks_at_end = 99;
  std::optional<std::int64_t> later_read = 0;
  auto body = [&](Txn& t) {
    t.Add(Key::FromU64(1), 1);
    locks_at_timeout = t.locks().size();
    later_read = t.GetInt(Key::FromU64(2));
    t.PutInt(Key::FromU64(2), 5);
    t.Scan(0, 0, 10, 0, [](const Key&, const ReadResult&) { return true; });
    locks_at_end = t.locks().size();
  };
  EXPECT_EQ(h_.TryOnce(w0(), body), TxnStatus::kConflict);
  EXPECT_EQ(locks_at_timeout, 0u);
  EXPECT_EQ(locks_at_end, 0u) << "an access after the timeout took a lock";
  EXPECT_TRUE(w0().txn.index_locks().empty());
  EXPECT_TRUE(w0().txn.write_set().empty());
  EXPECT_FALSE(later_read.has_value());
  EXPECT_EQ(w0().txn.conflict_record, held);
  EXPECT_EQ(w0().txn.conflict_op, OpCode::kAdd);
  EXPECT_FALSE(other->rw.has_writer());
  EXPECT_EQ(other->rw.reader_count(), 0u);

  held->rw.unlock();
  EXPECT_EQ(h_.TryOnce(w0(), body), TxnStatus::kCommitted);
  EXPECT_EQ(later_read, std::optional<std::int64_t>(0));
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 1);
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(2)), 5);
}

TEST_F(TwoPLTest, DeadlockRecoversByTimeout) {
  // Two transactions lock (A then B) and (B then A); at least one times out, aborts,
  // releases its locks, and the retry completes. The paper's 2PL never aborts because
  // its workloads cannot deadlock; ours must recover when one is induced.
  Recreate(TwoPLEngine::Limits{.shared_spin = 5000, .exclusive_spin = 5000,
                               .upgrade_spin = 5000});
  h_.store.LoadInt(Key::FromU64(1), 0);
  h_.store.LoadInt(Key::FromU64(2), 0);
  SpinBarrier barrier(2);
  h_.Parallel([&](Worker& w) {
    const Key first = Key::FromU64(w.id == 0 ? 1 : 2);
    const Key second = Key::FromU64(w.id == 0 ? 2 : 1);
    for (int i = 0; i < 200; ++i) {
      barrier.Wait();  // maximize deadlock probability
      h_.MustCommit(w, [&](Txn& t) {
        t.Add(first, 1);
        t.Add(second, 1);
      });
    }
  });
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 400);
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(2)), 400);
}

TEST_F(TwoPLTest, UpgradeDeadlockBetweenTwoReaders) {
  // Both transactions read k then write k: classic upgrade deadlock; the bounded upgrade
  // spin resolves it and both eventually commit.
  Recreate(TwoPLEngine::Limits{.shared_spin = 5000, .exclusive_spin = 5000,
                               .upgrade_spin = 2000});
  h_.store.LoadInt(Key::FromU64(1), 0);
  h_.Parallel([&](Worker& w) {
    for (int i = 0; i < 500; ++i) {
      h_.MustCommit(w, [](Txn& t) {
        const std::int64_t v = t.GetInt(Key::FromU64(1)).value_or(0);
        t.PutInt(Key::FromU64(1), v + 1);
      });
    }
  });
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 1000);
}

TEST_F(TwoPLTest, ConcurrentAddsSumExactly) {
  h_.store.LoadInt(Key::FromU64(1), 0);
  constexpr int kOps = 30000;
  h_.Parallel([&](Worker& w) {
    for (int i = 0; i < kOps; ++i) {
      h_.MustCommit(w, [](Txn& t) { t.Add(Key::FromU64(1), 1); });
    }
  });
  EXPECT_EQ(IntAt(h_.store, Key::FromU64(1)), 2 * kOps);
}

TEST_F(TwoPLTest, SnapshotPairInvariantUnderConcurrency) {
  h_.store.LoadInt(Key::FromU64(1), 0);
  h_.store.LoadInt(Key::FromU64(2), 0);
  std::atomic<bool> mismatch{false};
  h_.Parallel([&](Worker& w) {
    if (w.id == 0) {
      for (std::int64_t i = 1; i <= 10000; ++i) {
        h_.MustCommit(w, [i](Txn& t) {
          t.PutInt(Key::FromU64(1), i);
          t.PutInt(Key::FromU64(2), i);
        });
      }
    } else {
      for (int i = 0; i < 10000; ++i) {
        std::int64_t a = 0;
        std::int64_t b = 0;
        h_.MustCommit(w, [&](Txn& t) {
          a = t.GetInt(Key::FromU64(1)).value_or(0);
          b = t.GetInt(Key::FromU64(2)).value_or(0);
        });
        if (a != b) {
          mismatch = true;
        }
      }
    }
  });
  EXPECT_FALSE(mismatch.load());
}

TEST_F(TwoPLTest, ComplexTypesUnderLocks) {
  h_.store.LoadTopK(Key::FromU64(5), 3);
  ASSERT_EQ(h_.TryOnce(w0(),
                       [](Txn& t) {
                         t.TopKInsert(Key::FromU64(5), OrderKey{8, 0}, "x", 3);
                         t.OPut(Key::FromU64(6), OrderKey{4, 0}, "winner");
                       }),
            TxnStatus::kCommitted);
  const auto topk = std::get<TopKSet>(h_.store.ReadSnapshot(Key::FromU64(5)).value);
  EXPECT_EQ(topk.size(), 1u);
  const auto tuple = std::get<OrderedTuple>(h_.store.ReadSnapshot(Key::FromU64(6)).value);
  EXPECT_EQ(tuple.payload, "winner");
}

}  // namespace
}  // namespace doppel
