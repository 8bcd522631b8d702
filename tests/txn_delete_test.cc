// Transactional deletes (PR 8): a committed Delete makes the key absent to reads and
// scans on every engine, removes it from the ordered index, observes read-your-own-
// writes inside the issuing transaction, and composes with reinsertion. Also the
// type-mismatch regression: an op whose required record type conflicts with the key's
// existing record aborts that transaction (TxnAbort::kTypeMismatch) instead of killing
// the process, and the database keeps committing afterwards. Last, what a body does
// after it is doomed (UserAbort, a type mismatch) is discarded on every engine.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/core/database.h"

namespace doppel {
namespace {

constexpr std::uint64_t kTable = 1;

Key K(std::uint64_t lo) { return Key::Table(kTable, lo); }

Options BaseOptions(Protocol proto) {
  Options opts;
  opts.protocol = proto;
  opts.num_workers = 2;
  opts.phase_us = 1000;
  opts.store_capacity = 1 << 10;
  return opts;
}

class DeleteSemanticsTest : public ::testing::TestWithParam<Protocol> {};

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeleteSemanticsTest,
                         ::testing::Values(Protocol::kOcc, Protocol::kTwoPL,
                                           Protocol::kDoppel, Protocol::kAtomic),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return ProtocolName(info.param);
                         });

TEST_P(DeleteSemanticsTest, DeleteMakesKeyAbsentAndIsIdempotent) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(1), 42);
  db.Start();

  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(1)); }).committed);

  std::optional<std::int64_t> got = 0;
  EXPECT_TRUE(db.Execute([&](Txn& txn) { got = txn.GetInt(K(1)); }).committed);
  EXPECT_FALSE(got.has_value()) << "deleted key visible to a later read";

  // Deleting an already-absent key — or one that never existed — is a serializable
  // no-op, not an error.
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(1)); }).committed);
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(777)); }).committed);
  db.Stop();
}

TEST_P(DeleteSemanticsTest, OwnDeleteIsObservedAndReinsertWins) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(2), 5);
  db.Start();

  std::optional<std::int64_t> after_delete = 0;
  std::optional<std::int64_t> after_reinsert;
  EXPECT_TRUE(db.Execute([&](Txn& txn) {
                  txn.Delete(K(2));
                  after_delete = txn.GetInt(K(2));  // RYOW: own delete observed
                  txn.PutInt(K(2), 9);
                  after_reinsert = txn.GetInt(K(2));
                }).committed);
  EXPECT_FALSE(after_delete.has_value());
  ASSERT_TRUE(after_reinsert.has_value());
  EXPECT_EQ(*after_reinsert, 9);

  // The commit applied the buffered ops in issue order: the reinsert survives.
  std::optional<std::int64_t> final_value;
  EXPECT_TRUE(
      db.Execute([&](Txn& txn) { final_value = txn.GetInt(K(2)); }).committed);
  ASSERT_TRUE(final_value.has_value());
  EXPECT_EQ(*final_value, 9);
  db.Stop();
}

TEST_P(DeleteSemanticsTest, DeletedKeysAreInvisibleToScans) {
  Database db(BaseOptions(GetParam()));
  for (std::uint64_t i = 0; i < 10; ++i) {
    db.store().LoadInt(K(i), static_cast<std::int64_t>(i));
  }
  db.Start();

  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(5)); }).committed);

  auto scan_keys = [&] {
    std::vector<std::uint64_t> keys;
    EXPECT_TRUE(db.Execute([&](Txn& txn) {
                    keys.clear();
                    txn.Scan(kTable, 0, 9, 0,
                             [&](const Key& k, const ReadResult&) {
                               keys.push_back(k.lo);
                               return true;
                             });
                  }).committed);
    return keys;
  };

  std::vector<std::uint64_t> keys = scan_keys();
  EXPECT_EQ(keys.size(), 9u);
  for (std::uint64_t k : keys) {
    EXPECT_NE(k, 5u) << "deleted key surfaced in a scan";
  }

  // Reinsert: the key re-enters the ordered index and the scan window.
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.PutInt(K(5), 50); }).committed);
  keys = scan_keys();
  EXPECT_EQ(keys.size(), 10u);
  db.Stop();
}

TEST_P(DeleteSemanticsTest, TypeMismatchAbortsTheTransactionNotTheProcess) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(3), 7);
  db.Start();

  // A write requiring a different record type on an existing key: terminal
  // per-transaction abort, never a retry loop, never a process kill.
  const TxnResult put = db.Execute([](Txn& txn) { txn.PutBytes(K(3), "oops"); });
  EXPECT_FALSE(put.committed);
  EXPECT_EQ(put.abort, TxnAbort::kTypeMismatch);

  // Same for a typed read routed at the wrong type.
  const TxnResult get = db.Execute([](Txn& txn) { txn.GetBytes(K(3)); });
  EXPECT_FALSE(get.committed);
  EXPECT_EQ(get.abort, TxnAbort::kTypeMismatch);

  // The database is unharmed: later well-typed transactions commit, and the aborts
  // are accounted.
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Add(K(3), 1); }).committed);
  db.Stop();
  EXPECT_GE(db.CollectStats().type_mismatch_aborts, 2u);
}

TEST_P(DeleteSemanticsTest, DeleteFreesTheKeyForADifferentType) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(4), 11);
  db.Start();

  // While the int record exists (even logically absent but unreclaimed), a bytes
  // write still routes to it — delete only changes logical presence. The key becomes
  // writable at a new type once the record is physically reclaimed; here we only
  // assert the delete itself and the unchanged-type reinsert.
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(4)); }).committed);
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.PutInt(K(4), 12); }).committed);
  std::optional<std::int64_t> v;
  EXPECT_TRUE(db.Execute([&](Txn& txn) { v = txn.GetInt(K(4)); }).committed);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 12);
  db.Stop();
}

// Execution continues after a doom (UserAbort, a type mismatch): everything the body
// does afterwards is discarded, and the first doom decides the result code.
TEST_P(DeleteSemanticsTest, AccessesAfterUserAbortHaveNoEffect) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(3), 7);
  db.store().LoadInt(K(12), 30);
  db.Start();

  std::optional<std::int64_t> read_after = 0;
  std::size_t scanned_after = 1;
  const TxnResult r = db.Execute([&](Txn& txn) {
    txn.UserAbort();
    txn.PutInt(K(11), 5);
    txn.Add(K(12), 1);
    txn.Delete(K(3));
    read_after = txn.GetInt(K(12));
    scanned_after = txn.Scan(kTable, 0, 20, 0, [](const Key&, const ReadResult&) {
      return true;
    });
    txn.PutBytes(K(3), "type mismatch after the abort");
  });
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.abort, TxnAbort::kUser);
  EXPECT_FALSE(read_after.has_value()) << "read after UserAbort returned a value";
  EXPECT_EQ(scanned_after, 0u);

  std::optional<std::int64_t> k3;
  std::optional<std::int64_t> k11 = 0;
  std::optional<std::int64_t> k12;
  EXPECT_TRUE(db.Execute([&](Txn& txn) {
                  k3 = txn.GetInt(K(3));
                  k11 = txn.GetInt(K(11));
                  k12 = txn.GetInt(K(12));
                }).committed);
  EXPECT_EQ(k3, std::optional<std::int64_t>(7));
  EXPECT_FALSE(k11.has_value()) << "write after UserAbort was applied";
  EXPECT_EQ(k12, std::optional<std::int64_t>(30));
  db.Stop();
  EXPECT_EQ(db.CollectStats().type_mismatch_aborts, 0u);
}

TEST_P(DeleteSemanticsTest, AccessesAfterTypeMismatchHaveNoEffect) {
  Database db(BaseOptions(GetParam()));
  db.store().LoadInt(K(3), 7);
  db.store().LoadInt(K(12), 30);
  db.Start();

  std::optional<std::int64_t> read_after = 0;
  const TxnResult r = db.Execute([&](Txn& txn) {
    txn.PutBytes(K(3), "oops");
    txn.PutInt(K(11), 5);
    txn.Add(K(12), 1);
    read_after = txn.GetInt(K(12));
    txn.UserAbort();
  });
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.abort, TxnAbort::kTypeMismatch);
  EXPECT_FALSE(read_after.has_value()) << "read after a type mismatch returned a value";

  std::optional<std::int64_t> k11 = 0;
  std::optional<std::int64_t> k12;
  EXPECT_TRUE(db.Execute([&](Txn& txn) {
                  k11 = txn.GetInt(K(11));
                  k12 = txn.GetInt(K(12));
                }).committed);
  EXPECT_FALSE(k11.has_value()) << "write after a type mismatch was applied";
  EXPECT_EQ(k12, std::optional<std::int64_t>(30));
  db.Stop();
  const Database::Stats stats = db.CollectStats();
  EXPECT_EQ(stats.type_mismatch_aborts, 1u);
  EXPECT_EQ(stats.user_aborts, 0u);
}

TEST_P(DeleteSemanticsTest, UserAbortInScanCallbackStopsTheScan) {
  Database db(BaseOptions(GetParam()));
  for (std::uint64_t i = 1; i < 10; ++i) {
    db.store().LoadInt(K(i), static_cast<std::int64_t>(i));
  }
  db.Start();

  // Without and with an own pending insert (K(0)), which the scan merges into the
  // engine's rows and visits first.
  for (const bool own_insert : {false, true}) {
    int calls = 0;
    const TxnResult r = db.Execute([&](Txn& txn) {
      calls = 0;
      if (own_insert) {
        txn.PutInt(K(0), 100);
      }
      txn.Scan(kTable, 0, 9, 0, [&](const Key&, const ReadResult&) {
        ++calls;
        txn.UserAbort();
        return true;  // keep going: the doom alone must stop the scan
      });
    });
    EXPECT_FALSE(r.committed) << "own_insert=" << own_insert;
    EXPECT_EQ(r.abort, TxnAbort::kUser) << "own_insert=" << own_insert;
    EXPECT_EQ(calls, 1) << "own_insert=" << own_insert;
  }
  db.Stop();
}

// Doppel-specific: deleting split data is incompatible with a split phase (absence is
// a global fact, per-core slices are not), so the transaction stashes and commits at
// the next joined phase — invisible to the caller beyond latency.
TEST(DoppelSplitDelete, DeleteOnSplitRecordStashesThenCommits) {
  Options opts = BaseOptions(Protocol::kDoppel);
  Database db(opts);
  db.store().LoadInt(K(9), 5);
  db.MarkSplitManually(K(9), OpCode::kAdd);
  db.Start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute([](Txn& txn) { txn.Add(K(9), 1); }).committed);
  }
  EXPECT_TRUE(db.Execute([](Txn& txn) { txn.Delete(K(9)); }).committed);

  std::optional<std::int64_t> got = 0;
  EXPECT_TRUE(db.Execute([&](Txn& txn) { got = txn.GetInt(K(9)); }).committed);
  EXPECT_FALSE(got.has_value()) << "deleted split record visible after commit";
  db.Stop();
}

}  // namespace
}  // namespace doppel
