// Phase-aligned read replica tests: cut consistency (no view ever observes a state
// between joined-phase cuts), bootstrap-from-checkpoint-then-tail equivalence with
// serial replay prefixes, retention leases across checkpoints, and the lag/watermark
// surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "src/core/database.h"
#include "src/persist/manifest.h"
#include "src/persist/wal.h"
#include "src/replica/replica.h"
#include "src/workload/driver.h"
#include "src/workload/incr.h"
#include "src/workload/report.h"
#include "tests/persist_test_util.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::FreshDir;
using testing::IntAt;
using testing::RemoveDirRecursive;

Options ReplicatedOptions(const std::string& dir) {
  Options o;
  o.protocol = Protocol::kDoppel;
  o.num_workers = 2;
  o.phase_us = 2000;
  o.store_capacity = 1 << 12;
  o.wal_dir = dir.c_str();
  o.wal_flush_us = 500;
  return o;
}

std::int64_t ReplicaInt(const Replica::View& v, const Key& k) {
  Value val;
  return v.Get(k, &val) ? std::get<std::int64_t>(val) : 0;
}

// Every transaction increments keys A and B together, so A == B in every committed
// state. A view that ever observes A != B — via Get or via Scan — caught the replica
// between transactions, i.e. publishing a non-cut-aligned prefix.
TEST(Replica, ViewsNeverObserveStateBetweenCuts) {
  const std::string dir = FreshDir("replica_cuts");
  const Key a = IncrKey(0);
  const Key b = IncrKey(1);
  constexpr int kTxns = 600;

  Options o = ReplicatedOptions(dir);
  Database db(o);
  PopulateIncr(db.store(), 2);
  db.Start();

  std::atomic<int> hook_violations{0};
  std::atomic<int> reader_violations{0};
  std::atomic<std::uint64_t> hook_runs{0};
  Replica* rp = nullptr;
  ReplicaOptions ropts;
  ropts.on_publish = [&] {
    // Runs outside the publish lock after every cut: the freshest published state.
    Replica::View v(*rp);
    std::int64_t sa = 0;
    std::int64_t sb = 0;
    v.Scan(0, 0, 8, 0, [&](const Key& k, const Value& val) {
      (k.lo == 0 ? sa : sb) = std::get<std::int64_t>(val);
      return true;
    });
    if (sa != sb) {
      hook_violations.fetch_add(1);
    }
    if (ReplicaInt(v, a) != ReplicaInt(v, b)) {
      hook_violations.fetch_add(1);
    }
    hook_runs.fetch_add(1);
  };
  auto replica = std::make_unique<Replica>(dir, ropts);
  rp = replica.get();
  replica->AttachPrimary(db.wal());
  replica->Start();

  // Concurrent reader hammering views while the tailer publishes.
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      Replica::View v(*rp);
      if (ReplicaInt(v, a) != ReplicaInt(v, b)) {
        reader_violations.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < kTxns; ++i) {
    const TxnResult res = db.Execute([&](Txn& txn) {
      txn.Add(a, 1);
      txn.Add(b, 1);
    });
    ASSERT_TRUE(res.committed);
  }
  db.Stop();  // appends a final cut covering everything

  ASSERT_TRUE(replica->WaitCaughtUp(/*timeout_ms=*/10000));
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(hook_violations.load(), 0);
  EXPECT_EQ(reader_violations.load(), 0);
  EXPECT_GT(hook_runs.load(), 0u);
  {
    Replica::View v(*replica);
    EXPECT_EQ(ReplicaInt(v, a), kTxns);
    EXPECT_EQ(ReplicaInt(v, b), kTxns);
  }

  const ReplicaProgress p = replica->progress();
  EXPECT_TRUE(p.attached);
  EXPECT_FALSE(p.halted);
  EXPECT_EQ(p.lag_bytes, 0u);
  EXPECT_EQ(p.pending_txns, 0u);
  EXPECT_EQ(p.applied_txns, static_cast<std::uint64_t>(kTxns));
  EXPECT_GT(p.published_cuts, 0u);
  EXPECT_GT(p.shipped_bytes, 0u);
  EXPECT_GT(p.applied_cut_tid, 0u);
  EXPECT_EQ(db.wal()->cuts_emitted(), p.shipped_entries - p.applied_txns);

  replica->Stop();
  replica.reset();
  RemoveDirRecursive(dir);
}

// Cuts ride the engine-neutral quiesce barrier: an OCC primary (no split phases) with a
// replica attached emits them while it runs, so the replica publishes every commit
// long before the primary stops — cut-aligned, like a Doppel primary's.
TEST(Replica, OccPrimaryPublishesCutsWhileRunning) {
  const std::string dir = FreshDir("replica_occ");
  const Key a = IncrKey(0);
  const Key b = IncrKey(1);
  constexpr int kTxns = 300;

  Options o = ReplicatedOptions(dir);
  o.protocol = Protocol::kOcc;
  Database db(o);
  PopulateIncr(db.store(), 2);
  db.Start();
  auto replica = std::make_unique<Replica>(dir);
  replica->AttachPrimary(db.wal());
  replica->Start();

  for (int i = 0; i < kTxns; ++i) {
    const TxnResult res = db.Execute([&](Txn& txn) {
      txn.Add(a, 1);
      txn.Add(b, 1);
    });
    ASSERT_TRUE(res.committed);
  }
  // The primary keeps running: only a barrier cut can publish these commits.
  bool published = false;
  for (int spin = 0; spin < 10000 && !published; ++spin) {
    Replica::View v(*replica);
    published = ReplicaInt(v, a) == kTxns;
    if (!published) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(published) << "no cut covering the commits while the primary ran";
  EXPECT_GT(replica->progress().published_cuts, 0u);
  EXPECT_GT(db.wal()->cuts_emitted(), 0u);
  {
    Replica::View v(*replica);
    EXPECT_EQ(ReplicaInt(v, a), ReplicaInt(v, b));
  }

  db.Stop();
  replica->Stop();
  replica.reset();
  RemoveDirRecursive(dir);
}

// Serial-prefix equivalence at every published cut: transaction i does
// Add(counter, 1) + PutInt(marker, i), executed serially, with both keys conflicting in
// every transaction — so per-record TID order equals the serial order and the state at
// any cut must satisfy counter == marker + 1 (an exact serial replay prefix). The
// replica attaches only after a checkpoint exists, so it exercises the
// bootstrap-from-checkpoint-then-tail path.
TEST(Replica, BootstrapFromCheckpointThenTailMatchesSerialPrefix) {
  const std::string dir = FreshDir("replica_boot");
  const Key counter = IncrKey(0);
  const Key marker = IncrKey(1);
  constexpr int kPreCheckpoint = 150;
  constexpr int kPostCheckpoint = 400;

  Options o = ReplicatedOptions(dir);
  o.replication_cuts = true;  // cuts exist before the replica's lease does
  Database db(o);
  PopulateIncr(db.store(), 2);
  db.Start();

  auto run_one = [&](int i) {
    const TxnResult res = db.Execute([&](Txn& txn) {
      txn.Add(counter, 1);
      txn.PutInt(marker, i);
    });
    ASSERT_TRUE(res.committed);
  };
  for (int i = 0; i < kPreCheckpoint; ++i) {
    run_one(i);
  }
  ASSERT_TRUE(db.RequestCheckpoint());
  for (int spin = 0; spin < 4000 && db.wal()->checkpoints_taken() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(db.wal()->checkpoints_taken(), 1u);

  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> cuts_checked{0};
  Replica* rp = nullptr;
  ReplicaOptions ropts;
  ropts.on_publish = [&] {
    Replica::View v(*rp);
    const std::int64_t c = ReplicaInt(v, counter);
    const std::int64_t m = ReplicaInt(v, marker);
    if (c != m + 1) {
      violations.fetch_add(1);
    }
    cuts_checked.fetch_add(1);
  };
  auto replica = std::make_unique<Replica>(dir, ropts);
  rp = replica.get();
  replica->AttachPrimary(db.wal());
  replica->Start();

  for (int i = kPreCheckpoint; i < kPreCheckpoint + kPostCheckpoint; ++i) {
    run_one(i);
  }
  db.Stop();
  ASSERT_TRUE(replica->WaitCaughtUp(/*timeout_ms=*/10000));

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(cuts_checked.load(), 0u);
  const ReplicaProgress p = replica->progress();
  EXPECT_GT(p.bootstrap_records, 0u) << "replica did not bootstrap from the checkpoint";
  {
    Replica::View v(*replica);
    EXPECT_EQ(ReplicaInt(v, counter), kPreCheckpoint + kPostCheckpoint);
    EXPECT_EQ(ReplicaInt(v, marker), kPreCheckpoint + kPostCheckpoint - 1);
  }
  // Replica final state matches the primary record for record.
  EXPECT_EQ(IntAt(replica->store(), counter), IntAt(db.store(), counter));
  EXPECT_EQ(IntAt(replica->store(), marker), IntAt(db.store(), marker));

  replica->Stop();
  replica.reset();
  RemoveDirRecursive(dir);
}

PendingWrite IntWrite(Record* r, OpCode op, std::int64_t n) {
  PendingWrite w;
  w.record = r;
  w.op = op;
  w.n = n;
  return w;
}

// WAL-level retention: while a lease's next-needed segment has not passed a sealed
// segment, a checkpoint must move it to the manifest's retained set (file kept on
// disk) instead of unlinking it; advancing the lease past everything prunes the
// retained files. Without any lease the original delete-on-checkpoint behaviour holds.
TEST(Replica, RetentionLeaseKeepsSegmentsThroughCheckpoint) {
  const std::string dir = FreshDir("replica_lease");
  Store store(64);
  store.LoadInt(Key::FromU64(1), 0);
  Record* r = store.Find(Key::FromU64(1));
  WriteArena arena;

  WalOptions wo;
  wo.segment_bytes = 128;  // a txn or two per segment
  WriteAheadLog wal(dir, wo);
  wal.StartLogging();
  for (int i = 0; i < 16; ++i) {
    std::vector<PendingWrite> ws;
    ws.push_back(IntWrite(r, OpCode::kAdd, 1));
    wal.Append(0, 256u * static_cast<std::uint64_t>(i + 1), ws, {}, arena);
    wal.Flush();
  }
  Manifest before;
  ASSERT_TRUE(Manifest::Load(dir, &before));
  ASSERT_GE(before.live_segments.size(), 3u);
  // The checkpoint seals the currently-active segment and subsumes it along with the
  // already-sealed ones, so under a lease every pre-checkpoint live segment is
  // retained.
  const std::vector<std::uint64_t> sealed = before.live_segments;

  // Lease at the front: the "replica" has shipped nothing yet.
  const int lease = wal.AcquireRetentionLease();
  EXPECT_EQ(wal.retention_leases(), 1);
  wal.WriteCheckpoint(store);

  Manifest after;
  ASSERT_TRUE(Manifest::Load(dir, &after));
  EXPECT_EQ(after.retained_segments, sealed) << "checkpoint dropped leased segments";
  for (const std::uint64_t seg : sealed) {
    EXPECT_TRUE(std::ifstream(dir + "/" + Manifest::SegmentFileName(seg)).good())
        << "retained segment " << seg << " missing on disk";
  }

  // Recovery must NOT replay retained segments (their effects are in the checkpoint):
  // a fresh store recovered from the directory sees the checkpointed value once, not
  // doubled by re-replaying the retained history. (The test store was not mutated by
  // the appends, so the checkpoint holds 0 and replayed_txns counts only live-segment
  // entries.)
  {
    Store recovered(64);
    WriteAheadLog reopened(dir);
    const RecoveryResult res = reopened.Recover(&recovered);
    EXPECT_TRUE(res.had_checkpoint);
    EXPECT_EQ(res.replayed_txns, 0u) << "retained segments were replayed";
  }

  // Mid-catch-up advance: past the first retained segment only — it is pruned, the
  // rest stay.
  wal.AdvanceRetentionLease(lease, sealed[1]);
  Manifest mid;
  ASSERT_TRUE(Manifest::Load(dir, &mid));
  EXPECT_EQ(mid.retained_segments,
            std::vector<std::uint64_t>(sealed.begin() + 1, sealed.end()));
  EXPECT_FALSE(std::ifstream(dir + "/" + Manifest::SegmentFileName(sealed[0])).good());

  // Advance past everything: all retained files pruned.
  wal.AdvanceRetentionLease(lease, after.live_segments.back() + 1);
  Manifest done;
  ASSERT_TRUE(Manifest::Load(dir, &done));
  EXPECT_TRUE(done.retained_segments.empty());
  for (const std::uint64_t seg : sealed) {
    EXPECT_FALSE(std::ifstream(dir + "/" + Manifest::SegmentFileName(seg)).good());
  }
  wal.ReleaseRetentionLease(lease);
  EXPECT_EQ(wal.retention_leases(), 0);
  RemoveDirRecursive(dir);
}

// End-to-end retention: a checkpoint fires while the replica is paused mid-catch-up
// (its tailer blocked in on_publish), so the segments it still needs are only
// reachable through the retained set — after unblocking it must converge to the full
// final state.
TEST(Replica, CheckpointWhileReplicaMidCatchUpStillConverges) {
  const std::string dir = FreshDir("replica_ckpt_race");
  const Key k = IncrKey(0);
  constexpr int kFirst = 120;
  constexpr int kSecond = 300;

  Options o = ReplicatedOptions(dir);
  o.wal_segment_bytes = 4096;  // several segments over the run
  Database db(o);
  PopulateIncr(db.store(), 1);
  db.Start();

  std::atomic<bool> gate_open{false};
  std::atomic<std::uint64_t> publishes{0};
  ReplicaOptions ropts;
  ropts.on_publish = [&] {
    publishes.fetch_add(1);
    // Pause the tailer after its first publish until the checkpoint has landed.
    while (!gate_open.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto replica = std::make_unique<Replica>(dir, ropts);
  replica->AttachPrimary(db.wal());
  replica->Start();

  for (int i = 0; i < kFirst; ++i) {
    ASSERT_TRUE(db.Execute([&](Txn& txn) { txn.Add(k, 1); }).committed);
  }
  // Wait until the tailer is provably parked in the hook.
  for (int spin = 0; spin < 10000 && publishes.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(publishes.load(), 0u);

  for (int i = 0; i < kSecond; ++i) {
    ASSERT_TRUE(db.Execute([&](Txn& txn) { txn.Add(k, 1); }).committed);
  }
  ASSERT_TRUE(db.RequestCheckpoint());
  for (int spin = 0; spin < 4000 && db.wal()->checkpoints_taken() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(db.wal()->checkpoints_taken(), 1u);

  gate_open.store(true, std::memory_order_release);
  db.Stop();
  ASSERT_TRUE(replica->WaitCaughtUp(/*timeout_ms=*/10000));
  EXPECT_EQ(IntAt(replica->store(), k), kFirst + kSecond);
  EXPECT_FALSE(replica->progress().halted);

  replica->Stop();
  replica.reset();
  RemoveDirRecursive(dir);
}

// The --replica wiring used by benches: attach via the RunWorkload on_started hook and
// surface watermarks through RunMetrics.
TEST(Replica, RunWorkloadMetricsSurface) {
  const std::string dir = FreshDir("replica_metrics");
  Options o = ReplicatedOptions(dir);
  Database db(o);
  PopulateIncr(db.store(), 8);
  std::atomic<std::uint64_t> hot{0};

  std::unique_ptr<Replica> replica;
  RunMetrics m = RunWorkload(
      db, MakeIncr1Factory(8, 100, &hot), /*measure_ms=*/300, /*warmup_ms=*/50,
      [&](Database& started) { replica = AttachReplica(started); });
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(replica->WaitCaughtUp(/*timeout_ms=*/10000));
  FillReplicaMetrics(*replica, &m);

  EXPECT_TRUE(m.wal_enabled);
  EXPECT_GT(m.wal_cuts, 0u);
  EXPECT_TRUE(m.replica_enabled);
  EXPECT_GT(m.replica_cuts, 0u);
  EXPECT_GT(m.replica_cut_tid, 0u);
  EXPECT_EQ(m.replica_applied_txns, m.wal_appended_txns);
  EXPECT_EQ(m.replica_lag_bytes, 0u);
  EXPECT_FALSE(WalSummary(m).empty());

  replica->Stop();
  replica.reset();
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace doppel
