// Classifier dynamics across multiple phase cycles, driven deterministically with manual
// barrier calls (no coordinator thread): op re-selection, retention by write sampling,
// un-split by stash pressure, and re-split suppression (§4-5.5).
#include <gtest/gtest.h>

#include "src/core/coordinator.h"
#include "src/core/doppel_engine.h"
#include "src/core/quiesce.h"
#include "src/core/runner.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

class ClassifierDynamicsTest : public ::testing::Test {
 protected:
  ClassifierDynamicsTest() : store_(1 << 10) {}

  void Build(const Options& opts, int num_workers = 1) {
    tune_ = opts.index_tune;
    engine_ = std::make_unique<DoppelEngine>(store_, opts);
    for (int i = 0; i < num_workers; ++i) {
      workers_.push_back(std::make_unique<Worker>(i, 11 + 7 * i));
    }
    engine_->RegisterWorkers(workers_);
    barrier_ = std::make_unique<QuiesceBarrier>(num_workers, stop_);
    w_ = workers_[0].get();
  }

  // Simulate `n` sampled conflicts on `key` with `op` (joined phase).
  void Conflicts(const Key& key, OpCode op, int n) {
    for (int i = 0; i < n; ++i) {
      w_->txn.Reset(engine_.get(), w_);
      w_->txn.conflict_record = store_.Find(key);
      w_->txn.conflict_op = op;
      engine_->OnConflict(*w_, w_->txn);
    }
  }

  // Single-threaded phase-transition helpers. The coordinator's barrier work runs on
  // this thread with the (idle) worker quiescent, and Release precedes the worker's
  // Acknowledge so its ack/release spin exits immediately.
  void EnterSplit() {
    barrier_->BeginTransition(Phase::kSplit);
    engine_->BarrierBuildPlan();
    barrier_->Release();
    for (auto& w : workers_) {
      // ack, observe release, prepare slices, enter split
      barrier_->Acknowledge(*w, engine_.get(), cfg_);
    }
    ASSERT_EQ(w_->LoadPhase(), Phase::kSplit);
  }

  void EnterJoined() {
    barrier_->BeginTransition(Phase::kJoined);
    barrier_->Release();
    for (auto& w : workers_) {
      barrier_->Acknowledge(*w, engine_.get(), cfg_);  // merge slices, ack, enter joined
    }
    engine_->BarrierAfterReconcile();  // reads the stats the merge just reported
    ASSERT_EQ(w_->LoadPhase(), Phase::kJoined);
  }

  // The coordinator's index-narrowing duty, run as at a joined barrier.
  bool IndexTunePending() { return doppel::IndexTunePending(store_, tune_); }
  void TuneIndexes() { TuneAdaptiveTables(store_, tune_); }

  // Run one full phase cycle on the single (not-running) worker, committing `writes`
  // transactions of the selected op against the split record during the split phase.
  void Cycle(const Key& key, int writes, int stashed_reads) {
    EnterSplit();

    Record* r = store_.Find(key);
    for (int i = 0; i < writes && r != nullptr && r->IsSplit(); ++i) {
      w_->txn.Reset(engine_.get(), w_);
      w_->txn.Add(key, 1);
      ASSERT_EQ(engine_->Commit(*w_, w_->txn), TxnStatus::kCommitted);
    }
    for (int i = 0; i < stashed_reads && r != nullptr && r->IsSplit(); ++i) {
      w_->txn.Reset(engine_.get(), w_);
      (void)w_->txn.GetInt(key);
      ASSERT_TRUE(w_->txn.stash_doomed());
      engine_->OnStash(*w_, StashSignal{w_->txn.doom_record(), OpCode::kGet});
      engine_->Abort(*w_, w_->txn);
    }

    EnterJoined();
  }

  std::atomic<bool> stop_{false};
  Store store_;
  IndexTuneOptions tune_;
  std::unique_ptr<DoppelEngine> engine_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<QuiesceBarrier> barrier_;
  const RunnerConfig cfg_;
  Worker* w_ = nullptr;
};

TEST_F(ClassifierDynamicsTest, SplitPhaseWritesApplyThroughSliceAndMerge) {
  Options opts;
  Build(opts);
  const Key k = Key::FromU64(1);
  store_.LoadInt(k, 10);
  Conflicts(k, OpCode::kAdd, 50);
  Cycle(k, 25, 0);
  // The 25 split-phase Adds merged into the global value at reconciliation.
  EXPECT_EQ(testing::IntAt(store_, k), 35);
}

TEST_F(ClassifierDynamicsTest, SelectedOpCanChangeBetweenPhases) {
  // "the operation for key k might be Min in one split phase, and Max in the next" (§4).
  Options opts;
  opts.classifier.min_split_writes = 1000000;  // disable retention: re-classify each time
  Build(opts);
  const Key k = Key::FromU64(1);
  store_.LoadInt(k, 0);

  Conflicts(k, OpCode::kMin, 50);
  EnterSplit();
  auto entries = engine_->LastPlanEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, OpCode::kMin);
  EnterJoined();

  Conflicts(k, OpCode::kMax, 50);
  EnterSplit();
  entries = engine_->LastPlanEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, OpCode::kMax);
  EnterJoined();
}

TEST_F(ClassifierDynamicsTest, RetentionKeepsWriteHotRecordSplit) {
  Options opts;
  opts.classifier.min_split_writes = 10;
  Build(opts);
  const Key k = Key::FromU64(1);
  store_.LoadInt(k, 0);
  Conflicts(k, OpCode::kAdd, 50);
  Cycle(k, 100, 0);  // plenty of split-phase writes
  // No new conflicts, but write sampling retains the record for the next split phase.
  EXPECT_TRUE(engine_->HasSplitCandidates());
  Cycle(k, 100, 0);
  EXPECT_EQ(engine_->LastPlanSize(), 1u);
}

TEST_F(ClassifierDynamicsTest, StashPressureUnsplitsAndSuppresses) {
  Options opts;
  opts.classifier.min_split_writes = 10;
  opts.classifier.unsplit_stash_ratio = 1.0;
  opts.classifier.resplit_suppress_phases = 100;
  Build(opts);
  const Key k = Key::FromU64(1);
  store_.LoadInt(k, 0);
  Conflicts(k, OpCode::kAdd, 50);
  Cycle(k, 20, 100);  // stashes far outnumber writes: must be un-split + suppressed
  EXPECT_FALSE(engine_->HasSplitCandidates()) << "retention must drop the record";
  // Fresh conflicts arrive, but the suppression window blocks re-splitting.
  Conflicts(k, OpCode::kAdd, 50);
  Cycle(k, 20, 0);
  EXPECT_EQ(engine_->LastPlanSize(), 0u);
}

TEST_F(ClassifierDynamicsTest, LowWriteRateUnsplits) {
  Options opts;
  opts.classifier.min_split_writes = 50;
  Build(opts);
  const Key k = Key::FromU64(1);
  store_.LoadInt(k, 0);
  Conflicts(k, OpCode::kAdd, 50);
  Cycle(k, 5, 0);  // too few split-phase writes: not worth keeping split
  EXPECT_FALSE(engine_->HasSplitCandidates());
}

// Regression (classifier skew under eviction churn): the sampler's space-saving
// replacement inherits the victim's count, so an entry's count can exceed the sum of
// its own op tallies. BarrierBuildPlan used the raw count, and the inflated denominator
// made min_splittable_fraction refuse to split a genuine heavy hitter whose entry had
// been through an eviction. The fix clamps the classified count to the op-tally sum.
// This drives the exact eviction deterministically: keys that collide in the sampler's
// probe window are computed from Key::Hash, the window is filled with mid-count churn
// entries, and the heavy hitter's first conflict is forced to inherit a victim's count.
TEST_F(ClassifierDynamicsTest, EvictionInheritanceDoesNotSkewClassification) {
  Options opts;
  Build(opts);

  // Keys whose sampler slots share one probe window (sampler capacity is 512; if that
  // default grows these keys simply stop colliding and the test degrades to trivially
  // passing rather than breaking).
  constexpr std::uint64_t kSamplerMask = 511;
  std::vector<Key> colliders;
  const std::uint64_t target = Key::FromU64(1).Hash() & kSamplerMask;
  for (std::uint64_t id = 1; colliders.size() < 10 && id < 1000000; ++id) {
    const Key k = Key::FromU64(id);
    if ((k.Hash() & kSamplerMask) == target) {
      colliders.push_back(k);
      store_.LoadInt(k, 0);
    }
  }
  ASSERT_EQ(colliders.size(), 10u);

  // Fill the probe window (8 slots) with Get-churn entries of count 50 each.
  for (int i = 0; i < 8; ++i) {
    Conflicts(colliders[static_cast<std::size_t>(i)], OpCode::kGet, 50);
  }
  // The heavy hitter's first sample must evict a count-50 victim and inherit its count:
  // entry becomes count=51 with op_counts[kAdd]=1, then accumulates 9 more real Adds.
  // Pre-fix: splittable 10 / count 60 < 0.25 => refused. Post-fix: clamped to 10/10.
  const Key hot = colliders[8];
  Conflicts(hot, OpCode::kAdd, 10);
  // A one-shot churn key that also inherits a big count must NOT be promoted: its
  // clamped count (1) is below min_conflicts even though its raw count is ~51.
  const Key churn = colliders[9];
  Conflicts(churn, OpCode::kAdd, 1);

  EnterSplit();
  Record* hot_r = store_.Find(hot);
  Record* churn_r = store_.Find(churn);
  ASSERT_NE(hot_r, nullptr);
  ASSERT_NE(churn_r, nullptr);
  EXPECT_TRUE(hot_r->IsSplit()) << "inherited count skew refused the heavy hitter";
  EXPECT_FALSE(churn_r->IsSplit()) << "inherited count promoted a one-shot churn key";
  EnterJoined();
}

// ---- Per-partition scan-conflict signal ----

// A hot scanned window with a contended interior record: scanners keep losing read-set
// validation to writers incrementing a record inside the window. Record-level sampling
// charges the losers' op (kGet), which min_splittable_fraction refuses forever; the
// per-partition scan attribution carries the winners' op (the record's last committed
// write), so the classifier splits the record within the next joined -> split
// transition — i.e. well inside the required two joined phases. This is the regression
// test that a scan-window conflict alone can drive a record split.
TEST_F(ClassifierDynamicsTest, ScanWindowConflictAloneDrivesRecordSplit) {
  Options opts;
  Build(opts, 2);
  constexpr std::uint64_t kT = 2;
  for (std::uint64_t i = 10; i <= 20; ++i) {
    store_.LoadInt(Key::Table(kT, i), 0);
  }
  const Key hot = Key::Table(kT, 15);
  Worker& scanner = *workers_[0];
  Worker& writer = *workers_[1];

  for (int i = 0; i < 12; ++i) {
    Txn& t = scanner.txn;
    t.Reset(engine_.get(), &scanner);
    (void)t.Scan(kT, 10, 20, 0, [](const Key&, const ReadResult&) { return true; });
    // A writer commits an Add on the interior record while the scan is open.
    writer.txn.Reset(engine_.get(), &writer);
    writer.txn.Add(hot, 1);
    ASSERT_EQ(engine_->Commit(writer, writer.txn), TxnStatus::kCommitted);
    ASSERT_EQ(engine_->Commit(scanner, t), TxnStatus::kConflict);
    ASSERT_FALSE(t.scan_set_conflicts.empty());
    engine_->OnConflict(scanner, t);
  }

  EnterSplit();
  Record* r = store_.Find(hot);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->IsSplit()) << "scan-window votes must split the interior record";
  auto entries = engine_->LastPlanEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second, OpCode::kAdd) << "split op must be the winners' op";
  EnterJoined();
}

// Control for the test above: the same contention pattern expressed as plain point
// reads (no scan) must NOT split the record — read-mostly records stay reconciled
// (§5.5); the scan window is what changes the verdict.
TEST_F(ClassifierDynamicsTest, PlainReadConflictsDoNotSplit) {
  Options opts;
  Build(opts, 2);
  const Key hot = Key::FromU64(15);
  store_.LoadInt(hot, 0);
  Worker& reader = *workers_[0];
  Worker& writer = *workers_[1];

  for (int i = 0; i < 12; ++i) {
    Txn& t = reader.txn;
    t.Reset(engine_.get(), &reader);
    (void)t.GetInt(hot);
    writer.txn.Reset(engine_.get(), &writer);
    writer.txn.Add(hot, 1);
    ASSERT_EQ(engine_->Commit(writer, writer.txn), TxnStatus::kCommitted);
    ASSERT_EQ(engine_->Commit(reader, t), TxnStatus::kConflict);
    engine_->OnConflict(reader, t);
  }

  EnterSplit();
  Record* r = store_.Find(hot);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->IsSplit());
  EnterJoined();
}

// ---- Adaptive boundary narrowing ----

TEST_F(ClassifierDynamicsTest, SkewedInsertsNarrowAdaptiveTable) {
  Options opts;
  opts.index_tune.min_inserts = 512;
  Build(opts);
  store_.ConfigureTable(6, {40, 64, true});
  for (std::uint64_t i = 0; i < 2000; ++i) {
    store_.LoadInt(Key::Table(6, i), 1);  // dense sub-2^40 keys: all on stripe 0
  }
  EXPECT_TRUE(IndexTunePending());
  TuneIndexes();
  const OrderedIndex::TableStats st = store_.index().StatsFor(6);
  EXPECT_EQ(st.rebins, 1u);
  // bit_width(1999) = 11, +1 headroom bit, minus log2(64 stripes).
  EXPECT_EQ(st.shift, 6u);
  EXPECT_EQ(st.entries, 2000u);
  // A fresh interval starts at the evaluation: nothing pending until new telemetry.
  EXPECT_FALSE(IndexTunePending());
  // Scans see every row across the re-binned layout.
  w_->txn.Reset(engine_.get(), w_);
  EXPECT_EQ(w_->txn.Scan(6, 0, 1ULL << 41, 0,
                         [](const Key&, const ReadResult&) { return true; }),
            2000u);
  ASSERT_EQ(engine_->Commit(*w_, w_->txn), TxnStatus::kCommitted);
}

TEST_F(ClassifierDynamicsTest, NarrowingDoesNotFireOnUniformWorkload) {
  Options opts;
  opts.index_tune.min_inserts = 256;
  Build(opts);
  // Uniform: 64 keys into each of the 16 configured stripes.
  store_.ConfigureTable(7, {12, 16, true});
  for (std::uint64_t i = 0; i < 1024; ++i) {
    store_.LoadInt(Key::Table(7, ((i % 16) << 12) | (i / 16)), 1);
  }
  EXPECT_FALSE(IndexTunePending());
  TuneIndexes();
  EXPECT_EQ(store_.index().StatsFor(7).rebins, 0u);
  EXPECT_EQ(store_.index().StatsFor(7).shift, 12u);

  // Contrast: the same volume collapsed onto one stripe narrows.
  store_.ConfigureTable(8, {12, 16, true});
  for (std::uint64_t i = 0; i < 1024; ++i) {
    store_.LoadInt(Key::Table(8, i), 1);
  }
  EXPECT_TRUE(IndexTunePending());
  TuneIndexes();
  EXPECT_EQ(store_.index().StatsFor(8).rebins, 1u);
  // bit_width(1023) = 10, +1 headroom bit, minus log2(16).
  EXPECT_EQ(store_.index().StatsFor(8).shift, 7u);
}

TEST_F(ClassifierDynamicsTest, PhantomScanPressureNarrowsAdaptiveTable) {
  Options opts;
  opts.index_tune.min_inserts = std::uint64_t{1} << 30;  // isolate the conflict trigger
  opts.index_tune.scan_conflict_pressure = 16;
  Build(opts);
  store_.ConfigureTable(9, {40, 64, true});
  for (std::uint64_t i = 0; i < 1000; ++i) {
    store_.LoadInt(Key::Table(9, i), 1);
  }
  EXPECT_FALSE(IndexTunePending());
  // Inserts keep invalidating scans of the one overloaded stripe (raw telemetry the
  // OCC commit path and 2PL lock timeouts feed).
  OrderedIndex::TableIndex* t = store_.index().FindTable(9);
  ASSERT_NE(t, nullptr);
  t->partitions[0].scan_conflicts.store(20);
  EXPECT_TRUE(IndexTunePending());
  TuneIndexes();
  const OrderedIndex::TableStats st = store_.index().StatsFor(9);
  EXPECT_EQ(st.rebins, 1u);
  EXPECT_EQ(st.shift, 5u);  // bit_width(999) = 10, +1 headroom bit, minus log2(64)
}

// With consistent tallies, a genuine heavy hitter survives churn and still splits.
TEST_F(ClassifierDynamicsTest, HeavyHitterSplitsDespiteEvictionChurn) {
  Options opts;
  Build(opts);
  const Key hot = Key::FromU64(1);
  store_.LoadInt(hot, 0);
  Rng rng(21);
  for (int i = 0; i < 5000; ++i) {
    const Key churn = Key::FromU64(1000 + rng.NextBounded(1u << 14));
    store_.LoadInt(churn, 0);
    Conflicts(churn, OpCode::kGet, 1);
    if (i % 8 == 0) {
      Conflicts(hot, OpCode::kAdd, 1);
    }
  }
  EnterSplit();
  Record* r = store_.Find(hot);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->IsSplit()) << "churned sampler must still classify the heavy hitter";
  EnterJoined();
}

}  // namespace
}  // namespace doppel
