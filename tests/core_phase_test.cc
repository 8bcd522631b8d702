// Tests for the quiesce barrier, the conflict sampler, and the worker-side transition
// protocol driven manually (no coordinator thread).
#include <gtest/gtest.h>

#include <thread>

#include "src/core/doppel_engine.h"
#include "src/core/quiesce.h"
#include "src/core/runner.h"
#include "src/core/sampler.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

TEST(QuiesceBarrier, EncodeDecodeRoundTrip) {
  for (std::uint64_t seq : {0ULL, 1ULL, 77ULL, 1ULL << 40}) {
    for (Phase p : {Phase::kJoined, Phase::kSplit}) {
      const std::uint64_t w = QuiesceBarrier::Encode(seq, p);
      EXPECT_EQ(QuiesceBarrier::DecodeSeq(w), seq);
      EXPECT_EQ(QuiesceBarrier::DecodePhase(w), p);
    }
  }
}

TEST(QuiesceBarrier, InitialStateJoinedReleased) {
  const std::atomic<bool> stop{false};
  QuiesceBarrier ctrl(1, stop);
  EXPECT_FALSE(ctrl.TransitionInFlight());
  EXPECT_EQ(ctrl.CurrentReleasedPhase(), Phase::kJoined);
  EXPECT_EQ(ctrl.pending(), ctrl.released());
}

TEST(QuiesceBarrier, TransitionSequence) {
  const std::atomic<bool> stop{false};
  QuiesceBarrier ctrl(1, stop);
  const std::uint64_t w1 = ctrl.BeginTransition(Phase::kSplit);
  EXPECT_TRUE(ctrl.TransitionInFlight());
  EXPECT_EQ(QuiesceBarrier::DecodePhase(w1), Phase::kSplit);
  EXPECT_EQ(QuiesceBarrier::DecodeSeq(w1), 1u);
  ctrl.Release();
  EXPECT_FALSE(ctrl.TransitionInFlight());
  EXPECT_EQ(ctrl.CurrentReleasedPhase(), Phase::kSplit);
  const std::uint64_t w2 = ctrl.BeginTransition(Phase::kJoined);
  EXPECT_EQ(QuiesceBarrier::DecodeSeq(w2), 2u);
  ctrl.Release();
  EXPECT_EQ(ctrl.CurrentReleasedPhase(), Phase::kJoined);
}

TEST(Sampler, EveryConflictCountedAtRateOne) {
  ConflictSampler s(1);
  for (int i = 0; i < 10; ++i) {
    s.RecordConflict(Key::FromU64(1), OpCode::kAdd);
  }
  EXPECT_EQ(s.ApproxTotal(), 10u);
  int found = 0;
  for (const auto& e : s.entries()) {
    if (e.used && e.key == Key::FromU64(1)) {
      found++;
      EXPECT_EQ(e.count, 10u);
      EXPECT_EQ(e.op_counts[static_cast<int>(OpCode::kAdd)], 10u);
    }
  }
  EXPECT_EQ(found, 1);
}

TEST(Sampler, SamplingRateApproximation) {
  ConflictSampler s(8);
  for (int i = 0; i < 800; ++i) {
    s.RecordConflict(Key::FromU64(1), OpCode::kAdd);
  }
  EXPECT_EQ(s.ApproxTotal(), 100u);  // deterministic tick-based 1/8
}

TEST(Sampler, TracksOpsSeparately) {
  ConflictSampler s(1);
  s.RecordConflict(Key::FromU64(1), OpCode::kAdd);
  s.RecordConflict(Key::FromU64(1), OpCode::kGet);
  s.RecordConflict(Key::FromU64(1), OpCode::kGet);
  for (const auto& e : s.entries()) {
    if (e.used) {
      EXPECT_EQ(e.op_counts[static_cast<int>(OpCode::kAdd)], 1u);
      EXPECT_EQ(e.op_counts[static_cast<int>(OpCode::kGet)], 2u);
    }
  }
}

TEST(Sampler, ClearResets) {
  ConflictSampler s(1);
  s.RecordConflict(Key::FromU64(1), OpCode::kAdd);
  s.Clear();
  EXPECT_EQ(s.ApproxTotal(), 0u);
  for (const auto& e : s.entries()) {
    EXPECT_FALSE(e.used);
  }
}

TEST(Sampler, HeavyHitterSurvivesChurn) {
  ConflictSampler s(1, 64);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    s.RecordConflict(Key::FromU64(777), OpCode::kAdd);  // the heavy hitter
    s.RecordConflict(Key::FromU64(rng.NextBounded(100000)), OpCode::kAdd);  // churn
  }
  std::uint32_t hot_count = 0;
  for (const auto& e : s.entries()) {
    if (e.used && e.key == Key::FromU64(777)) {
      hot_count = e.count;
    }
  }
  // Space-saving guarantees the heavy hitter stays resident with a count at least its
  // true frequency (inherited counts can only inflate it).
  EXPECT_GE(hot_count, 20000u);
}

// ---- Manual phase transitions against a real DoppelEngine ----

class ManualPhaseTest : public ::testing::Test {
 protected:
  ManualPhaseTest() : store_(1 << 10), engine_(store_, Options{}) {}

  void StartWorkers(int n) {
    for (int i = 0; i < n; ++i) {
      workers_.push_back(std::make_unique<Worker>(i, 17 + i));
    }
    engine_.RegisterWorkers(workers_);
    barrier_ = std::make_unique<QuiesceBarrier>(n, stop_);
    for (auto& w : workers_) {
      Worker* worker = w.get();
      threads_.emplace_back([this, worker] {
        while (!stop_.load()) {
          barrier_->Acknowledge(*worker, &engine_, cfg_);
          std::this_thread::yield();
        }
      });
    }
  }

  void TearDown() override {
    stop_ = true;
    // Unblock anyone waiting on a release.
    if (barrier_ != nullptr) {
      barrier_->Release();
    }
    for (auto& t : threads_) {
      t.join();
    }
  }

  std::atomic<bool> stop_{false};
  Store store_;
  DoppelEngine engine_;
  const RunnerConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<QuiesceBarrier> barrier_;
  std::vector<std::thread> threads_;
};

TEST_F(ManualPhaseTest, WorkersFollowTransitions) {
  StartWorkers(2);
  EXPECT_EQ(workers_[0]->LoadPhase(), Phase::kJoined);

  barrier_->BeginTransition(Phase::kSplit);
  barrier_->WaitForAcks();
  engine_.BarrierBuildPlan();
  barrier_->Release();
  // Workers observe the release and enter the split phase.
  for (auto& w : workers_) {
    while (w->LoadPhase() != Phase::kSplit && !stop_.load()) {
      std::this_thread::yield();
    }
    EXPECT_EQ(w->LoadPhase(), Phase::kSplit);
  }

  barrier_->BeginTransition(Phase::kJoined);
  barrier_->WaitForAcks();
  engine_.BarrierAfterReconcile();
  barrier_->Release();
  for (auto& w : workers_) {
    while (w->LoadPhase() != Phase::kJoined && !stop_.load()) {
      std::this_thread::yield();
    }
    EXPECT_EQ(w->LoadPhase(), Phase::kJoined);
  }
}

TEST_F(ManualPhaseTest, ManualLabelSplitsDuringSplitPhase) {
  const Key hot = Key::FromU64(5);
  store_.LoadInt(hot, 0);
  engine_.MarkSplitManually(hot, OpCode::kAdd);
  EXPECT_TRUE(engine_.HasSplitCandidates());
  StartWorkers(2);

  barrier_->BeginTransition(Phase::kSplit);
  barrier_->WaitForAcks();
  engine_.BarrierBuildPlan();
  EXPECT_EQ(engine_.LastPlanSize(), 1u);
  Record* r = store_.Find(hot);
  EXPECT_TRUE(r->IsSplit());
  EXPECT_EQ(static_cast<OpCode>(r->split_op()), OpCode::kAdd);
  barrier_->Release();

  barrier_->BeginTransition(Phase::kJoined);
  barrier_->WaitForAcks();
  engine_.BarrierAfterReconcile();
  barrier_->Release();
  EXPECT_FALSE(r->IsSplit());  // reconciled again in joined phases
}

TEST_F(ManualPhaseTest, PlanSnapshotReflectsEntries) {
  engine_.MarkSplitManually(Key::FromU64(1), OpCode::kMax);
  engine_.MarkSplitManually(Key::FromU64(2), OpCode::kTopKInsert, 7);
  StartWorkers(1);
  barrier_->BeginTransition(Phase::kSplit);
  barrier_->WaitForAcks();
  engine_.BarrierBuildPlan();
  barrier_->Release();
  const auto entries = engine_.LastPlanEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, Key::FromU64(1));
  EXPECT_EQ(entries[0].second, OpCode::kMax);
  EXPECT_EQ(entries[1].second, OpCode::kTopKInsert);
  barrier_->BeginTransition(Phase::kJoined);
  barrier_->WaitForAcks();
  engine_.BarrierAfterReconcile();
  barrier_->Release();
}

TEST(ClassifierThresholds, NoCandidatesWithoutConflicts) {
  Store store(64);
  Options opts;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 1));
  engine.RegisterWorkers(workers);
  EXPECT_FALSE(engine.HasSplitCandidates());
}

TEST(ClassifierThresholds, ManualOnlyIgnoresSampledConflicts) {
  Store store(64);
  Options opts;
  opts.manual_split_only = true;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 1));
  engine.RegisterWorkers(workers);
  store.LoadInt(Key::FromU64(1), 0);
  // Simulate sampled conflicts via the hook.
  Worker& w = *workers[0];
  w.txn.Reset(&engine, &w);
  w.txn.conflict_record = store.Find(Key::FromU64(1));
  w.txn.conflict_op = OpCode::kAdd;
  for (int i = 0; i < 100; ++i) {
    engine.OnConflict(w, w.txn);
  }
  EXPECT_FALSE(engine.HasSplitCandidates());
  engine.BarrierBuildPlan();
  EXPECT_EQ(engine.LastPlanSize(), 0u);
}

TEST(ClassifierThresholds, SampledConflictsProduceSplitPlan) {
  Store store(64);
  Options opts;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 1));
  engine.RegisterWorkers(workers);
  store.LoadInt(Key::FromU64(1), 0);
  Worker& w = *workers[0];
  w.txn.Reset(&engine, &w);
  w.txn.conflict_record = store.Find(Key::FromU64(1));
  w.txn.conflict_op = OpCode::kAdd;
  for (int i = 0; i < 100; ++i) {
    engine.OnConflict(w, w.txn);
  }
  EXPECT_TRUE(engine.HasSplitCandidates());
  engine.BarrierBuildPlan();
  ASSERT_EQ(engine.LastPlanSize(), 1u);
  EXPECT_TRUE(store.Find(Key::FromU64(1))->IsSplit());
  engine.BarrierAfterReconcile();
  EXPECT_FALSE(store.Find(Key::FromU64(1))->IsSplit());
}

TEST(ClassifierThresholds, ReadDominatedConflictsDoNotSplit) {
  Store store(64);
  Options opts;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 1));
  engine.RegisterWorkers(workers);
  store.LoadInt(Key::FromU64(1), 0);
  Worker& w = *workers[0];
  // 95% of conflicts are read (kGet) conflicts: splitting would stash the readers.
  for (int i = 0; i < 100; ++i) {
    w.txn.Reset(&engine, &w);
    w.txn.conflict_record = store.Find(Key::FromU64(1));
    w.txn.conflict_op = i < 95 ? OpCode::kGet : OpCode::kAdd;
    engine.OnConflict(w, w.txn);
  }
  engine.BarrierBuildPlan();
  EXPECT_EQ(engine.LastPlanSize(), 0u);
}

TEST(ClassifierThresholds, MaxSplitRecordsCap) {
  Store store(1 << 10);
  Options opts;
  opts.classifier.max_split_records = 3;
  opts.classifier.split_conflict_fraction = 0.0;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 1));
  engine.RegisterWorkers(workers);
  Worker& w = *workers[0];
  for (std::uint64_t k = 0; k < 10; ++k) {
    store.LoadInt(Key::FromU64(k), 0);
    for (int i = 0; i < 50; ++i) {
      w.txn.Reset(&engine, &w);
      w.txn.conflict_record = store.Find(Key::FromU64(k));
      w.txn.conflict_op = OpCode::kAdd;
      engine.OnConflict(w, w.txn);
    }
  }
  engine.BarrierBuildPlan();
  EXPECT_EQ(engine.LastPlanSize(), 3u);
}

}  // namespace
}  // namespace doppel
