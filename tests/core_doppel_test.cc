// End-to-end Database tests for phase reconciliation: classification, splitting,
// stashing, reconciliation exactness, adaptivity, and the Execute API.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/core/database.h"
#include "src/workload/driver.h"
#include "src/workload/incr.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

using testing::IntAt;

Options FastDoppel(int workers = 2) {
  Options o;
  o.protocol = Protocol::kDoppel;
  o.num_workers = workers;
  o.phase_us = 2000;  // 2ms phases: many cycles per test second
  o.store_capacity = 1 << 14;
  return o;
}

TEST(Doppel, HotKeySplitsWithinBoundedTime) {
  Database db(FastDoppel());
  PopulateIncr(db.store(), 64);
  std::atomic<std::uint64_t> hot{0};
  db.Start(MakeIncr1Factory(64, 100, &hot));
  bool split = false;
  for (int i = 0; i < 200 && !split; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    split = db.LastPlanSize() >= 1;
  }
  db.Stop();
  EXPECT_TRUE(split) << "100% hot-key Adds must be detected and split within 2s";
  EXPECT_EQ(IntAt(db.store(), IncrKey(0)),
            static_cast<std::int64_t>(db.CollectStats().committed));
}

TEST(Doppel, UniformWorkloadNeverSplits) {
  Database db(FastDoppel());
  PopulateIncr(db.store(), 8192);
  std::atomic<std::uint64_t> hot{0};
  RunMetrics m = RunWorkload(db, MakeIncr1Factory(8192, 0, &hot), 400, 50);
  // Rare random collisions may trigger an (empty) split-phase check, but no record has
  // enough conflicts to qualify for splitting.
  EXPECT_EQ(m.split_records, 0u);
}

TEST(Doppel, RotatingHotKeyResplits) {
  Database db(FastDoppel());
  PopulateIncr(db.store(), 64);
  std::atomic<std::uint64_t> hot{0};
  db.Start(MakeIncr1Factory(64, 100, &hot));

  auto wait_for_split_of = [&](std::uint64_t key_id) {
    for (int i = 0; i < 300; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (const auto& [key, op] : db.doppel()->LastPlanEntries()) {
        if (key == IncrKey(key_id) && op == OpCode::kAdd) {
          return true;
        }
      }
    }
    return false;
  };
  EXPECT_TRUE(wait_for_split_of(0));
  hot.store(7);  // popularity moves (§8.3)
  EXPECT_TRUE(wait_for_split_of(7));
  db.Stop();
  // Exactness across the change: every commit incremented exactly one key.
  std::int64_t sum = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    sum += IntAt(db.store(), IncrKey(k));
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(db.CollectStats().committed));
}

TEST(Doppel, ManualLabelingSplitsImmediately) {
  Options o = FastDoppel();
  o.manual_split_only = true;
  Database db(o);
  PopulateIncr(db.store(), 64);
  db.MarkSplitManually(IncrKey(3), OpCode::kAdd);
  std::atomic<std::uint64_t> hot{3};
  RunMetrics m = RunWorkload(db, MakeIncr1Factory(64, 100, &hot), 300, 50);
  EXPECT_EQ(m.split_records, 1u);
  const auto entries = db.doppel()->LastPlanEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, IncrKey(3));
  EXPECT_EQ(IntAt(db.store(), IncrKey(3)),
            static_cast<std::int64_t>(m.stats.committed));
}

TEST(Doppel, ReadsOfSplitDataStashAndStillCommit) {
  Options o = FastDoppel();
  o.manual_split_only = true;
  o.phase_us = 5000;
  Database db(o);
  db.store().LoadInt(Key::FromU64(1), 0);
  db.MarkSplitManually(Key::FromU64(1), OpCode::kAdd);

  // A writer source keeps the split phases busy.
  struct AddSource : TxnSource {
    TxnRequest Next(Worker&) override {
      TxnRequest r;
      r.proc = +[](Txn& t, const TxnArgs&) { t.Add(Key::FromU64(1), 1); };
      return r;
    }
  };
  db.Start([](int) { return std::make_unique<AddSource>(); });

  // The coordinator opens with a full joined phase, and 50 uncontended reads finish
  // well inside one, so start reading only once a split phase is running.
  const QuiesceBarrier& barrier = db.barrier();
  bool split = false;
  for (int i = 0; i < 2000 && !split; ++i) {
    split = barrier.CurrentReleasedPhase() == Phase::kSplit;
    if (!split) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ASSERT_TRUE(split) << "a manually split record must start split phases";

  // Reads submitted while split phases cycle must block (stash) but eventually commit
  // with a value consistent with all merges so far.
  std::int64_t prev = -1;
  for (int i = 0; i < 50; ++i) {
    std::int64_t v = -1;
    TxnResult res = db.Execute([&](Txn& t) { v = t.GetInt(Key::FromU64(1)).value_or(0); });
    ASSERT_TRUE(res.committed);
    EXPECT_GE(v, prev);  // counter only grows
    prev = v;
  }
  db.Stop();
  EXPECT_GT(db.CollectStats().stash_events, 0u)
      << "with 5ms phases and a hot writer, some reads must have stashed";
  // All commits except the 50 read transactions incremented the counter.
  EXPECT_EQ(IntAt(db.store(), Key::FromU64(1)),
            static_cast<std::int64_t>(db.CollectStats().committed) - 50);
}

TEST(Doppel, PairedAddsStayEqualForReaders) {
  // Writers Add to (a, b) in one transaction; committed readers must always observe
  // a == b. Exercises stash ordering and barrier ordering of merges (§5.6).
  Options o = FastDoppel();
  o.phase_us = 3000;
  Database db(o);
  const Key a = Key::FromU64(1);
  const Key b = Key::FromU64(2);
  db.store().LoadInt(a, 0);
  db.store().LoadInt(b, 0);

  struct PairSource : TxnSource {
    TxnRequest Next(Worker&) override {
      TxnRequest r;
      r.proc = +[](Txn& t, const TxnArgs&) {
        t.Add(Key::FromU64(1), 1);
        t.Add(Key::FromU64(2), 1);
      };
      return r;
    }
  };
  db.Start([](int) { return std::make_unique<PairSource>(); });
  for (int i = 0; i < 100; ++i) {
    std::int64_t va = -1;
    std::int64_t vb = -2;
    TxnResult res = db.Execute([&](Txn& t) {
      va = t.GetInt(Key::FromU64(1)).value_or(0);
      vb = t.GetInt(Key::FromU64(2)).value_or(0);
    });
    ASSERT_TRUE(res.committed);
    EXPECT_EQ(va, vb) << "transactionally-paired counters diverged";
  }
  db.Stop();
  EXPECT_EQ(IntAt(db.store(), a), IntAt(db.store(), b));
}

TEST(Doppel, ExecuteUserAbortReported) {
  Database db(FastDoppel());
  db.store().LoadInt(Key::FromU64(1), 5);
  db.Start();
  TxnResult res = db.Execute([](Txn& t) {
    t.PutInt(Key::FromU64(1), 99);
    t.UserAbort();
  });
  EXPECT_FALSE(res.committed);
  db.Stop();
  EXPECT_EQ(IntAt(db.store(), Key::FromU64(1)), 5);
}

TEST(Doppel, ExecuteFromManyClientThreads) {
  Database db(FastDoppel());
  db.store().LoadInt(Key::FromU64(1), 0);
  db.Start();
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE(db.Execute([](Txn& t) { t.Add(Key::FromU64(1), 1); }).committed);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  db.Stop();
  EXPECT_EQ(IntAt(db.store(), Key::FromU64(1)), 1000);
}

TEST(Doppel, SingleWorkerStillExact) {
  Database db(FastDoppel(1));
  PopulateIncr(db.store(), 16);
  std::atomic<std::uint64_t> hot{0};
  RunMetrics m = RunWorkload(db, MakeIncr1Factory(16, 100, &hot), 300, 50);
  EXPECT_EQ(IntAt(db.store(), IncrKey(0)), static_cast<std::int64_t>(m.stats.committed));
}

TEST(Doppel, StopDuringSplitPhaseReconcilesEverything) {
  // Stop() must land all slice state in the global store even when called mid-split.
  Options o = FastDoppel();
  o.phase_us = 50000;  // long phases: Stop almost certainly lands inside a split phase
  o.manual_split_only = true;
  Database db(o);
  db.store().LoadInt(Key::FromU64(1), 0);
  db.MarkSplitManually(Key::FromU64(1), OpCode::kAdd);
  struct AddSource : TxnSource {
    TxnRequest Next(Worker&) override {
      TxnRequest r;
      r.proc = +[](Txn& t, const TxnArgs&) { t.Add(Key::FromU64(1), 1); };
      return r;
    }
  };
  db.Start([](int) { return std::make_unique<AddSource>(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  db.Stop();
  EXPECT_EQ(IntAt(db.store(), Key::FromU64(1)),
            static_cast<std::int64_t>(db.CollectStats().committed));
}

// Adds 1 to key 1 (tag 0); with `read_every` > 0, every read_every-th transaction of a
// worker reads key 1 instead (tag 1), which stashes while the key is split.
struct SplitKeySource : TxnSource {
  explicit SplitKeySource(int read_every) : read_every(read_every) {}
  TxnRequest Next(Worker&) override {
    TxnRequest r;
    if (read_every > 0 && ++n % read_every == 0) {
      r.proc = +[](Txn& t, const TxnArgs&) { (void)t.GetInt(Key::FromU64(1)); };
      r.args.tag = 1;
    } else {
      r.proc = +[](Txn& t, const TxnArgs&) { t.Add(Key::FromU64(1), 1); };
    }
    return r;
  }
  int read_every;
  std::uint64_t n = 0;
};

// Phase times of a manually split key under SplitKeySource, over a 300 ms window.
struct PhaseShares {
  double split_share;        // split_ns / (split_ns + joined_ns)
  double joined_per_cycle;   // mean joined phase, as a share of phase_us
};

// Runs SplitKeySource on a database with key 1 split manually and measures its phases.
// Checks the counter: every committed Add, and nothing else, reached it.
PhaseShares MeasurePhases(int read_every) {
  Options o = FastDoppel();
  o.manual_split_only = true;
  Database db(o);
  db.store().LoadInt(Key::FromU64(1), 0);
  db.MarkSplitManually(Key::FromU64(1), OpCode::kAdd);
  db.Start([read_every](int) { return std::make_unique<SplitKeySource>(read_every); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // past the first cycle
  const Coordinator::StageTimes t0 = db.coordinator()->stage_times();
  const std::uint64_t c0 = db.coordinator()->completed_cycles();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Coordinator::StageTimes t1 = db.coordinator()->stage_times();
  const std::uint64_t c1 = db.coordinator()->completed_cycles();
  db.Stop();
  const Database::Stats stats = db.CollectStats();
  EXPECT_EQ(IntAt(db.store(), Key::FromU64(1)),
            static_cast<std::int64_t>(stats.committed_by_tag[0]));
  EXPECT_EQ(stats.committed_by_tag[0] + stats.committed_by_tag[1], stats.committed);
  const double split = static_cast<double>(t1.split_ns - t0.split_ns);
  const double joined = static_cast<double>(t1.joined_ns - t0.joined_ns);
  const double cycles = static_cast<double>(std::max<std::uint64_t>(c1 - c0, 1));
  return {split / (split + joined),
          joined / cycles / (static_cast<double>(o.phase_us) * 1000.0)};
}

TEST(Doppel, CleanSplitPhasesShortenJoinedPhase) {
  // Add-only writers never stash: each joined phase is the phase_us / 10 floor, so
  // split phases take most of the time (about 0.9 nominally).
  EXPECT_GE(MeasurePhases(/*read_every=*/0).split_share, 0.75);
}

TEST(Doppel, StashingSplitPhasesKeepFullJoinedPhase) {
  // Half the transactions read the split key and stash, so every joined phase keeps
  // its full phase_us. The stash-pressure hurry usually ends split phases early too
  // (share about 0.1), but a build too slow to stash 1000 times in one split phase
  // (TSan) sees equal phases, a share near 0.5; either way far below the floor's 0.9.
  const PhaseShares p = MeasurePhases(/*read_every=*/2);
  EXPECT_GE(p.joined_per_cycle, 0.9);
  EXPECT_LE(p.split_share, 0.6);
}

TEST(Doppel, LatencyTagsRecorded) {
  Database db(FastDoppel());
  PopulateIncr(db.store(), 64);
  std::atomic<std::uint64_t> hot{0};
  RunMetrics m = RunWorkload(db, MakeIncr1Factory(64, 50, &hot), 300, 50);
  EXPECT_GT(m.stats.committed_by_tag[kTagWrite], 0u);
  EXPECT_GT(m.stats.latency_by_tag[kTagWrite].count(), 0u);
  EXPECT_GT(m.stats.latency_by_tag[kTagWrite].Mean(), 0.0);
}

class AllProtocolExactness
    : public ::testing::TestWithParam<std::tuple<Protocol, OpCode>> {};

// Every engine must produce the exact serial-equivalent result for each commutative op
// hammered by all workers on one key.
TEST_P(AllProtocolExactness, HotKeyOpExactness) {
  const auto [protocol, op] = GetParam();
  Options o;
  o.protocol = protocol;
  o.num_workers = 2;
  o.phase_us = 2000;
  o.store_capacity = 1 << 10;
  Database db(o);
  const Key k = Key::FromU64(1);
  db.store().LoadInt(k, 0);
  db.Start();
  constexpr int kOpsPerClient = 400;
  std::atomic<std::int64_t> expected_max{INT64_MIN};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(rng.NextBounded(1000000));
        switch (op) {
          case OpCode::kAdd:
            ASSERT_TRUE(db.Execute([&](Txn& t) { t.Add(k, 1); }).committed);
            break;
          case OpCode::kMax: {
            ASSERT_TRUE(db.Execute([&](Txn& t) { t.Max(k, v); }).committed);
            std::int64_t cur = expected_max.load();
            while (v > cur && !expected_max.compare_exchange_weak(cur, v)) {
            }
            break;
          }
          default:
            break;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  db.Stop();
  if (op == OpCode::kAdd) {
    EXPECT_EQ(IntAt(db.store(), k), 2 * kOpsPerClient);
  } else {
    EXPECT_EQ(IntAt(db.store(), k), std::max<std::int64_t>(0, expected_max.load()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllProtocolExactness,
    ::testing::Combine(::testing::Values(Protocol::kDoppel, Protocol::kOcc,
                                         Protocol::kTwoPL, Protocol::kAtomic),
                       ::testing::Values(OpCode::kAdd, OpCode::kMax)),
    [](const ::testing::TestParamInfo<std::tuple<Protocol, OpCode>>& info) {
      return std::string(ProtocolName(std::get<0>(info.param))) +
             OpName(std::get<1>(info.param));
    });

// Regression (double merge at shutdown): a barrier transition's early stop return acks
// the transition but leaves the worker's seen word stale, so the worker loop re-enters
// the same transition. Before the fix, MergeWorkerSlices never cleared Slice::dirty, and
// the re-entered transition re-merged the same accumulator — double-applying kAdd/kMult
// deltas. The exact interleaving is forced here on a raw engine with no coordinator.
TEST(DoppelRegression, ShutdownReentryDoesNotDoubleMergeSlices) {
  std::atomic<bool> stop{false};
  Store store(1 << 10);
  Options opts;
  opts.manual_split_only = true;
  DoppelEngine engine(store, opts);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(std::make_unique<Worker>(0, 42));
  engine.RegisterWorkers(workers);
  QuiesceBarrier barrier(1, stop);
  const RunnerConfig cfg;
  Worker& w = *workers[0];
  const Key k = Key::FromU64(1);
  store.LoadInt(k, 100);
  engine.MarkSplitManually(k, OpCode::kAdd);

  // JOINED -> SPLIT, single-threaded barrier protocol (as the coordinator would run it).
  barrier.BeginTransition(Phase::kSplit);
  engine.BarrierBuildPlan();
  barrier.Release();
  barrier.Acknowledge(w, &engine, cfg);
  ASSERT_EQ(w.LoadPhase(), Phase::kSplit);

  // One committed split write: the worker's slice now holds a dirty +5 accumulator.
  w.txn.Reset(&engine, &w);
  w.txn.Add(k, 5);
  ASSERT_EQ(engine.Commit(w, w.txn), TxnStatus::kCommitted);

  // SPLIT -> JOINED whose release the worker never observes (the shutdown race): with
  // stop set before the worker notices the transition, it merges, acks, and returns
  // early from the release spin with its seen word still stale...
  barrier.BeginTransition(Phase::kJoined);
  stop.store(true);
  barrier.Acknowledge(w, &engine, cfg);  // merge #1, ack, early return
  // ...so the worker loop re-enters the transition and merges again.
  // Re-entry: must be a no-op on the already-consumed slice.
  barrier.Acknowledge(w, &engine, cfg);
  barrier.Release();
  engine.BarrierAfterReconcile();

  EXPECT_EQ(IntAt(store, k), 105) << "re-entered transition re-applied the Add delta";
}

}  // namespace
}  // namespace doppel
