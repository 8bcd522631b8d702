// Async submission API tests: TxnHandle completion, completion callbacks, per-worker
// MPSC inbox semantics (FIFO, backpressure), batch ordering, drain on Stop, and the
// Execute lost-wakeup regression (the old global deque's try_lock bailout could strand a
// submitted transaction for a full worker cycle).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/database.h"
#include "src/core/inbox.h"
#include "src/txn/occ_engine.h"
#include "tests/test_util.h"

namespace doppel {
namespace {

TxnRequest MakeAdd(const Key& k, std::int64_t n) {
  TxnRequest r;
  r.proc = [](Txn& txn, const TxnArgs& a) { txn.Add(a.k1, a.n); };
  r.args.k1 = k;
  r.args.n = n;
  return r;
}

// ---- SubmitInbox unit tests ----

TEST(SubmitInbox, FifoAndCapacity) {
  SubmitInbox inbox(/*capacity=*/3);  // rounds up to 4
  EXPECT_EQ(inbox.capacity(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    PendingTxn pt;
    pt.req = MakeAdd(Key::FromU64(1), i);
    EXPECT_TRUE(inbox.TryPush(pt));
  }
  PendingTxn overflow;
  overflow.req = MakeAdd(Key::FromU64(1), 99);
  EXPECT_FALSE(inbox.TryPush(overflow));
  EXPECT_EQ(overflow.req.args.n, 99);  // rejected push leaves the item intact
  EXPECT_EQ(inbox.ApproxSize(), 4u);

  for (std::int64_t i = 0; i < 4; ++i) {
    PendingTxn pt;
    ASSERT_TRUE(inbox.TryPop(&pt));
    EXPECT_EQ(pt.req.args.n, i);  // FIFO
  }
  PendingTxn empty;
  EXPECT_FALSE(inbox.TryPop(&empty));
  EXPECT_EQ(inbox.ApproxSize(), 0u);
}

TEST(SubmitInbox, MpscStressDeliversEverythingOnce) {
  SubmitInbox inbox(/*capacity=*/64);
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        PendingTxn pt;
        pt.req = MakeAdd(Key::FromU64(1), p * kPerProducer + i);
        while (!inbox.TryPush(pt)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::int64_t popped = 0;
  std::int64_t sum = 0;
  std::int64_t last_seen[kProducers] = {-1, -1, -1, -1};
  std::thread consumer([&] {
    PendingTxn pt;
    while (true) {
      if (inbox.TryPop(&pt)) {
        const std::int64_t v = pt.req.args.n;
        const int p = static_cast<int>(v / kPerProducer);
        EXPECT_GT(v % kPerProducer, last_seen[p]);  // per-producer order preserved
        last_seen[p] = v % kPerProducer;
        popped++;
        sum += v;
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        break;  // producers joined before `done`: an empty pop now is final
      }
      std::this_thread::yield();
    }
  });
  for (auto& t : producers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  // Drain any leftovers raced past the consumer's final empty check.
  PendingTxn pt;
  while (inbox.TryPop(&pt)) {
    popped++;
    sum += pt.req.args.n;
  }
  const std::int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);  // each value delivered exactly once
}

// ---- Handle completion ----

class AsyncSubmitTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(AsyncSubmitTest, HandlesCompleteAndCounterIsExact) {
  Options opts;
  opts.protocol = GetParam();
  opts.num_workers = 2;
  opts.phase_us = 2000;
  opts.store_capacity = 1024;
  Database db(opts);
  const Key k = Key::FromU64(7);
  db.store().LoadInt(k, 0);
  db.Start();

  constexpr int kOps = 500;
  std::vector<TxnHandle> handles;
  handles.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    handles.push_back(db.Submit(MakeAdd(k, 1)));
  }
  std::uint64_t committed = 0;
  for (TxnHandle& h : handles) {
    ASSERT_TRUE(h.valid());
    TxnResult res = h.Wait();
    EXPECT_TRUE(h.done());
    EXPECT_GE(res.attempts, 1u);
    committed += res.committed ? 1 : 0;
  }
  db.Stop();
  EXPECT_EQ(committed, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(testing::IntAt(db.store(), k), kOps);
}

TEST_P(AsyncSubmitTest, SubmitStampsQueueingLatency) {
  Options opts;
  opts.protocol = GetParam();
  opts.num_workers = 2;
  opts.phase_us = 2000;
  opts.store_capacity = 1024;
  Database db(opts);
  const Key k = Key::FromU64(7);
  db.store().LoadInt(k, 0);
  db.Start();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute([&](Txn& t) { t.Add(k, 1); }).committed);
  }
  db.Stop();
  // Externally submitted transactions must record submission→commit latency (tag 0).
  const Database::Stats stats = db.CollectStats();
  EXPECT_EQ(stats.latency_by_tag[0].count(), 50u);
  EXPECT_GT(stats.latency_by_tag[0].min(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, AsyncSubmitTest,
                         ::testing::Values(Protocol::kDoppel, Protocol::kOcc,
                                           Protocol::kTwoPL));

// ---- Completion callbacks ----

TEST(AsyncSubmit, CallbackRunsOnWorkerThreadExactlyOnce) {
  Options opts;
  opts.protocol = Protocol::kOcc;
  opts.num_workers = 2;
  opts.store_capacity = 64;
  Database db(opts);
  const Key k = Key::FromU64(1);
  db.store().LoadInt(k, 0);
  db.Start();

  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> fired{0};
  std::atomic<bool> on_submitter_thread{false};
  std::atomic<bool> saw_commit{false};

  TxnHandle h = db.Submit(MakeAdd(k, 5));
  h.OnComplete([&](const TxnResult& res) {
    fired.fetch_add(1);
    saw_commit.store(res.committed);
    if (std::this_thread::get_id() == submitter) {
      on_submitter_thread.store(true);
    }
  });
  EXPECT_TRUE(h.Wait().committed);
  // Wait() returning only guarantees the state flip; spin briefly for the callback.
  for (int i = 0; i < 100000 && fired.load() == 0; ++i) {
    std::this_thread::yield();
  }
  db.Stop();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(saw_commit.load());
  // The transaction was in flight when OnComplete was registered (or finished just
  // after); in either case a callback delivered by a worker is not on this thread. When
  // it lost the race and ran inline, on_submitter_thread is legitimately true — accept
  // both, but verify the POD slot below pins the worker thread.

  // POD completion slot: fires on the committing worker's thread.
  struct SlotCtx {
    std::atomic<int> fired{0};
    std::atomic<bool> on_submitter{true};
    std::thread::id submitter;
  } ctx;
  ctx.submitter = submitter;
  TxnRequest req = MakeAdd(k, 1);
  req.on_complete = [](const TxnResult& res, void* p) {
    auto* c = static_cast<SlotCtx*>(p);
    c->fired.fetch_add(1);
    c->on_submitter.store(std::this_thread::get_id() == c->submitter);
    ASSERT_TRUE(res.committed);
  };
  req.on_complete_ctx = &ctx;

  Options opts2 = opts;
  Database db2(opts2);
  db2.store().LoadInt(k, 0);
  db2.Start();
  TxnHandle h2 = db2.Submit(req);
  EXPECT_TRUE(h2.Wait().committed);
  db2.Stop();
  EXPECT_EQ(ctx.fired.load(), 1);
  EXPECT_FALSE(ctx.on_submitter.load());  // ran on a worker, not the submitting thread
}

TEST(AsyncSubmit, OnCompleteAfterCompletionRunsInline) {
  Options opts;
  opts.protocol = Protocol::kOcc;
  opts.num_workers = 1;
  opts.store_capacity = 64;
  Database db(opts);
  const Key k = Key::FromU64(1);
  db.store().LoadInt(k, 0);
  db.Start();
  TxnHandle h = db.Submit(MakeAdd(k, 1));
  h.Wait();
  bool fired = false;
  const std::thread::id self = std::this_thread::get_id();
  h.OnComplete([&](const TxnResult& res) {
    fired = std::this_thread::get_id() == self;  // inline delivery on this thread
    EXPECT_TRUE(res.committed);
  });
  EXPECT_TRUE(fired);
  db.Stop();
}

// ---- Backpressure ----

TEST(AsyncSubmit, TrySubmitReportsQueueFull) {
  Options opts;
  opts.protocol = Protocol::kOcc;  // no barrier is ever due: a blocked worker stalls nothing
  opts.num_workers = 1;
  opts.store_capacity = 64;
  opts.submit_inbox_capacity = 4;
  Database db(opts);
  const Key k = Key::FromU64(1);
  db.store().LoadInt(k, 0);
  db.Start();

  // Park the only worker inside a transaction body so the inbox cannot drain.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  TxnHandle blocker = db.Submit([&](Txn& txn) {
    txn.Add(Key::FromU64(1), 1);
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Fill the inbox past capacity; TrySubmit must eventually report kQueueFull without
  // blocking or dropping accepted work.
  std::vector<TxnHandle> accepted;
  bool saw_full = false;
  for (int i = 0; i < 64 && !saw_full; ++i) {
    TxnHandle h;
    const SubmitStatus s = db.TrySubmit(MakeAdd(k, 1), &h);
    if (s == SubmitStatus::kOk) {
      ASSERT_TRUE(h.valid());
      accepted.push_back(std::move(h));
    } else {
      EXPECT_EQ(s, SubmitStatus::kQueueFull);
      EXPECT_FALSE(h.valid());
      saw_full = true;
    }
  }
  EXPECT_TRUE(saw_full);
  EXPECT_LE(accepted.size(), 4u);

  release.store(true, std::memory_order_release);
  EXPECT_TRUE(blocker.Wait().committed);
  for (TxnHandle& h : accepted) {
    EXPECT_TRUE(h.Wait().committed);
  }
  db.Stop();
  EXPECT_EQ(testing::IntAt(db.store(), k),
            static_cast<std::int64_t>(accepted.size()) + 1);
}

// ---- Batch submission ----

TEST(AsyncSubmit, BatchPreservesPerInboxOrder) {
  Options opts;
  opts.protocol = Protocol::kOcc;
  opts.num_workers = 1;  // one inbox: batch order == execution order
  opts.store_capacity = 64;
  Database db(opts);
  const Key k = Key::FromU64(1);
  db.store().LoadInt(k, 0);
  db.Start();

  struct OrderCtx {
    Spinlock mu;
    std::vector<std::int64_t> order;
  } ctx;
  constexpr std::int64_t kBatch = 200;
  // Completion order is recorded through the POD slot: one Slot per request carries the
  // collector plus that request's batch index.
  struct Slot {
    OrderCtx* ctx;
    std::int64_t index;
  };
  std::vector<Slot> slots(kBatch);
  std::vector<TxnRequest> reqs;
  reqs.reserve(kBatch);
  for (std::int64_t i = 0; i < kBatch; ++i) {
    slots[static_cast<std::size_t>(i)] = Slot{&ctx, i};
    TxnRequest r;
    r.proc = [](Txn& txn, const TxnArgs& a) { txn.PutInt(a.k1, a.n); };
    r.args.k1 = k;
    r.args.n = i;
    r.on_complete = [](const TxnResult& res, void* p) {
      ASSERT_TRUE(res.committed);
      auto* slot = static_cast<Slot*>(p);
      slot->ctx->mu.lock();
      slot->ctx->order.push_back(slot->index);
      slot->ctx->mu.unlock();
    };
    r.on_complete_ctx = &slots[static_cast<std::size_t>(i)];
    reqs.push_back(r);
  }

  std::vector<TxnHandle> handles = db.SubmitBatch(reqs);
  ASSERT_EQ(handles.size(), static_cast<std::size_t>(kBatch));
  for (TxnHandle& h : handles) {
    EXPECT_TRUE(h.Wait().committed);
  }
  db.Stop();

  ASSERT_EQ(ctx.order.size(), static_cast<std::size_t>(kBatch));
  for (std::int64_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(ctx.order[static_cast<std::size_t>(i)], i);  // strict submission order
  }
  // Last writer in batch order determines the final value.
  EXPECT_EQ(testing::IntAt(db.store(), k), kBatch - 1);
}

// ---- Drain on Stop ----

TEST(AsyncSubmit, StopDrainsInFlightHandles) {
  Options opts;
  opts.protocol = Protocol::kDoppel;  // stashes must be replayed before Stop returns
  opts.num_workers = 2;
  opts.phase_us = 1000;
  opts.store_capacity = 1024;
  Database db(opts);
  const Key k = Key::FromU64(3);
  db.store().LoadInt(k, 0);
  db.Start();

  constexpr int kOps = 3000;
  std::vector<TxnHandle> handles;
  handles.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    handles.push_back(db.Submit(MakeAdd(k, 1)));
  }
  // Stop with most submissions still queued: it must drain them all, then join.
  db.Stop();
  std::uint64_t committed = 0;
  for (TxnHandle& h : handles) {
    ASSERT_TRUE(h.done());  // no waiting: Stop() already drained
    committed += h.Wait().committed ? 1 : 0;
  }
  EXPECT_EQ(committed, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(db.InflightSubmissions(), 0u);
  EXPECT_EQ(testing::IntAt(db.store(), k), kOps);
}

// ---- Lost-wakeup regression ----

// The old global submit queue's TryRunSubmitted bailed out when try_lock failed even
// with submit_count_ > 0, so a submitted transaction could sit a full worker-loop pass
// per collision. Hammering Execute from 8 threads against 2 workers made that visible
// as multi-cycle stalls; per-worker MPSC inboxes have no lock to lose.
TEST(AsyncSubmit, ExecuteHammerFromManyThreads) {
  Options opts;
  opts.protocol = Protocol::kDoppel;
  opts.num_workers = 2;
  opts.phase_us = 2000;
  opts.store_capacity = 1024;
  Database db(opts);
  const Key k = Key::FromU64(11);
  db.store().LoadInt(k, 0);
  db.Start();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (db.Execute([&](Txn& txn) { txn.Add(k, 1); }).committed) {
          committed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  db.Stop();
  EXPECT_EQ(committed.load(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(testing::IntAt(db.store(), k), kThreads * kPerThread);
}

// ---- Shutdown with stashed submissions ----

// A submission stashed on split data must not pin Stop() for the rest of the split
// phase: Stop sets the drain flag, the coordinator ends the split phase immediately and
// starts no new one, and the stashed transaction retires in the joined phase. Before the
// fix, Stop's in-flight wait sat out the remaining phase length (2s here).
TEST(AsyncSubmit, StopRetiresStashedSubmissionsPromptly) {
  Options o;
  o.protocol = Protocol::kDoppel;
  o.num_workers = 2;
  o.manual_split_only = true;
  o.phase_us = 2000000;  // 2s phases: a stash early in a split phase has ~2s to wait
  o.store_capacity = 1 << 10;
  Database db(o);
  const Key hot = Key::FromU64(1);
  db.store().LoadInt(hot, 7);
  db.MarkSplitManually(hot, OpCode::kAdd);
  db.Start();

  // Submit reads of the split record during a live split phase until one is observed
  // stashed (a read can slip through unstashed in the instant before a worker finishes
  // entering the split phase, so this retries).
  std::atomic<std::int64_t> seen{-1};
  std::vector<TxnHandle> handles;
  bool stashed = false;
  for (int attempt = 0; attempt < 50 && !stashed; ++attempt) {
    bool in_split = false;
    for (int i = 0; i < 5000 && !in_split; ++i) {
      in_split = db.barrier().CurrentReleasedPhase() == Phase::kSplit;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(in_split);
    handles.push_back(
        db.Submit([&](Txn& t) { seen.store(t.GetInt(hot).value_or(-2)); }));
    for (int i = 0; i < 100 && !stashed; ++i) {
      stashed = db.doppel()->stash_pressure() > 0;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  ASSERT_TRUE(stashed) << "no submitted read ever reached the split record";

  const auto t0 = std::chrono::steady_clock::now();
  db.Stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  for (const TxnHandle& h : handles) {
    EXPECT_TRUE(h.Wait().committed);
  }
  EXPECT_EQ(seen.load(), 7);
  EXPECT_GE(db.CollectStats().stash_events, 1u);
  EXPECT_LT(stop_seconds, 1.0)
      << "Stop must drain stashed submissions without waiting out the split phase";
}

// ---- Workload tag bounds ----

using AsyncSubmitDeathTest = ::testing::Test;

TEST(AsyncSubmitDeathTest, OutOfRangeTagFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Single-threaded engine harness: committed_by_tag[kNumTags] must never be indexed
  // with a workload tag >= kNumTags.
  EXPECT_DEATH(
      {
        Store store(64);
        store.LoadInt(Key::FromU64(1), 0);
        OccEngine engine(store);
        Worker w(0, 42);
        RunnerConfig cfg;
        PendingTxn pt;
        pt.req = MakeAdd(Key::FromU64(1), 1);
        pt.req.args.tag = kNumTags;  // one past the end
        RunPendingTxn(engine, cfg, w, std::move(pt));
      },
      "tag < kNumTags");
}

}  // namespace
}  // namespace doppel
