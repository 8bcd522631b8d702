// Shared helpers for concurrency tests: a thread harness over raw engines (no Database /
// coordinator) and retry helpers.
#ifndef DOPPEL_TESTS_TEST_UTIL_H_
#define DOPPEL_TESTS_TEST_UTIL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/barrier.h"
#include "src/core/runner.h"
#include "src/store/store.h"
#include "src/txn/engine.h"

namespace doppel {
namespace testing {

// Runs `fn(worker)` on `n` threads, one worker each, all released together.
class EngineHarness {
 public:
  explicit EngineHarness(std::size_t store_capacity = 1 << 16)
      : store(store_capacity) {}

  Store store;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<Worker>> workers;

  void MakeWorkers(int n) {
    workers.clear();
    for (int i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>(i, 1234567 + 99991ULL * i));
    }
  }

  void Parallel(const std::function<void(Worker&)>& fn) {
    SpinBarrier barrier(static_cast<std::uint32_t>(workers.size()));
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto& w : workers) {
      Worker* worker = w.get();
      threads.emplace_back([&, worker] {
        barrier.Wait();
        fn(*worker);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  // One attempt; returns the outcome.
  TxnStatus TryOnce(Worker& w, const std::function<void(Txn&)>& body) {
    Txn& txn = w.txn;
    txn.Reset(engine.get(), &w);
    body(txn);
    if (txn.doomed()) {
      engine->Abort(w, txn);
      return txn.doom_reason();
    }
    return engine->Commit(w, txn);
  }

  // Retries (spinning) until committed. Only for workloads that cannot stash.
  void MustCommit(Worker& w, const std::function<void(Txn&)>& body) {
    while (TryOnce(w, body) != TxnStatus::kCommitted) {
    }
  }
};

inline std::int64_t IntAt(const Store& store, const Key& k) {
  const Record* r = store.Find(k);
  if (r == nullptr) {
    return 0;
  }
  const Record::IntSnapshot s = r->ReadInt();
  return s.present ? s.value : 0;
}

}  // namespace testing
}  // namespace doppel

#endif  // DOPPEL_TESTS_TEST_UTIL_H_
