// Two-phase locking baseline (§8.1).
//
// Per-record reader/writer spinlocks held until commit. The paper's 2PL (Go RWMutex)
// blocks indefinitely and never aborts; its workloads cannot deadlock. Ours spins with a
// bound and aborts + retries on timeout, which behaves identically on those workloads but
// also recovers from genuine multi-key deadlocks (see tests/txn_twopl_test.cc).
#ifndef DOPPEL_SRC_TXN_TWOPL_ENGINE_H_
#define DOPPEL_SRC_TXN_TWOPL_ENGINE_H_

#include "src/common/annotations.h"
#include "src/store/store.h"
#include "src/txn/engine.h"

namespace doppel {

class TwoPLEngine : public Engine {
 public:
  struct Limits {
    std::uint32_t shared_spin = 1u << 20;
    std::uint32_t exclusive_spin = 1u << 20;
    std::uint32_t upgrade_spin = 1u << 16;
  };

  explicit TwoPLEngine(Store& store);
  TwoPLEngine(Store& store, Limits limits) : store_(store), limits_(limits) {}

  const char* name() const override { return "2pl"; }

  Record* Route(Worker& w, const Key& key, RecordType type, std::size_t topk_k) override;
  Record* RouteDelete(Worker& w, const Key& key) override;
  void Read(Worker& w, Txn& txn, Record* r, ReadResult* out) override;
  void Write(Worker& w, Txn& txn, PendingWrite&& pw) override;
  std::size_t Scan(Worker& w, Txn& txn, std::uint64_t table, std::uint64_t lo,
                   std::uint64_t hi, std::size_t limit, ScanFn fn) override;
  TxnStatus Commit(Worker& w, Txn& txn) override;
  void Abort(Worker& w, Txn& txn) override;

 private:
  // Transaction-duration lock sets are outside Clang's function-local analysis: the
  // Ensure* helpers acquire a record/partition RW lock, stash it in txn.locks() /
  // txn.index_locks(), and return still holding it; ReleaseAll drops locks it never
  // acquired. The 2PL invariant (every acquired lock is released exactly once by
  // ReleaseAll at commit/abort, including after a timeout dooms the attempt) is checked
  // dynamically by tests/txn_twopl_test.cc under TSan instead. Each helper returns
  // false after a timeout has doomed the attempt as a conflict; the caller must stop
  // and take no further locks.
  bool EnsureShared(Txn& txn, Record* r) NO_THREAD_SAFETY_ANALYSIS;
  bool EnsureExclusive(Txn& txn, Record* r, OpCode op) NO_THREAD_SAFETY_ANALYSIS;
  // Transaction-duration index-partition locks (phantom protection: scans share,
  // inserts of newly-present records exclude). A timeout is a scan conflict: it is
  // charged to the partition's telemetry and attributed in txn.scan_set_conflicts
  // before the attempt is doomed.
  bool EnsureIndexShared(Txn& txn, std::uint64_t table, std::uint32_t part_index,
                         IndexPartition* p) NO_THREAD_SAFETY_ANALYSIS;
  // Same transaction-duration acquisition pattern as EnsureIndexShared above.
  bool EnsureIndexExclusive(Txn& txn, std::uint64_t table, std::uint32_t part_index,
                            IndexPartition* p, OpCode op) NO_THREAD_SAFETY_ANALYSIS;
  // Releases the transaction-duration lock set acquired piecemeal by the Ensure*
  // helpers above — capabilities the analysis never saw this function acquire.
  static void ReleaseAll(Txn& txn) NO_THREAD_SAFETY_ANALYSIS;

  Store& store_;
  Limits limits_;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_TWOPL_ENGINE_H_
