// Per-worker state. One worker runs per core (§3): it generates transactions, executes
// them to completion, retries aborted ones with exponential backoff, stashes transactions
// blocked on split data, and acknowledges quiesce barriers.
#ifndef DOPPEL_SRC_TXN_WORKER_H_
#define DOPPEL_SRC_TXN_WORKER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/cacheline.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/common/spinlock.h"
#include "src/txn/phase.h"
#include "src/txn/request.h"
#include "src/txn/txn.h"

namespace doppel {

// Completion state shared between a TxnHandle and the worker that finishes the
// transaction. One ticket is allocated per external submission (Submit / SubmitBatch /
// Execute); source-generated benchmark transactions never allocate one.
struct SubmitTicket {
  // Set iff the submission used the std::function convenience path; POD submissions
  // carry their proc in PendingTxn::req instead.
  std::function<void(Txn&)> fn;
  // 0 = pending; otherwise the terminal TxnAbort code + 1 (1 = committed).
  std::atomic<int> state{0};
  std::atomic<std::uint32_t> attempts{0};
  // Database's drain counter: decremented (release) once the ticket is fully finished,
  // so Stop() can wait for in-flight handles.
  std::atomic<std::uint64_t>* inflight = nullptr;

  // TxnHandle::OnComplete hook. cb_mu orders callback registration against completion:
  // whichever side arrives second delivers the callback exactly once.
  Spinlock cb_mu;
  bool finished GUARDED_BY(cb_mu) = false;
  // Held under cb_mu until `finished`; the completing side moves it out.
  std::function<void(const TxnResult&)> callback GUARDED_BY(cb_mu);

  // Publishes the terminal outcome and wakes Wait()-ers. `attempts` must already be
  // stored: it rides on this release-store.
  void Finish(TxnAbort abort) {
    state.store(static_cast<int>(abort) + 1, std::memory_order_release);
    state.notify_all();
  }

  // Valid once `state` is nonzero (terminal); the acquire-load of `state` orders the
  // relaxed `attempts` read after Finish's release-store.
  TxnResult result() const {
    const auto abort = static_cast<TxnAbort>(state.load(std::memory_order_acquire) - 1);
    return TxnResult{abort == TxnAbort::kNone, attempts.load(std::memory_order_relaxed),
                     abort};
  }
};

// A transaction waiting in an inbox, retry, or stash queue. `req` carries the POD proc
// (or, for the std::function path, just args/metadata with proc == nullptr, in which
// case `ticket->fn` is the body).
struct PendingTxn {
  TxnRequest req;
  std::shared_ptr<SubmitTicket> ticket;
  std::uint32_t attempts = 0;
};

struct RetryItem {
  std::uint64_t due_ns;
  PendingTxn txn;
  friend bool operator<(const RetryItem& a, const RetryItem& b) {
    return a.due_ns > b.due_ns;  // min-heap under std::push_heap
  }
};

// Engine-specific per-worker extension (Doppel hangs slices and samplers here).
struct WorkerExt {
  virtual ~WorkerExt() = default;
};

class Worker {
 public:
  Worker(int id, std::uint64_t seed) : id(id), rng(seed) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  const int id;
  Rng rng;
  Txn txn;  // reused across transactions to avoid per-transaction allocation

  // ---- Silo TID generation (§5.1): per-core, no global coordination ----
  std::uint64_t last_tid = 2;
  static constexpr int kWorkerTidBits = 8;
  std::uint64_t GenerateTid(std::uint64_t max_seen) {
    const std::uint64_t base = last_tid > max_seen ? last_tid : max_seen;
    const std::uint64_t tid = (((base >> kWorkerTidBits) + 1) << kWorkerTidBits) |
                              static_cast<std::uint64_t>(id);
    last_tid = tid;
    return tid;
  }

  // Last epoch this worker observed (EpochReclaimer::Tick's return; owner thread
  // only). The run loop invalidates txn's route cache when it moves — the lever that
  // keeps cached Record*s inside the reclamation grace period.
  std::uint64_t epoch_seen = 0;

  // Cached wall clock (owner thread only). Refreshed wherever the hot path already
  // pays a clock read — commit-latency measurement, retry scheduling, batch
  // boundaries in the worker loop — so source-generated transactions can be stamped
  // without an extra clock_gettime each.
  std::uint64_t clock_ns = 0;

  // ---- Metrics (owner-written; aggregated after a run) ----
  std::uint64_t committed = 0;
  std::uint64_t committed_split_phase = 0;  // committed while in a split phase
  std::uint64_t conflicts = 0;
  std::uint64_t stash_events = 0;
  std::uint64_t user_aborts = 0;
  std::uint64_t type_mismatch_aborts = 0;
  std::uint64_t durability_aborts = 0;  // terminated by the degraded-mode gate
  std::uint64_t committed_by_tag[kNumTags] = {};
  LatencyHistogram latency_by_tag[kNumTags];
  // Readable while running (throughput-over-time series, Fig. 10).
  PaddedCounter shared_commits;

  // ---- Queues ----
  std::vector<RetryItem> retry_heap;     // std::push_heap/pop_heap by due time
  std::deque<PendingTxn> stash;          // split-blocked; drained in joined phases

  bool HasDueRetry(std::uint64_t now_ns) const {
    return !retry_heap.empty() && retry_heap.front().due_ns <= now_ns;
  }

  // ---- Phase (Doppel; always kJoined for other engines) ----
  // Written only by the owning worker inside its barrier transition; atomic because
  // observers (tests, diagnostics) may peek from other threads. All owner-side accesses
  // use relaxed ordering (plain loads/stores on every target); cross-thread visibility
  // of barrier-time state rides on the quiesce barrier's ack/release words
  // (src/core/quiesce.h).
  std::atomic<Phase> phase{Phase::kJoined};
  Phase LoadPhase() const { return phase.load(std::memory_order_relaxed); }

  std::unique_ptr<WorkerExt> ext;
};

}  // namespace doppel

#endif  // DOPPEL_SRC_TXN_WORKER_H_
