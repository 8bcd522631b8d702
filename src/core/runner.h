// Drives one transaction attempt through an engine and routes the outcome: committed
// transactions are counted and their latency recorded (from args.submit_ns, stamped at
// submission so queueing delay is included); conflict aborts are scheduled for retry
// with exponential backoff; split-blocked transactions are stashed for the next joined
// phase (§8.1, §5.2). Terminal outcomes (commit or a non-retried abort) deliver the
// TxnResult to the request's POD completion slot and, for external submissions, to the
// SubmitTicket behind the client's TxnHandle — including its OnComplete callback and the
// Database drain counter.
#ifndef DOPPEL_SRC_CORE_RUNNER_H_
#define DOPPEL_SRC_CORE_RUNNER_H_

#include <cstdint>

#include "src/persist/wal.h"
#include "src/txn/engine.h"
#include "src/txn/worker.h"

namespace doppel {

struct RunnerConfig {
  std::uint64_t backoff_min_ns = 2000;
  std::uint64_t backoff_max_ns = 1000000;
  WriteAheadLog* wal = nullptr;  // optional redo logging for committed transactions
  // Database's degraded latch: when set (permanent WAL failure), transactions with
  // writes are terminated with TxnAbort::kDurabilityLost before commit instead of
  // committing writes whose redo entries would be silently dropped. Read-only
  // transactions keep committing.
  const std::atomic<bool>* degraded = nullptr;
};

// Pushes `pt` onto the worker's retry heap with exponential backoff + jitter.
void ScheduleRetry(Worker& w, const RunnerConfig& cfg, PendingTxn&& pt);

// Delivers a terminal "aborted" outcome for a queued transaction that will never run
// again (Database::Stop sweeps inboxes / retry heaps / stashes after joining workers):
// fires the POD completion slot and the SubmitTicket (waking Wait-ers, running the
// OnComplete callback, releasing the drain counter).
void AbandonPendingTxn(PendingTxn&& pt);

// Executes one attempt of `pt` on `w` (which must be the calling thread's worker).
void RunPendingTxn(Engine& engine, const RunnerConfig& cfg, Worker& w, PendingTxn&& pt);

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_RUNNER_H_
