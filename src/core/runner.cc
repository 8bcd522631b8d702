#include "src/core/runner.h"

#include <algorithm>
#include <utility>

#include "src/common/dassert.h"
#include "src/common/timing.h"

namespace doppel {
namespace {

// Delivers the terminal outcome of a submitted transaction: the POD completion slot
// first, then the ticket (handle waiters, OnComplete callback, drain counter). Runs on
// the worker thread that finished the transaction. `abort` == kNone means committed.
void CompleteSubmission(PendingTxn& pt, TxnAbort abort) {
  const TxnResult result{abort == TxnAbort::kNone, pt.attempts + 1, abort};
  if (pt.req.on_complete != nullptr) {
    pt.req.on_complete(result, pt.req.on_complete_ctx);
  }
  if (!pt.ticket) {
    return;
  }
  SubmitTicket& t = *pt.ticket;
  std::function<void(const TxnResult&)> cb;
  {
    // Publish the outcome and close registration in one critical section: a waiter
    // that Finish wakes and that then calls OnComplete blocks on cb_mu until `finished`
    // is set, so its callback runs inline as documented, not on this thread.
    t.cb_mu.lock();
    // attempts rides on the state release-store in Finish: waiters acquire state first.
    t.attempts.store(result.attempts, std::memory_order_relaxed);
    t.Finish(abort);
    t.finished = true;
    cb = std::move(t.callback);
    t.callback = nullptr;
    t.cb_mu.unlock();
  }
  if (cb) {
    cb(result);
  }
  if (t.inflight != nullptr) {
    // Last: once this hits zero Database::Stop may tear the workers down.
    t.inflight->fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace

void AbandonPendingTxn(PendingTxn&& pt) { CompleteSubmission(pt, TxnAbort::kUser); }

void ScheduleRetry(Worker& w, const RunnerConfig& cfg, PendingTxn&& pt) {
  pt.attempts++;
  const std::uint32_t shift = std::min(pt.attempts, 20u);
  std::uint64_t delay = cfg.backoff_min_ns << shift;
  delay = std::min(delay, cfg.backoff_max_ns);
  // +-25% jitter decorrelates retries of transactions aborted by the same conflict.
  const std::uint64_t jitter = delay / 2;
  delay = delay - delay / 4 + (jitter == 0 ? 0 : w.rng.NextBounded(jitter));
  const std::uint64_t now = NowNanos();
  w.clock_ns = now;  // free refresh for the worker loop's batched timestamp
  w.retry_heap.push_back(RetryItem{now + delay, std::move(pt)});
  std::push_heap(w.retry_heap.begin(), w.retry_heap.end());
}

void RunPendingTxn(Engine& engine, const RunnerConfig& cfg, Worker& w, PendingTxn&& pt) {
  Txn& txn = w.txn;
  txn.Reset(&engine, &w);
  if (pt.req.proc != nullptr) {
    pt.req.proc(txn, pt.req.args);
  } else {
    pt.ticket->fn(txn);
  }

  // One outcome per attempt: the doom reason if an access (or the body) ended it early,
  // else the degraded gate, else the commit protocol's verdict.
  TxnStatus status = txn.doom_reason();  // kCommitted unless doomed
  if (!txn.doomed() && cfg.degraded != nullptr &&
      cfg.degraded->load(std::memory_order_acquire) &&
      (!txn.write_set().empty() || !txn.split_writes().empty())) {
    // Read-only degraded mode (permanent WAL failure): committing these writes would
    // drop their redo entries on the floor, so the transaction terminates with the
    // durability-lost abort instead. Reads (empty write sets) fall through and keep
    // committing. For the Atomic baseline engine — which applies writes at Write()
    // time, not commit — the gate is advisory: the abort still truthfully reports that
    // durability was lost, and new submissions bounce at the door (kReadOnly).
    status = TxnStatus::kDurabilityLost;
  }
  if (status == TxnStatus::kCommitted) {
    status = engine.Commit(w, txn);
  } else {
    engine.Abort(w, txn);
  }

  switch (status) {
    case TxnStatus::kCommitted:
      break;
    case TxnStatus::kConflict:
      engine.OnConflict(w, txn);
      w.conflicts++;
      ScheduleRetry(w, cfg, std::move(pt));  // also refreshes w.clock_ns
      return;
    case TxnStatus::kStashed:
      // Split data blocked the attempt: restart it in the next joined phase (§5.2).
      engine.OnStash(w, StashSignal{txn.doom_record(), txn.doom_op()});
      w.stash_events++;
      w.stash.push_back(std::move(pt));
      break;
    case TxnStatus::kUserAbort:
      w.user_aborts++;
      CompleteSubmission(pt, TxnAbort::kUser);
      break;
    case TxnStatus::kTypeMismatch:
      // The key exists with a different record type. Deterministic: a retry would hit
      // the same record again, so this is terminal like a user abort, with its own
      // result code so callers can tell a schema bug from an intentional rollback.
      w.type_mismatch_aborts++;
      CompleteSubmission(pt, TxnAbort::kTypeMismatch);
      break;
    case TxnStatus::kDurabilityLost:
      w.durability_aborts++;
      CompleteSubmission(pt, TxnAbort::kDurabilityLost);
      break;
  }
  if (status != TxnStatus::kCommitted) {
    // Rare exit: refresh the clock cache so the next batched source stamp does not
    // silently include this transaction's execution time.
    w.clock_ns = NowNanos();
    return;
  }

  if (cfg.wal != nullptr) {
    // w.last_tid is the TID this commit generated (Silo TID generation is per-worker).
    cfg.wal->Append(w.id, w.last_tid, txn.write_set(), txn.split_writes(), txn.arena());
  }
  w.committed++;
  if (w.LoadPhase() == Phase::kSplit) {
    w.committed_split_phase++;
  }
  w.shared_commits.Add(1);
  const std::uint8_t tag = pt.req.args.tag;
  // committed_by_tag / latency_by_tag are kNumTags-sized; an out-of-range workload tag
  // would silently corrupt adjacent counters, so fail fast even in release builds.
  DOPPEL_CHECK(tag < kNumTags);
  w.committed_by_tag[tag]++;
  const std::uint64_t submit_ns = pt.req.args.submit_ns;
  if (submit_ns != 0) {
    // The commit-side clock read doubles as the worker loop's next source-transaction
    // stamp (w.clock_ns), so a closed-loop worker pays one clock_gettime per
    // transaction, not two.
    const std::uint64_t end_ns = NowNanos();
    w.clock_ns = end_ns;
    // Floor at 1ns: a commit inside one clock tick must still record a nonzero sample
    // (report.cc treats latency 0 as a missing submit_ns stamp).
    const std::uint64_t latency = end_ns - submit_ns;
    w.latency_by_tag[tag].Record(latency == 0 ? 1 : latency);
  }
  CompleteSubmission(pt, TxnAbort::kNone);
}

}  // namespace doppel
