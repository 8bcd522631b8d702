#include "src/core/quiesce.h"

#include <thread>

#include "src/core/doppel_engine.h"
#include "src/core/runner.h"

namespace doppel {

QuiesceBarrier::QuiesceBarrier(int num_workers, const std::atomic<bool>& stop)
    : slots_(static_cast<std::size_t>(num_workers)), stop_(stop) {}

void QuiesceBarrier::WaitForAcks() const {
  const std::uint64_t pend = pending();
  for (const Slot& s : slots_) {
    std::uint32_t spins = 0;
    while (s.acked.load(std::memory_order_acquire) != pend) {
      // Relaxed stop poll: shutdown needs no ordering beyond the acks themselves.
      if (stop_.load(std::memory_order_relaxed)) {
        return;
      }
      if (++spins < 1024) {
        CpuRelax();
      } else {
        std::this_thread::yield();  // let the worker run to its next txn boundary
      }
    }
  }
}

void QuiesceBarrier::Transition(Worker& w, DoppelEngine* doppel,
                                const RunnerConfig& cfg) {
  Slot& slot = slots_[static_cast<std::size_t>(w.id)];
  const std::uint64_t pend = pending();
  const Phase target = DecodePhase(pend);
  if (w.LoadPhase() == Phase::kSplit) {
    // Leaving the split phase: reconcile this core's slices into the global store.
    doppel->MergeWorkerSlices(w);
  }
  if (target == Phase::kSplit) {
    // "our workers delay acknowledging a split phase until they have committed or
    // aborted all previously-stashed transactions." Relaxed stop poll: reacting an
    // iteration late is harmless.
    while (!w.stash.empty() && !stop_.load(std::memory_order_relaxed)) {
      PendingTxn pt = std::move(w.stash.front());
      w.stash.pop_front();
      // Still in the joined phase (we have not acked yet), so this cannot re-stash.
      RunPendingTxn(*doppel, cfg, w, std::move(pt));
    }
  }
  slot.acked.store(pend, std::memory_order_release);
  // Yield while waiting for the release: the coordinator needs a core to collect acks and
  // run the barrier work, and on machines with as many workers as cores a pure spin here
  // would make every phase change cost scheduler timeslices instead of microseconds.
  std::uint32_t spins = 0;
  while (released() != pend) {
    if (stop_.load(std::memory_order_relaxed)) {
      return;
    }
    HelpCapture();
    if (++spins < 64) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  if (target == Phase::kSplit) {
    doppel->PrepareSlices(w);
  }
  // Worker-local phase mirror: only this worker reads it for decisions; cross-thread
  // observers (stats) tolerate staleness. The barrier ack provides real ordering.
  w.phase.store(target, std::memory_order_relaxed);
  slot.seen = pend;
}

void QuiesceBarrier::Capture(CheckpointCapture& capture) {
  // Publish the shard queue to the parked workers (they poll it in Transition's release
  // wait) and work it from here too. The seq_cst publish also orders the workers'
  // pre-ack record writes — which this thread acquired through their acks — before
  // their shard reads.
  capture_.store(&capture);
  capture.Work();
  std::uint32_t spins = 0;
  while (!capture.Done()) {
    if (++spins < 1024) {
      CpuRelax();
    } else {
      std::this_thread::yield();  // a helper was descheduled mid-shard
    }
  }
  // Unpublish, then wait out helpers that may still hold the pointer. Both sides are
  // seq_cst (store/load here, increment/load in HelpCapture), so a helper either sees
  // null or is counted here.
  capture_.store(nullptr);
  while (capture_helpers_.load() != 0) {
    CpuRelax();
  }
}

void QuiesceBarrier::HelpCapture() {
  // Cheap peek on every wait-loop spin; the seq_cst protocol below decides.
  if (capture_.load(std::memory_order_relaxed) == nullptr) {
    return;
  }
  capture_helpers_.fetch_add(1);
  if (CheckpointCapture* capture = capture_.load()) {
    capture->Work();
  }
  capture_helpers_.fetch_sub(1);
}

}  // namespace doppel
