// The quiesce barrier (§5.4): the one point where every worker is parked between
// transactions. Every engine's worker loop acknowledges it; the coordinator
// (src/core/coordinator.h) runs Doppel's phase changes and the engine-neutral
// joined-barrier duties (checkpoints, replication cuts, index narrowing) inside it.
//
// The coordinator publishes a transition by storing a new word into `pending`; workers
// notice between transactions, perform their transition duties (reconcile slices when
// leaving a split phase, drain stashed transactions before entering one), store the word
// into their ack slot, and spin until `released` catches up — encoding shards of a
// published checkpoint capture while they wait. The paired release store / acquire load
// on these words is what makes the coordinator's barrier-time writes (split marks, the
// split plan, narrowed index layouts) visible to workers without further
// synchronization.
#ifndef DOPPEL_SRC_CORE_QUIESCE_H_
#define DOPPEL_SRC_CORE_QUIESCE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/cacheline.h"
#include "src/persist/checkpoint.h"
#include "src/txn/phase.h"
#include "src/txn/worker.h"

namespace doppel {

class DoppelEngine;
struct RunnerConfig;

// Cache-line aligned: every worker reads `pending` on every loop pass, so no
// frequently written neighbour may share its line.
class alignas(kCacheLineSize) QuiesceBarrier {
 public:
  // Ack slots for workers with ids [0, num_workers). `stop` cuts every wait short
  // (shutdown): a parked worker returns without entering the new phase.
  QuiesceBarrier(int num_workers, const std::atomic<bool>& stop);

  static std::uint64_t Encode(std::uint64_t seq, Phase p) {
    return (seq << 1) | (p == Phase::kSplit ? 1u : 0u);
  }
  static Phase DecodePhase(std::uint64_t word) {
    return (word & 1) != 0 ? Phase::kSplit : Phase::kJoined;
  }
  static std::uint64_t DecodeSeq(std::uint64_t word) { return word >> 1; }

  std::uint64_t pending() const { return pending_.load(std::memory_order_acquire); }
  std::uint64_t released() const { return released_.load(std::memory_order_acquire); }
  bool TransitionInFlight() const { return pending() != released(); }
  Phase CurrentReleasedPhase() const { return DecodePhase(released()); }

  // ---- Coordinator side ----
  // Announces the next phase. Must not be called with a transition in flight.
  std::uint64_t BeginTransition(Phase target) {
    const std::uint64_t word = Encode(DecodeSeq(pending()) + 1, target);
    pending_.store(word, std::memory_order_release);
    return word;
  }
  // Spins until every worker acked `pending` (or stop).
  void WaitForAcks() const;
  // Lets acknowledged workers proceed into the new phase.
  void Release() {
    released_.store(pending_.load(std::memory_order_relaxed), std::memory_order_release);
  }
  // Between WaitForAcks and Release: runs `capture` to completion, sharded across the
  // calling thread and the parked workers.
  void Capture(CheckpointCapture& capture);

  // ---- Worker side ----
  // Called by `w`'s own thread between transactions. When a transition is pending:
  // reconcile `w`'s slices if it leaves a split phase, drain its stash (through
  // `doppel` and `cfg`) before acking a split phase, ack, park until released, and
  // prepare slices when it enters one. `doppel` is null for every other engine, which
  // only ever sees joined -> joined transitions.
  void Acknowledge(Worker& w, DoppelEngine* doppel, const RunnerConfig& cfg) {
    if (pending() != slots_[static_cast<std::size_t>(w.id)].seen) {
      Transition(w, doppel, cfg);
    }
  }

 private:
  // One worker's ack slot. `acked` is the cross-thread handshake word; `seen` (the last
  // word this worker finished) is owner-only.
  struct alignas(kCacheLineSize) Slot {
    std::atomic<std::uint64_t> acked{0};
    std::uint64_t seen = 0;
  };

  void Transition(Worker& w, DoppelEngine* doppel, const RunnerConfig& cfg);
  // Parked: encode shards of a checkpoint capture, if one is published.
  void HelpCapture();

  std::atomic<std::uint64_t> pending_{Encode(0, Phase::kJoined)};
  std::atomic<std::uint64_t> released_{Encode(0, Phase::kJoined)};
  std::vector<Slot> slots_;
  const std::atomic<bool>& stop_;
  // The capture in progress at the current barrier (null otherwise), and how many
  // parked workers are inside HelpCapture: Capture unpublishes it and waits for the
  // count to drain before the capture goes out of scope. On their own line: helpers
  // write the count while workers still in their transitions read `pending`.
  alignas(kCacheLineSize) std::atomic<CheckpointCapture*> capture_{nullptr};
  std::atomic<int> capture_helpers_{0};
};

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_QUIESCE_H_
