// The coordinator thread (§5.4): owns the quiesce barrier (src/core/quiesce.h) for every
// engine. Under Doppel it starts phase changes, runs the classifier at barriers, and
// applies the feedback rules (delay split phases when nothing is contended; hurry the
// joined phase when the split phase stashes too much; keep the joined phase to a floor
// after a split phase that barely stashed and whose plan carries over). Under every
// engine it runs the joined-barrier duties — adaptive index narrowing, replication
// cuts, and checkpoints — at a barrier whenever one is due, so OCC, 2PL and Atomic
// databases get the same bounded log and consistent cuts as Doppel.
#ifndef DOPPEL_SRC_CORE_COORDINATOR_H_
#define DOPPEL_SRC_CORE_COORDINATOR_H_

#include <atomic>
#include <cstdint>

#include "src/core/options.h"
#include "src/store/store.h"
#include "src/txn/phase.h"

namespace doppel {

class Database;

class Coordinator {
 public:
  // Borrows `db`'s barrier, engine, store, WAL, workers and stop flags. When
  // Database::Stop asks it to wind down, the coordinator finishes any split phase (so
  // all slices reconcile), then stops the workers and returns. While Stop drains
  // in-flight submissions the coordinator hurries: split phases end immediately, no new
  // one starts, and no joined-barrier duty runs, so transactions stashed in a split
  // phase retire in the next joined phase instead of keeping Stop waiting for up to a
  // full phase length.
  explicit Coordinator(Database& db) : db_(db) {}

  // Thread body.
  void Run();

  // Marks a checkpoint due at the next joined barrier (Database::RequestCheckpoint).
  void RequestCheckpoint() {
    checkpoint_requested_.store(true, std::memory_order_relaxed);
  }

  // Completed split/joined cycles (Doppel).
  std::uint64_t completed_cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }

  // Cumulative wall time per stage (nanoseconds), for observability and tests.
  struct StageTimes {
    std::uint64_t joined_ns = 0;
    std::uint64_t split_ns = 0;
    std::uint64_t to_split_barrier_ns = 0;  // acks + classify + plan
    std::uint64_t to_joined_barrier_ns = 0; // acks (incl. reconciliation) + duties
  };
  StageTimes stage_times() const {
    StageTimes t;
    t.joined_ns = joined_ns_.load(std::memory_order_relaxed);
    t.split_ns = split_ns_.load(std::memory_order_relaxed);
    t.to_split_barrier_ns = to_split_barrier_ns_.load(std::memory_order_relaxed);
    t.to_joined_barrier_ns = to_joined_barrier_ns_.load(std::memory_order_relaxed);
    return t;
  }

 private:
  // One quiesce barrier into `target`: begin, collect acks, run the barrier work (the
  // split plan when entering a split phase; reconciliation follow-up and the
  // joined-barrier duties when entering a joined one), release.
  void Barrier(Phase target);
  // Racy peek between barriers: is any joined-barrier duty due? Lets an engine with
  // no split phase (or an uncontended Doppel) quiesce only when there is work.
  bool JoinedDutiesDue();

  // Chunked sleep; returns early on stop (and, for split phases, on stash pressure).
  void SleepJoined(std::uint64_t ns) const;
  void SleepSplit(std::uint64_t ns) const;

  // ---- Checkpoints (coordinator thread) ----
  // Is a checkpoint due (interval elapsed or explicitly requested)? Never while the
  // previous checkpoint is still persisting — a request then stays pending for a later
  // barrier. Collects the previous persist's outcome, arming the retry backoff if it
  // failed.
  bool CheckpointDue();
  // At a joined barrier: if a checkpoint is due, seal the log and capture the store —
  // sharded across this thread and the parked workers — then hand the image to the
  // WAL's flusher to persist after the barrier is released. The barrier is a free
  // consistency point — the store holds exactly the committed prefix, and every
  // commit's redo entry is already in the WAL buffers.
  void MaybeCheckpoint();
  // A checkpoint failed (seal or persist): back off, and re-arm the request.
  void OnCheckpointFailed();

  // ---- Replication cuts ----
  // Should joined barriers emit replication cuts? True while logging and either
  // Options::replication_cuts forces it or a replica holds a retention lease.
  bool ReplicationCutDue() const;
  // At a joined barrier: append a replication-cut record at the max committed TID.
  // Runs before MaybeCheckpoint, so a checkpoint's sealed log ends at the cut and a
  // bootstrapping replica starts cut-aligned.
  void EmitReplicationCut();

  Database& db_;
  std::atomic<bool> checkpoint_requested_{false};
  std::uint64_t last_checkpoint_ns_ = 0;  // coordinator thread only (barriers)
  // Checkpoint-failure retry state (coordinator thread only, like last_checkpoint_ns_):
  // after a rolled-back checkpoint, no retry before backoff_until, doubling per
  // consecutive failure up to 2^5 x the base interval.
  std::uint64_t checkpoint_backoff_until_ns_ = 0;
  std::uint32_t checkpoint_consecutive_failures_ = 0;
  // Total commits when the current split phase began (the base of the split-phase
  // stash share, for the hurry and the joined-phase length).
  std::uint64_t split_start_commits_ = 0;
  // Length of the next joined phase: phase_us, or the floor a clean split phase earned
  // at its joined barrier (coordinator thread only).
  std::uint64_t next_joined_ns_ = 0;

  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> joined_ns_{0};
  std::atomic<std::uint64_t> split_ns_{0};
  std::atomic<std::uint64_t> to_split_barrier_ns_{0};
  std::atomic<std::uint64_t> to_joined_barrier_ns_{0};
};

// ---- Adaptive index partitioning (a joined-barrier duty) ----
// Racy peek between barriers: would TuneAdaptiveTables narrow any adaptive table's
// boundaries right now? Lets the coordinator quiesce for insert-heavy tables that
// never produce split candidates.
bool IndexTunePending(Store& store, const IndexTuneOptions& tune);
// With every worker quiesced: narrow the adaptive tables whose per-partition telemetry
// shows the load collapsing onto one stripe.
void TuneAdaptiveTables(Store& store, const IndexTuneOptions& tune);

}  // namespace doppel

#endif  // DOPPEL_SRC_CORE_COORDINATOR_H_
